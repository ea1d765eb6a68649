"""The two-parameter family of recurrences with closed-form decompositions.

Parameters (alpha, alpha0, beta, t) define the recurrence coefficients

    alpha_n = alpha*n + alpha0  (n >= 0),
    omega_n = beta*n^2 + (t - beta)*n  (n >= 1),

valid when t > 0, alpha >= 0, and either beta >= 0 or t/(-beta) is a positive
integer (the finite-support case, with omega vanishing at 1 + t/(-beta)).
Two derived constants recur throughout: Delta = alpha^2 - 4*beta and
tau = 2*t - alpha*alpha0; ``MeixnerParams`` holds them beside the
parameters.

For this family the semigroup half U = a- + a0/2 satisfies

    [U, X] = (alpha/2) X - (Delta/2) N + (tau/2) I,

which forces every canonical operator to have a position-momentum expansion
whose coefficients follow the two-step recursion

    A_{n+2} = Delta / ((n+2)(n+1)) * (A_n - X/2 * [n == 0]).

The closed forms below are stated in powers of Delta, so they are exact for
every parameter choice, including Delta < 0.  When Delta = delta^2 > 0 the
same operators collapse to finite combinations of the translations
f(X) -> f(X + delta), f(X - delta).  The even and odd halves of that pair are
again series in Delta alone, so ``translation_form`` builds and verifies the
presentation over Q whether or not delta is rational; only its rendering
needs coefficients in Q(sqrt(Delta)).

The raising decomposition is derived from the identity a+ = X - a- - a0
rather than from an independent closed form; see ``_closed_parts``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from math import factorial, lcm
from typing import Mapping, Sequence

from .exact import HALF, X, ZERO, Poly, format_rat, parse_rat, rational_sqrt, trim
from .operators import PolyOp, VerifyReport, linear_combination, sequence_report
from .orthopoly import SzegoJacobi
from .pmd import PMDecomp
from .surd import Quadratic


class InvalidParams(ValueError):
    """Parameter quadruple violates the admissibility conditions."""


class NotASquare(ValueError):
    """Delta < 0 has no real square root, so no translation form exists."""


def _fraction(value: Fraction | int) -> Fraction:
    """``value`` itself if it is a Fraction, else the Fraction it converts to."""
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class MeixnerParams:
    """Admissible (alpha, alpha0, beta, t) quadruple and the constants it derives.

    ``delta`` is Delta = alpha^2 - 4*beta, ``tau`` is 2*t - alpha*alpha0, and
    ``support_bound`` is 1 + t/(-beta), the first n with omega_n = 0, when
    beta < 0 (None otherwise).  They are set once from the four parameters,
    cannot be passed in, and take no part in equality, hashing or repr.
    """

    alpha: Fraction
    alpha0: Fraction
    beta: Fraction
    t: Fraction
    delta: Fraction = field(init=False, compare=False, repr=False)
    tau: Fraction = field(init=False, compare=False, repr=False)
    support_bound: int | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("alpha", "alpha0", "beta", "t"):
            object.__setattr__(self, name, _fraction(getattr(self, name)))
        values = (self.alpha, self.alpha0, self.beta, self.t)
        (an, ad), (a0n, a0d), (bn, bd), (tn, td) = ((v.numerator, v.denominator) for v in values)
        if tn <= 0:
            raise InvalidParams(f"t must be positive, got {self.t}")
        if an < 0:
            raise InvalidParams(f"alpha must be nonnegative, got {self.alpha}")
        support = None
        if bn < 0:
            q, r = tn * bd, -bn * td  # t/(-beta) = q/r
            if q % r:
                raise InvalidParams(
                    f"beta < 0 requires t/(-beta) to be a positive integer, got {Fraction(q, r)}"
                )
            support = 1 + q // r
        object.__setattr__(self, "delta", Fraction(an * an * bd - 4 * bn * ad * ad, ad * ad * bd))
        object.__setattr__(self, "tau", Fraction(2 * tn * ad * a0d - an * a0n * td, td * ad * a0d))
        object.__setattr__(self, "support_bound", support)

    @staticmethod
    def from_strings(alpha: str, alpha0: str, beta: str, t: str) -> "MeixnerParams":
        return MeixnerParams(parse_rat(alpha), parse_rat(alpha0), parse_rat(beta), parse_rat(t))

    def to_json_dict(self) -> dict:
        return {
            "alpha": format_rat(self.alpha),
            "alpha0": format_rat(self.alpha0),
            "beta": format_rat(self.beta),
            "t": format_rat(self.t),
        }


def szego_jacobi(p: MeixnerParams) -> SzegoJacobi:
    """The recurrence as integers over the least common denominator D of
    alpha_0, alpha_1, omega_1 and omega_2.

    In the binomial basis of n, D alpha_n = D alpha_0 + n (D alpha) and
    D^2 omega_n = n (D^2 t) + C(n, 2) (2 D^2 beta), as omega_1 = t and
    omega_2 = 2 (beta + t); each bracket is an integer, though D^2 beta need
    not be (alpha0 = 1/3, beta = 1/2, t = 1 give D = 3).  D is also the lcm
    of the denominators of alpha0, alpha, t and 2 beta, which it is built
    from.  omega_n first vanishes at ``p.support_bound``.
    """
    parts = (p.alpha0, p.alpha, p.t, 2 * p.beta)
    scale = lcm(*(v.denominator for v in parts))
    a0, step, w1, bend = (v.numerator * scale**e // v.denominator for v, e in zip(parts, (1, 1, 2, 2)))

    def shift(n: int) -> int:
        return a0 + n * step

    def link(n: int) -> int:
        return n * w1 + n * (n - 1) // 2 * bend

    return SzegoJacobi(shift, link, scale, p.support_bound)


def recurrence_polys(p: MeixnerParams) -> tuple[Poly, Poly]:
    """alpha_n = alpha*n + alpha0 and omega_n = beta*n^2 + (t - beta)*n as polynomials in n."""
    return Poly.of(p.alpha0, p.alpha), Poly.of(0, p.t - p.beta, p.beta)


def comm_ux_closed_form(p: MeixnerParams, x: PolyOp) -> PolyOp:
    """[U, X] = (alpha/2) X - (Delta/2) N + (tau/2) I, from the polynomial diagonals ``x`` of X."""
    return linear_combination(  # each term halved through its operator's denominator
        (p.alpha, (2 * x[0], x[1])), (p.delta, (2, {0: [0, -1]})), (p.tau, (2, {0: [1]}))
    )


# The six operators, in the order every report lists them.
OPS = ("U", "V", "N", "a0", "a-", "a+")


def _closed_parts(p: MeixnerParams, op: str) -> tuple[int, Poly, Poly, Poly]:
    """(k, A_0, P_odd, P_even) with A_n = Delta^((n-1)//2)/n! * P_(n mod 2) for n >= 1.

    U and N carry the closed forms; a0 = alpha N + alpha0 I, and the rest
    follow by the derived routes V = X - U, a- = U - a0/2, a+ = X - a- - a0,
    applied to the three polynomials.
    """
    xm = Poly.of(-p.alpha0, 1)
    lin = Poly.of(p.tau, p.alpha)
    if op == "N":
        return 0, ZERO, xm, -lin
    u = (Poly.of(p.alpha0 / 2), (p.alpha / 2) * xm + p.t, (-p.delta / 2) * xm)
    if op in ("U", "V"):
        return (0, *u) if op == "U" else (1, X - u[0], -u[1], -u[2])
    a0 = (Poly.of(p.alpha0), p.alpha * xm, -p.alpha * lin)
    if op == "a0":
        return (0, *a0)
    aminus = tuple(a - HALF * b for a, b in zip(u, a0))
    if op == "a-":
        return (-1, *aminus)
    return 1, X - aminus[0] - a0[0], -aminus[1] - a0[1], -aminus[2] - a0[2]


def series_decomposition(p: MeixnerParams, op: str, order: int) -> PMDecomp:
    """Closed-form expansion of one of U, V, N, a0, a-, a+ through D^order.

    U: A_0 = alpha0/2, odd coefficients Delta^n/(2n+1)! ((alpha/2)(X-alpha0)+t),
    even coefficients (n >= 1) -(1/2) Delta^n/(2n)! (X - alpha0).
    N: A_0 = 0, odd terms Delta^n/(2n+1)! (X - alpha0), even terms (n >= 1)
    -Delta^(n-1)/(2n)! (alpha X + tau).  a+ comes from the complement
    identity a+ = X - a- - a0 rather than an independent closed form, and is
    checked against the expansion that ``suites.extraction_agreement`` reads
    off the iterated commutators of the operator's diagonals with X.
    """
    if op not in OPS:
        raise ValueError(f"unknown operator {op!r}; choose from {sorted(OPS)}")
    k, head, odd, even = _closed_parts(p, op)
    return PMDecomp(k, _series(head, odd, even, p.delta, order))


def _series(head: Poly, odd: Poly, even: Poly, delta: Fraction, order: int) -> tuple[Poly, ...]:
    """A_0 = head and A_n = Delta^((n-1)//2)/n! * (odd for odd n, even for even n), n <= order."""
    coeffs = [head]
    num, den = 1, 1  # Delta^((n-1)//2) / n!, unreduced
    for n in range(1, order + 1):
        if n % 2 and n > 1:
            num *= delta.numerator
            den *= delta.denominator
        den *= n
        part = odd if n % 2 else even
        coeffs.append(Poly([v * num for v in part.nums], part.den * den))
    return tuple(coeffs)


@dataclass(frozen=True)
class TranslationExpr:
    """E(X) C + O(X) S + Z(X) I in the even and odd halves of the translations.

    With delta^2 = Delta and T_c f(X) = f(X + c),

        C f = (T_delta f + T_-delta f)/2 = sum_k Delta^k f^(2k)/(2k)!,
        S f = (T_delta f - T_-delta f)/(2 delta) = sum_k Delta^k f^(2k+1)/(2k+1)!,

    so the form's operator series (``series``) involves only Delta and is exact
    over Q whether or not Delta is a rational square.  Written with translations,
    the coefficient of X^i on T_{+/-delta} is E_i/2 +/- delta O_i/(2 Delta), an
    element of Q(sqrt(Delta)).  Terms whose coefficient vanishes are not shown.
    """

    delta_squared: Fraction
    even: Poly
    odd: Poly
    ident: Poly

    def series(self, order: int) -> tuple[Poly, ...]:
        """A_0 .. A_order of the form as sum_n A_n(X) D^n; A_0 = E + Z, then O and Delta E."""
        delta = self.delta_squared
        return _series(self.even + self.ident, self.odd, delta * self.even, delta, order)

    @property
    def terms(self) -> tuple[tuple[tuple[Quadratic, ...], Quadratic], ...]:
        """(coefficients, shift) of each term shown: T_delta, T_-delta, then I (shift 0).

        The coefficients are those of X^0, X^1, ...; a term whose
        coefficients all vanish is not shown.
        """
        step = Quadratic.sqrt(self.delta_squared)
        rational = HALF * self.even
        pairs = []
        for sign in (1, -1):
            root = Fraction(sign, 2) / self.delta_squared * self.odd
            top = max(len(rational.nums), len(root.nums))
            coeffs = [Quadratic(rational.coeff(i), root.coeff(i), self.delta_squared)
                      for i in range(top)]
            pairs.append((tuple(trim(coeffs)), sign * step))
        pairs.append((tuple(Quadratic(c) for c in self.ident.coeffs), 0 * step))
        return tuple((coeffs, shift) for coeffs, shift in pairs if coeffs)

    def to_json_dict(self) -> list[dict]:
        return [
            {"coeff": [c.to_json() for c in coeffs], "shift": shift.to_json()}
            for coeffs, shift in self.terms
        ]

    def __str__(self) -> str:
        parts = []
        for coeffs, shift in self.terms:
            coeff = str(Poly.of(*(c.a for c in coeffs)))
            root = Poly.of(*(c.b for c in coeffs))
            if root:
                coeff += f" + sqrt({format_rat(self.delta_squared)})*({root})"
            where = f"T[{shift}]" if shift else "I"
            parts.append(f"({coeff}) {where}")
        return " + ".join(parts) if parts else "0"


def translation_exprs(p: MeixnerParams) -> dict[str, TranslationExpr]:
    """Translation forms of U, N, a- and a0 for Delta > 0."""
    if p.delta <= 0:
        raise ValueError(f"translation forms need Delta > 0, got {p.delta}")
    xm = Poly.of(-p.alpha0, 1)
    lin = Poly.of(p.tau, p.alpha)
    even_am = Poly.of((p.alpha0 * p.delta + p.alpha * p.tau) / (2 * p.delta), 2 * p.beta / p.delta)
    inv = 1 / p.delta
    return {
        "U": TranslationExpr(p.delta, -HALF * xm, HALF * lin, Poly.of(0, HALF)),
        "N": TranslationExpr(p.delta, -inv * lin, xm, inv * lin),
        "a-": TranslationExpr(p.delta, even_am, Poly.of(p.t), -even_am),
        # a0 = alpha N + alpha0 I
        "a0": TranslationExpr(
            p.delta, -p.alpha * inv * lin, p.alpha * xm, p.alpha * inv * lin + p.alpha0
        ),
    }


@dataclass(frozen=True)
class TranslationFormReport:
    """Translation presentation of U, N, a0, a- (limit forms at Delta = 0)."""

    delta_squared: Fraction
    delta: Fraction | None
    forms: Mapping[str, TranslationExpr]
    limit_forms: Mapping[str, PMDecomp]
    checks: tuple[VerifyReport, ...]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "delta_squared": format_rat(self.delta_squared),
            "delta": None if self.delta is None else format_rat(self.delta),
            "forms": {name: expr.to_json_dict() for name, expr in self.forms.items()},
            "limit_forms": {name: d.to_json_dict() for name, d in self.limit_forms.items()},
            "checks": [c.to_json_dict() for c in self.checks],
            "pass": self.passed,
        }


def translation_form(p: MeixnerParams, max_degree: int = 12) -> TranslationFormReport:
    """Present U, N, a0, a- through finite translations by +/- delta, delta^2 = Delta.

    Every Delta > 0 has such a presentation; ``delta`` is its rational square
    root, or None when it is irrational.  Each presentation is verified
    against the closed-form expansion through D^max_degree, coefficient by
    coefficient (a formal identity, so no truncation is involved).  When
    Delta = 0 the translations collapse, and the limit forms of degree at
    most 2 in D, written out from the parameters, are reported and checked
    instead; Delta < 0 raises ``NotASquare``.
    """
    if p.delta < 0:
        raise NotASquare(f"Delta = {p.delta} is not the square of a rational")
    if p.delta == 0:
        forms: Mapping[str, TranslationExpr] = {}
        limit_forms = _limit_forms(p)
        series = {name: limit.coeffs for name, limit in limit_forms.items()}
    else:
        forms, limit_forms = translation_exprs(p), {}
        series = {name: expr.series(max_degree) for name, expr in forms.items()}
    checks = tuple(
        _check_against_series(p, name, series[name], max_degree)
        for name in ("U", "N", "a0", "a-")
    )
    return TranslationFormReport(
        p.delta, rational_sqrt(p.delta), forms, limit_forms, checks, all(c.passed for c in checks)
    )


def _limit_forms(p: MeixnerParams) -> dict[str, PMDecomp]:
    """U, N, a0 and a- at Delta = 0 as A_0 + A_1 D + A_2 D^2, from the parameters.

    With tau = 2t - alpha*alpha0:
    U is alpha0/2, (alpha X + tau)/2;
    N is 0, X - alpha0, -(alpha X + tau)/2;
    a0 is alpha0, alpha (X - alpha0), -alpha (alpha X + tau)/2;
    a- is 0, t, alpha (alpha X + tau)/4.
    They are written out here, not read off ``series_decomposition``, so the
    check against it can fail.
    """
    half_lin = Poly.of(p.tau / 2, p.alpha / 2)  # (alpha X + tau)/2
    xm = Poly.of(-p.alpha0, 1)
    return {
        "U": PMDecomp(0, (Poly.of(p.alpha0 / 2), half_lin)),
        "N": PMDecomp(0, (ZERO, xm, -half_lin)),
        "a0": PMDecomp(0, (Poly.of(p.alpha0), p.alpha * xm, -p.alpha * half_lin)),
        "a-": PMDecomp(-1, (ZERO, Poly.of(p.t), (p.alpha / 2) * half_lin)),
    }


def _check_against_series(
    p: MeixnerParams, name: str, coeffs: Sequence[Poly], max_degree: int
) -> VerifyReport:
    """Compare A_0 .. A_max_degree of a form with those of ``series_decomposition``.

    Expansions act on X^m through A_0 .. A_m alone, and A_n D^n maps X^n to
    n! A_n, so the triples (n, n! A_n, n! B_n) fail first where the images of
    X^0 .. X^max_degree would, with the same difference.
    """
    series = series_decomposition(p, name, max_degree).coeffs
    pairs = zip(range(max_degree + 1), zip_longest(coeffs, series, fillvalue=ZERO))
    triples = ((n, factorial(n) * a, factorial(n) * b) for n, (a, b) in pairs)
    return sequence_report(f"{name} translation form", max_degree, triples)


def one_meixner_limit_check(p: MeixnerParams, order: int = 10) -> VerifyReport:
    """At Delta = 0 the U expansion collapses to (alpha0/2) I + (1/2)(alpha X + tau) D.

    Verifies that every Delta-power coefficient beyond D^1 vanishes
    identically and that the two surviving coefficients take that form.
    """
    if p.delta != 0:
        raise InvalidParams(f"limit check requires Delta = 0, got {p.delta}")
    u = series_decomposition(p, "U", order)
    limit = _limit_forms(p)["U"]
    # A_0 and A_1 are checked at every order, and A_n must vanish for n >= 2.
    return sequence_report(
        "Delta=0 limit of U",
        order,
        ((n, u.coeff(n), limit.coeff(n)) for n in range(max(order, 1) + 1)),
    )


@dataclass(frozen=True)
class TranslationCombo:
    """Finite combination sum_i c_i T_{d_i} given by (coefficient, shift) pairs."""

    terms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        terms = tuple((_fraction(c), _fraction(s)) for c, s in self.terms)
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def parse(text: str) -> "TranslationCombo":
        """Parse "c1:d1,c2:d2,..." with rational components."""
        terms = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            left, sep, right = chunk.partition(":")
            if not sep:
                raise ValueError(f"term {chunk!r} is not of the form c:d")
            terms.append((parse_rat(left), parse_rat(right)))
        if not terms:
            raise ValueError("empty combination")
        return TranslationCombo(tuple(terms))

    def format(self) -> str:
        return ",".join(f"{format_rat(c)}:{format_rat(s)}" for c, s in self.terms)
