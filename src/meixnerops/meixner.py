"""The two-parameter family of recurrences with closed-form decompositions.

Parameters (alpha, alpha0, beta, t) define the recurrence coefficients

    alpha_n = alpha*n + alpha0  (n >= 0),
    omega_n = beta*n^2 + (t - beta)*n  (n >= 1),

valid when t > 0, alpha >= 0, and either beta >= 0 or t/(-beta) is a positive
integer (the finite-support case, with omega vanishing at 1 + t/(-beta)).
Two derived constants recur throughout: Delta = alpha^2 - 4*beta and
tau = 2*t - alpha*alpha0.

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

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping

from .exact import Poly, format_rat, parse_rat, rational_sqrt
from .operators import GradedOp, VerifyReport, identity_op, number_op, sequence_report
from .orthopoly import SzegoJacobi
from .pmd import PMDecomp
from .surd import Quadratic


class InvalidParams(ValueError):
    """Parameter quadruple violates the admissibility conditions."""


class NotASquare(ValueError):
    """Delta < 0 has no real square root, so no translation form exists."""


@dataclass(frozen=True)
class MeixnerParams:
    """Admissible (alpha, alpha0, beta, t) quadruple."""

    alpha: Fraction
    alpha0: Fraction
    beta: Fraction
    t: Fraction

    def __post_init__(self) -> None:
        for name in ("alpha", "alpha0", "beta", "t"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.t <= 0:
            raise InvalidParams(f"t must be positive, got {self.t}")
        if self.alpha < 0:
            raise InvalidParams(f"alpha must be nonnegative, got {self.alpha}")
        if self.beta < 0:
            ratio = self.t / (-self.beta)
            if ratio.denominator != 1:
                raise InvalidParams(
                    f"beta < 0 requires t/(-beta) to be a positive integer, got {ratio}"
                )

    @staticmethod
    def from_strings(alpha: str, alpha0: str, beta: str, t: str) -> "MeixnerParams":
        return MeixnerParams(parse_rat(alpha), parse_rat(alpha0), parse_rat(beta), parse_rat(t))

    def derived(self) -> "MeixnerDerived":
        support = None
        if self.beta < 0:
            support = 1 + int(self.t / (-self.beta))
        return MeixnerDerived(
            delta=self.alpha**2 - 4 * self.beta,
            tau=2 * self.t - self.alpha * self.alpha0,
            support_bound=support,
        )

    def to_json_dict(self) -> dict:
        return {
            "alpha": format_rat(self.alpha),
            "alpha0": format_rat(self.alpha0),
            "beta": format_rat(self.beta),
            "t": format_rat(self.t),
        }


@dataclass(frozen=True)
class MeixnerDerived:
    """Constants derived from the parameters; recomputed, never stored."""

    delta: Fraction
    tau: Fraction
    support_bound: int | None


def szego_jacobi(p: MeixnerParams) -> SzegoJacobi:
    """alpha_n = (a1*n + a0)/da and omega_n = (w2*n + w1)*n/dw over integers fixed once."""
    da = lcm(p.alpha.denominator, p.alpha0.denominator)
    a1, a0 = int(p.alpha * da), int(p.alpha0 * da)
    slope = p.t - p.beta
    dw = lcm(p.beta.denominator, slope.denominator)
    w2, w1 = int(p.beta * dw), int(slope * dw)

    def alpha_fn(n: int) -> Fraction:
        return Fraction(a1 * n + a0, da)

    def omega_fn(n: int) -> Fraction:
        return Fraction((w2 * n + w1) * n, dw)

    return SzegoJacobi(alpha_fn, omega_fn, p.derived().support_bound)


def comm_ux_closed_form(p: MeixnerParams, x: GradedOp) -> GradedOp:
    """[U, X] = (alpha/2) X - (Delta/2) N + (tau/2) I, truncated like the position operator ``x``."""
    d = p.derived()
    return (
        x.scale(p.alpha / 2)
        - number_op(x.trunc).scale(d.delta / 2)
        + identity_op(x.trunc).scale(d.tau / 2)
    )


def _x_minus(c: Fraction) -> Poly:
    return Poly.of(-c, 1)


# The six operators, in the order every report lists them.
OPS = ("U", "V", "N", "a0", "a-", "a+")


def _closed_parts(p: MeixnerParams, op: str) -> tuple[int, Poly, Poly, Poly]:
    """(k, A_0, P_odd, P_even) with A_n = Delta^((n-1)//2)/n! * P_(n mod 2) for n >= 1.

    U and N carry the closed forms; a0 = alpha N + alpha0 I, and the rest
    follow by the derived routes V = X - U, a- = U - a0/2, a+ = X - a- - a0,
    applied to the three polynomials.
    """
    d = p.derived()
    x = Poly.of(0, 1)
    xm = _x_minus(p.alpha0)
    lin = Poly.of(d.tau, p.alpha)
    if op == "N":
        return 0, Poly.zero(), xm, -lin
    u = (Poly.of(p.alpha0 / 2), (p.alpha / 2) * xm + p.t, (-d.delta / 2) * xm)
    if op in ("U", "V"):
        return (0, *u) if op == "U" else (1, x - u[0], -u[1], -u[2])
    a0 = (Poly.of(p.alpha0), p.alpha * xm, -p.alpha * lin)
    if op == "a0":
        return (0, *a0)
    aminus = tuple(a - Fraction(1, 2) * b for a, b in zip(u, a0))
    if op == "a-":
        return (-1, *aminus)
    return 1, x - aminus[0] - a0[0], -aminus[1] - a0[1], -aminus[2] - a0[2]


def series_decomposition(p: MeixnerParams, op: str, order: int) -> PMDecomp:
    """Closed-form expansion of one of U, V, N, a0, a-, a+ through D^order.

    U: A_0 = alpha0/2, odd coefficients Delta^n/(2n+1)! ((alpha/2)(X-alpha0)+t),
    even coefficients (n >= 1) -(1/2) Delta^n/(2n)! (X - alpha0).
    N: A_0 = 0, odd terms Delta^n/(2n+1)! (X - alpha0), even terms (n >= 1)
    -Delta^(n-1)/(2n)! (alpha X + tau).  a+ comes from the complement
    identity a+ = X - a- - a0 rather than an independent closed form, and is
    checked against the operator matrix elsewhere.
    """
    if op not in OPS:
        raise ValueError(f"unknown operator {op!r}; choose from {sorted(OPS)}")
    k, head, odd, even = _closed_parts(p, op)
    delta = p.derived().delta
    coeffs = [head]
    weight = Fraction(1)  # Delta^((n-1)//2) / n!
    for n in range(1, order + 1):
        weight = weight * (delta if n % 2 and n > 1 else 1) / n
        coeffs.append(weight * (odd if n % 2 else even))
    return PMDecomp(k, tuple(coeffs))


@dataclass(frozen=True)
class TranslationExpr:
    """E(X) C + O(X) S + Z(X) I in the even and odd halves of the translations.

    With delta^2 = Delta and T_c f(X) = f(X + c),

        C f = (T_delta f + T_-delta f)/2 = sum_k Delta^k f^(2k)/(2k)!,
        S f = (T_delta f - T_-delta f)/(2 delta) = sum_k Delta^k f^(2k+1)/(2k+1)!,

    so ``apply`` involves only Delta and is exact over Q whether or not Delta
    is a rational square.  Written with translations, the coefficient of X^i
    on T_{+/-delta} is E_i/2 +/- delta O_i/(2 Delta), an element of
    Q(sqrt(Delta)).  Terms whose coefficient vanishes are not shown.
    """

    delta_squared: Fraction
    even: Poly
    odd: Poly
    ident: Poly

    def apply(self, f: Poly) -> Poly:
        halves = [Poly.zero(), Poly.zero()]  # C f, S f
        weight = Fraction(1)  # Delta^(j // 2) / j!
        j, deriv = 0, f
        while not deriv.is_zero:
            halves[j % 2] = halves[j % 2] + weight * deriv
            j += 1
            weight = weight * (self.delta_squared if j % 2 == 0 else 1) / j
            deriv = deriv.derivative()
        return self.even * halves[0] + self.odd * halves[1] + self.ident * f

    def coefficients(self, sign: int) -> tuple[Quadratic, ...]:
        """Coefficients of X^0, X^1, ... on T_{sign*delta}, or on I for sign 0."""
        if sign == 0:
            return tuple(Quadratic.of(c) for c in self.ident.coeffs)
        rational = Fraction(1, 2) * self.even
        root = Fraction(sign, 2) / self.delta_squared * self.odd
        coeffs = [
            Quadratic(rational.coeff(i), root.coeff(i), self.delta_squared)
            for i in range(max(len(rational.coeffs), len(root.coeffs)))
        ]
        while coeffs and coeffs[-1] == Quadratic.of(0):
            coeffs.pop()
        return tuple(coeffs)

    @property
    def signs(self) -> tuple[int, ...]:
        """Shift signs (+1, -1, 0 for I) of the terms with a nonzero coefficient."""
        return tuple(sign for sign in (1, -1, 0) if self.coefficients(sign))

    @property
    def terms(self) -> tuple[tuple[tuple[Quadratic, ...], Quadratic], ...]:
        """(coefficients, shift) for each term shown, in ``signs`` order."""
        return tuple(
            (self.coefficients(sign), sign * Quadratic.sqrt(self.delta_squared))
            for sign in self.signs
        )

    def to_json_dict(self) -> list[dict]:
        return [
            {"coeff": [c.to_json() for c in coeffs], "shift": shift.to_json()}
            for coeffs, shift in self.terms
        ]

    def __str__(self) -> str:
        step = Quadratic.sqrt(self.delta_squared)
        parts = []
        for sign in self.signs:
            coeffs = self.coefficients(sign)
            coeff = str(Poly(tuple(c.a for c in coeffs)))
            root = Poly(tuple(c.b for c in coeffs))
            if not root.is_zero:
                coeff += f" + sqrt({format_rat(self.delta_squared)})*({root})"
            where = f"T[{sign * step}]" if sign else "I"
            parts.append(f"({coeff}) {where}")
        return " + ".join(parts) if parts else "0"


def translation_exprs(p: MeixnerParams) -> dict[str, TranslationExpr]:
    """Translation forms of U, N, a- and a0 for Delta > 0."""
    d = p.derived()
    if d.delta <= 0:
        raise ValueError(f"translation forms need Delta > 0, got {d.delta}")
    xm = _x_minus(p.alpha0)
    lin = Poly.of(d.tau, p.alpha)
    even_am = Poly.of((p.alpha0 * d.delta + p.alpha * d.tau) / (2 * d.delta), 2 * p.beta / d.delta)
    inv = 1 / d.delta
    half = Fraction(1, 2)
    return {
        "U": TranslationExpr(d.delta, -half * xm, half * lin, Poly.of(0, half)),
        "N": TranslationExpr(d.delta, -inv * lin, xm, inv * lin),
        "a-": TranslationExpr(d.delta, even_am, Poly.of(p.t), -even_am),
        # a0 = alpha N + alpha0 I
        "a0": TranslationExpr(
            d.delta, -p.alpha * inv * lin, p.alpha * xm, p.alpha * inv * lin + p.alpha0
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
    against the series expansion by applying both to X^m for m <= max_degree
    (a formal polynomial identity, so no truncation is involved).  When
    Delta = 0 the translations collapse and the two-term momentum forms are
    reported instead; Delta < 0 raises ``NotASquare``.
    """
    d = p.derived()
    if d.delta < 0:
        raise NotASquare(f"Delta = {d.delta} is not the square of a rational")
    if d.delta == 0:
        forms: Mapping[str, TranslationExpr] = {}
        limit_forms = {
            name: series_decomposition(p, name, order)
            for name, order in (("U", 1), ("N", 2), ("a0", 2), ("a-", 2))
        }
        actions = {name: limit.apply for name, limit in limit_forms.items()}
    else:
        forms, limit_forms = translation_exprs(p), {}
        actions = {name: expr.apply for name, expr in forms.items()}
    checks = tuple(
        _check_against_series(p, name, actions[name], max_degree)
        for name in ("U", "N", "a0", "a-")
    )
    return TranslationFormReport(
        d.delta, rational_sqrt(d.delta), forms, limit_forms, checks, all(c.passed for c in checks)
    )


def _check_against_series(p: MeixnerParams, name: str, action, max_degree: int) -> VerifyReport:
    series = series_decomposition(p, name, max_degree)
    monomials = (Poly.monomial(m) for m in range(max_degree + 1))
    return sequence_report(
        f"{name} translation form",
        max_degree,
        ((m, action(xm), series.apply(xm)) for m, xm in enumerate(monomials)),
    )


def one_meixner_limit_check(p: MeixnerParams, order: int = 10) -> VerifyReport:
    """At Delta = 0 the U expansion collapses to (alpha0/2) I + (1/2)(alpha X + tau) D.

    Verifies that every Delta-power coefficient beyond D^1 vanishes
    identically and that the two surviving coefficients take that form.
    """
    d = p.derived()
    if d.delta != 0:
        raise InvalidParams(f"limit check requires Delta = 0, got {d.delta}")
    u = series_decomposition(p, "U", order)
    # A_0 and A_1 are checked at every order, and A_n must vanish for n >= 2.
    expected = [Poly.of(p.alpha0 / 2), Fraction(1, 2) * Poly.of(d.tau, p.alpha)]
    expected += [Poly.zero()] * (order - 1)
    return sequence_report(
        "Delta=0 limit of U", order, ((n, u.coeff(n), e) for n, e in enumerate(expected))
    )


@dataclass(frozen=True)
class TranslationCombo:
    """Finite combination sum_i c_i T_{d_i} given by (coefficient, shift) pairs."""

    terms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "terms",
            tuple((Fraction(c), Fraction(s)) for c, s in self.terms),
        )

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

    def apply(self, f: Poly) -> Poly:
        out = Poly.zero()
        for c, s in self.terms:
            out = out + c * f.shift(s)
        return out

    def to_json_dict(self) -> list[dict]:
        return [{"coeff": format_rat(c), "shift": format_rat(s)} for c, s in self.terms]
