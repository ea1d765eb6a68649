"""Which translation combinations can serve as a lowering operator.

A finite combination a = sum_i c_i T_{d_i} (T_d f(X) = f(X + d)) acts as the
lowering operator of a centered random variable X exactly when the
coefficients sum to zero, the shifts are pairwise distinct, and c_i/d_i > 0
for every nonzero shift (at most one zero shift may appear, with a free
coefficient).  The moments of X are then pinned down by

    E[X^m] = sum_i c_i E[(X + d_i)^{m-1}],   E[X^0] = 1,

and X is distributed as sum_i d_i Y_i over the nonzero shifts with
independent Y_i ~ Poisson(c_i/d_i).  Three independent routes to the moments
are provided (the recursion above, classical cumulants, and a formal Laplace
transform), plus an exact factorial growth certificate |E[X^m]| <= k^m m!.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm

from .exact import format_rat, powers
from .meixner import InvalidParams, MeixnerParams, TranslationCombo, translation_exprs
from .orthopoly import MomentSeq


class InvalidCombo(ValueError):
    """Combination cannot be a lowering operator."""


class SumNotZero(InvalidCombo):
    pass


class NegativeMean(InvalidCombo):
    pass


class DuplicateShift(InvalidCombo):
    pass


class ZeroCoefficient(InvalidCombo):
    pass


@dataclass(frozen=True)
class ComboValidity:
    """Validation verdict with the implied Poisson components when valid."""

    ok: bool
    violations: tuple[tuple[type[InvalidCombo], str], ...]  # (error class, message)
    poisson_terms: tuple[tuple[Fraction, Fraction], ...]  # (mean, scale) per shift

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [message for _, message in self.violations],
            "poisson_terms": [
                {"mean": format_rat(lam), "scale": format_rat(d)} for lam, d in self.poisson_terms
            ],
        }


def validate_combo(combo: TranslationCombo) -> ComboValidity:
    """Every violated rule with its error class, most important first."""
    violations: list[tuple[type[InvalidCombo], str]] = []
    total = sum((c for c, _ in combo.terms), Fraction(0))
    if total != 0:
        violations.append((SumNotZero, f"coefficients sum to {format_rat(total)}, not 0"))
    shifts = [d for _, d in combo.terms]
    if len(set(shifts)) != len(shifts):
        violations.append((DuplicateShift, "shifts must be pairwise distinct"))
    for c, d in combo.terms:
        if d != 0:
            if c / d <= 0:
                violations.append((
                    NegativeMean,
                    f"term {format_rat(c)}:{format_rat(d)} would give a nonpositive Poisson mean",
                ))
        elif c == 0:
            violations.append((ZeroCoefficient, "useless zero term at shift 0"))
    if violations:
        return ComboValidity(False, tuple(violations), ())
    return ComboValidity(True, (), tuple((c / d, d) for c, d in combo.terms if d != 0))


def ensure_valid(combo: TranslationCombo) -> ComboValidity:
    """Validate and raise the first violation as its typed error."""
    verdict = validate_combo(combo)
    if verdict.violations:
        error, message = verdict.violations[0]
        raise error(message)
    return verdict


def _scaled_terms(combo: TranslationCombo) -> tuple[int, int, list[tuple[int, int]]]:
    """Integer form of the terms: Q, S and the pairs (Q c_i, Z d_i) with Z = Q S.

    Q and S are the least common denominators of the c_i and of the d_i.
    Every route below computes the integers nu_m = Z^m E[X^m] and returns
    them over the scale Z.
    """
    q = lcm(*(c.denominator for c, _ in combo.terms))
    s = lcm(*(d.denominator for _, d in combo.terms))
    return q, s, [
        (c.numerator * (q // c.denominator), d.numerator * (s // d.denominator) * q)
        for c, d in combo.terms
    ]


def _power_sums(combo: TranslationCombo, top: int) -> tuple[int, list[int]]:
    """Z and Z^(j+1) sum_i c_i d_i^j = S sum_i (Q c_i) (Z d_i)^j for j = 0 .. top."""
    if top < 0:
        raise ValueError("m_max must be nonnegative")
    q, s, terms = _scaled_terms(combo)
    sums = [0] * (top + 1)
    for c, e in terms:
        for j, power in enumerate(powers(e, top)):
            sums[j] += s * c * power
    return q * s, sums


def moments_via_recursion(combo: TranslationCombo, m_max: int) -> MomentSeq:
    """E[X^m] = sum_i c_i sum_{j<m} C(m-1,j) d_i^{m-1-j} E[X^j].

    On integers: nu_m = S sum_i (Q c_i) sum_{j<m} C(m-1,j) (Z d_i)^{m-1-j} nu_j.
    """
    ensure_valid(combo)
    q, s, terms = _scaled_terms(combo)
    # Each term's powers, highest first, so a slice lines up with nu_0 .. nu_{m-1}.
    falling = [(c, powers(e, m_max)[::-1]) for c, e in terms]
    nu = [1]
    for m in range(1, m_max + 1):
        weighted = [comb(m - 1, j) * v for j, v in enumerate(nu)]
        total = 0
        for c, pw in falling:
            total += c * sum(w * p for w, p in zip(weighted, pw[m_max - m + 1 :]))
        nu.append(s * total)
    return MomentSeq(tuple(nu), q * s)


def moments_via_cumulants(combo: TranslationCombo, m_max: int) -> MomentSeq:
    """Standard cumulant-to-moment recursion m_n = sum C(n-1,j-1) kappa_j m_{n-j}.

    It runs on nu_m = Z^m E[X^m] and K_j = Z^j kappa_j, which obey the same
    recursion.
    """
    ensure_valid(combo)
    z, sums = _power_sums(combo, max(m_max - 1, 0))
    kappas = [0] + sums[1:]  # kappas[j] = K_{j+1}, and K_1 = 0
    nu = [1]
    for m in range(1, m_max + 1):
        nu.append(sum(comb(m - 1, j) * kappas[j] * nu[m - 1 - j] for j in range(m)))
    return MomentSeq(tuple(nu), z)


def laplace_series(combo: TranslationCombo, m_max: int) -> MomentSeq:
    """Moments read off the formal series of prod_i exp((c_i/d_i)(e^{d_i s} - d_i s - 1)).

    The product's logarithm has coefficient sum_i c_i d_i^{j-1}/j! at s^j for
    j >= 2, the series is exponentiated formally, and E[X^m] = m! times the
    s^m coefficient.  The defining differential identity
    phi'(s) = phi(s) * sum_i c_i e^{d_i s} is verified to order m_max - 1.

    The series runs on integers: with M = m_max and psi(s) = M! phi(Z s), the
    coefficient psi_m = M! Z^m E[X^m] / m! is an integer, the log series of
    phi(Z s) has coefficients K_j / j! with K_j = S sum_i (Q c_i) (Z d_i)^(j-1),
    and m psi_m = sum_j j (K_j / j!) psi_{m-j} = sum_j K_j (psi_{m-j} / (j-1)!),
    where every division is exact.
    """
    ensure_valid(combo)
    # source[j] / j! is the s^j coefficient of Z * source(Z s).
    z, source = _power_sums(combo, m_max)
    log_scaled = [0, 0] + source[1:m_max]  # K_j for j = 0 .. m_max; K_1 = 0
    facts = [factorial(j) for j in range(m_max + 1)]
    psi = [facts[m_max]]
    for m in range(1, m_max + 1):
        acc = sum(log_scaled[j] * (psi[m - j] // facts[j - 1]) for j in range(2, m + 1))
        psi.append(acc // m)
    for m in range(m_max):
        derivative_coeff = (m + 1) * psi[m + 1]
        product_coeff = sum(source[j] * (psi[m - j] // facts[j]) for j in range(m + 1))
        if derivative_coeff != product_coeff:
            raise ArithmeticError(
                f"formal transform identity failed at order {m}; series is inconsistent"
            )
    return MomentSeq(tuple(v * facts[m] // facts[m_max] for m, v in enumerate(psi)), z)


@dataclass(frozen=True)
class BoundCert:
    """Certificate |E[X^m]| <= k^m m! checked exactly through checked_up_to."""

    a_const: Fraction
    k: Fraction
    checked_up_to: int
    passed: bool
    even_passed: bool

    def to_json_dict(self) -> dict:
        return {
            "A": format_rat(self.a_const),
            "k": format_rat(self.k),
            "checked_up_to": self.checked_up_to,
            "pass": self.passed,
            "even_pass": self.even_passed,
        }


def _max_power_over_factorial(r: Fraction) -> Fraction:
    """max over integer p >= 0 of r^p / p!, attained at p near r."""
    if r < 0:
        raise ValueError("expected a nonnegative value")
    ceiling = -((-r.numerator) // r.denominator)
    best = Fraction(1)
    for p in range(ceiling + 2):
        value = r**p / factorial(p)
        if value > best:
            best = value
    return best


def bound_cert(combo: TranslationCombo, mu: MomentSeq) -> BoundCert:
    """Exact factorial growth certificate for the recursion moments ``mu``.

    ``mu`` is ``moments_via_recursion(combo, m_max)``.  A = max(1, max_i
    max_p |d_i|^p/p!) and k = max(A sum_i |c_i|, 1) give |E[X^m]| <= k^m m!
    for m <= m_max, and the even moments also satisfy
    E[X^{2m}] <= (2k)^{2m} (2m)!.

    Both are checked on integers: with E[X^m] = nu_m / z^m and k = p / q,
    |E[X^m]| <= k^m m! is |nu_m| q^m <= (z p)^m m!.
    """
    ensure_valid(combo)
    m_max = len(mu) - 1
    a_const = Fraction(1)
    for _, d in combo.terms:
        a_const = max(a_const, _max_power_over_factorial(abs(d)))
    k = max(a_const * sum((abs(c) for c, _ in combo.terms), Fraction(0)), Fraction(1))
    lefts = powers(k.denominator, m_max)  # q^m
    bounds = [1]  # (z p)^m m!
    for m in range(1, m_max + 1):
        bounds.append(bounds[-1] * mu.scale * k.numerator * m)
    nums = mu.nums
    passed = all(abs(v) * left <= bound for v, left, bound in zip(nums, lefts, bounds))
    # (2k)^{2m} (2m)! = 4^m k^{2m} (2m)!
    even_passed = all(
        nums[2 * m] * lefts[2 * m] <= 4**m * bounds[2 * m] for m in range(m_max // 2 + 1)
    )
    return BoundCert(a_const, k, m_max, passed, even_passed)


def beta0_combo(p: MeixnerParams) -> TranslationCombo:
    """Expand the lowering operator of a beta = 0 system into translations.

    With beta = 0, delta = alpha and the translation form of a- has constant
    coefficients on T_alpha, T_{-alpha} and I; its zero terms are already
    dropped and the remainder must sum to zero.
    """
    if p.beta != 0:
        raise InvalidParams(f"requires beta = 0, got beta = {p.beta}")
    if p.alpha <= 0:
        raise InvalidParams(f"requires alpha > 0, got alpha = {p.alpha}")
    lowering = translation_exprs(p)["a-"]
    combo = TranslationCombo(
        tuple((c.as_rational(), shift.as_rational()) for (c,), shift in lowering.terms)
    )
    total = sum((c for c, _ in combo.terms), Fraction(0))
    if total != 0:
        raise ArithmeticError(f"expansion lost mass: coefficients sum to {total}")
    return combo
