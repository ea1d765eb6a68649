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

A combination is validated once: ``ensure_valid`` raises the first broken
rule, and its verdict carries the integer form of the terms, which the
routes and ``bound_cert`` take in place of the combination.  The routes
share only that form; each runs its own recurrence (and the cumulant and
Laplace routes their own power sums), so a fault in one still shows as a
disagreement between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, lcm
from operator import floordiv, mul

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
    """Verdict of a valid combination: its Poisson components and integer form.

    ``scaled`` is the integer form ``(Q, S, ((Q c_i, Z d_i), ...))`` of the
    terms with Z = Q S (see ``_scaled_terms``), which the rules are read on
    and every route computes from; it takes no part in equality.
    """

    poisson_terms: tuple[tuple[Fraction, Fraction], ...]  # (mean, scale) per shift
    scaled: tuple[int, int, tuple[tuple[int, int], ...]] = field(compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "poisson_terms": [
                {"mean": format_rat(lam), "scale": format_rat(d)} for lam, d in self.poisson_terms
            ],
        }


def ensure_valid(combo: TranslationCombo) -> ComboValidity:
    """The verdict of a valid combination; the first broken rule raises its typed error.

    The rules run in order: the sum, the duplicate shifts, then each term
    in turn.  They are read on the integer form: since Q, Z > 0, the c_i sum
    to zero when the Q c_i do, c_i/d_i > 0 when (Q c_i)(Z d_i) > 0, and the
    d_i are distinct when the Z d_i are.
    """
    scaled = q, s, terms = _scaled_terms(combo)
    total = sum(c for c, _ in terms)
    if total:
        raise SumNotZero(f"coefficients sum to {format_rat(Fraction(total, q))}, not 0")
    shifts = [e for _, e in terms]
    if len(set(shifts)) != len(shifts):
        raise DuplicateShift("shifts must be pairwise distinct")
    for (c, d), (qc, zd) in zip(combo.terms, terms):
        if zd and qc * zd <= 0:
            raise NegativeMean(
                f"term {format_rat(c)}:{format_rat(d)} would give a nonpositive Poisson mean"
            )
        if not (zd or qc):
            raise ZeroCoefficient("useless zero term at shift 0")
    # c_i / d_i = S (Q c_i) / (Z d_i)
    means = tuple(
        (Fraction(s * qc, zd), d) for (_, d), (qc, zd) in zip(combo.terms, terms) if zd
    )
    return ComboValidity(means, scaled)


def _scaled_terms(combo: TranslationCombo) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """Integer form of the terms: Q, S and the pairs (Q c_i, Z d_i) with Z = Q S.

    Q and S are the least common denominators of the c_i and of the d_i.
    Every route below computes the integers nu_m = Z^m E[X^m] and returns
    them over the scale Z.
    """
    q = lcm(*(c.denominator for c, _ in combo.terms))
    s = lcm(*(d.denominator for _, d in combo.terms))
    return q, s, tuple(
        (c.numerator * (q // c.denominator), d.numerator * (s // d.denominator) * q)
        for c, d in combo.terms
    )


def _power_sums(valid: ComboValidity, top: int) -> tuple[int, list[int]]:
    """Z and Z^(j+1) sum_i c_i d_i^j = S sum_i (Q c_i) (Z d_i)^j for j = 0 .. top."""
    if top < 0:
        raise ValueError("m_max must be nonnegative")
    q, s, terms = valid.scaled
    sums = [0] * (top + 1)
    for c, e in terms:
        for j, power in enumerate(powers(e, top)):
            sums[j] += s * c * power
    return q * s, sums


def moments_via_recursion(valid: ComboValidity, m_max: int) -> MomentSeq:
    """E[X^m] = sum_i c_i E[(X + d_i)^(m-1)], on nu_m = Z^m E[X^m].

    Term i contributes S (Q c_i) T_i[m-1][0], where T_i[n][k] =
    Z^(n+k) E[X^k (X + d_i)^n] follows Pascal's rule

        T_i[0][k] = nu_k,    T_i[n][k] = T_i[n-1][k+1] + (Z d_i) T_i[n-1][k],

    so each step multiplies a big integer only by the small Z d_i.  A zero
    shift has T[m-1][0] = nu_(m-1) and folds into one coefficient; every
    other shift keeps the antidiagonal n + k = m - 1 of its triangle, which
    ends in T[m-1][0].  Of the verdict only the integer form is read, no
    power sum.
    """
    q, s, terms = valid.scaled
    still = s * sum(c for c, e in terms if not e)
    moving = [(s * c, e) for c, e in terms if e]
    diagonals = [[1] for _ in moving]  # T[0][0] = nu_0
    nu = [1]
    for m in range(1, m_max + 1):
        v = still * nu[-1] + sum(c * diag[-1] for (c, _), diag in zip(moving, diagonals))
        nu.append(v)
        if m < m_max:
            # T[0][m] = nu_m, then T[n][m-n] = T[n-1][m-n+1] + e T[n-1][m-n].
            diagonals = [
                list(accumulate(map(e.__mul__, diag), initial=v))
                for (_, e), diag in zip(moving, diagonals)
            ]
    return MomentSeq(tuple(nu), q * s)


def moments_via_cumulants(valid: ComboValidity, m_max: int) -> MomentSeq:
    """Standard cumulant-to-moment recursion m_n = sum C(n-1,j-1) kappa_j m_{n-j}.

    It runs on nu_m = Z^m E[X^m] and K_j = Z^j kappa_j, which obey the same
    recursion; K_2 .. K_m_max are the power sums through j = m_max - 1.
    """
    z, sums = _power_sums(valid, max(m_max - 1, 0))
    kappas = [0] + sums[1:]  # kappas[j] = K_{j+1}, and K_1 = 0
    nu = [1]
    for m in range(1, m_max + 1):
        nu.append(sum(comb(m - 1, j) * kappas[j] * nu[m - 1 - j] for j in range(m)))
    return MomentSeq(tuple(nu), z)


def laplace_series(valid: ComboValidity, m_max: int) -> MomentSeq:
    """Moments read off the formal series of prod_i exp((c_i/d_i)(e^{d_i s} - d_i s - 1)).

    The product's logarithm has coefficient sum_i c_i d_i^{j-1}/j! at s^j for
    j >= 2, the series is exponentiated formally, and E[X^m] = m! times the
    s^m coefficient.  The defining differential identity
    phi'(s) = phi(s) * sum_i c_i e^{d_i s} is verified to order m_max - 1.

    The series runs on integers: with M = m_max and psi(s) = M! phi(Z s), the
    coefficient psi_m = M! Z^m E[X^m] / m! is an integer, the log series of
    phi(Z s) has coefficients K_j / j! with K_j = S sum_i (Q c_i) (Z d_i)^(j-1),
    and m psi_m = sum_j j (K_j / j!) psi_{m-j} = sum_j K_j (psi_{m-j} / (j-1)!),
    where every division is exact.  Step m reads the quotients psi_k / j! on
    the antidiagonal k + j = m - 1, each one exact division by j from the
    last; the series and the identity check at order m - 1 share them.  The
    identity check is what catches a wrong power sum.
    """
    # source[j] / j! is the s^j coefficient of Z * source(Z s).
    z, source = _power_sums(valid, m_max)
    log_scaled = [0, 0] + source[1:m_max]  # K_j for j = 0 .. m_max; K_1 = 0
    psi = [factorial(m_max)]
    quotients: list[int] = []  # quotients[k] = psi_k / (m - 1 - k)! at step m
    for m in range(1, m_max + 1):
        quotients = list(map(floordiv, quotients, range(m - 1, 0, -1)))
        quotients.append(psi[-1])
        # sum over j = 2 .. m of K_j psi_{m-j} / (j-1)!, with k = m - j
        psi.append(sum(map(mul, log_scaled[m:1:-1], quotients)) // m)
        if m * psi[m] != sum(map(mul, source[m - 1 :: -1], quotients)):
            raise ArithmeticError(
                f"formal transform identity failed at order {m - 1}; series is inconsistent"
            )
    # nu_m = psi_m / (M! / m!)
    nu, falling = [0] * (m_max + 1), 1
    for m in range(m_max, -1, -1):
        nu[m] = psi[m] // falling
        falling *= m
    return MomentSeq(tuple(nu), z)


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
    """max over integer p >= 0 of r^p / p!, for r = u / v >= 0.

    Term p is r/p times term p - 1, so the terms grow up to p = floor(r)
    (where an integer r ties with p = r - 1) and fall after it: the maximum
    is u^p / (v^p p!) at p = u // v, one power and one factorial on integers.
    """
    u, v = r.numerator, r.denominator
    if u < 0:
        raise ValueError("expected a nonnegative value")
    p = u // v
    return Fraction(u**p, v**p * factorial(p))


def bound_cert(valid: ComboValidity, mu: MomentSeq) -> BoundCert:
    """Exact factorial growth certificate for the recursion moments ``mu``.

    ``mu`` is ``moments_via_recursion(valid, m_max)``.  A = max(1, max_i
    max_p |d_i|^p/p!) and k = max(A sum_i |c_i|, 1) give |E[X^m]| <= k^m m!
    for m <= m_max, and the even moments also satisfy
    E[X^{2m}] <= (2k)^{2m} (2m)!.  A is taken over the verdict's nonzero
    shifts (a zero shift gives 1), each term on integers (see
    ``_max_power_over_factorial``), and sum_i |c_i| is read off the
    integers Q c_i.

    Both are checked on integers: with E[X^m] = nu_m / z^m and k = p / q,
    |E[X^m]| <= k^m m! is |nu_m| q^m <= (z p)^m m!.
    """
    big_q, _, terms = valid.scaled
    m_max = len(mu) - 1
    a_const = max(
        [Fraction(1), *(_max_power_over_factorial(abs(d)) for _, d in valid.poisson_terms)]
    )
    k = max(a_const * Fraction(sum(abs(c) for c, _ in terms), big_q), Fraction(1))
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
