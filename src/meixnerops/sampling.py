"""Seeded random draws of valid parameters and translation combinations.

Draws are rationals with small denominators inside alpha in [0, 3],
alpha0 in [-2, 2], beta in [-2, 2], t in (0, 3].  Each draw first picks one
of the six distribution classes so that every class appears with nontrivial
probability; a uniform box sample would almost never land on the
codimension-one Gamma locus or produce a valid finite-support system, since
beta < 0 requires t to be an integer multiple of -beta (the draw snaps t
accordingly).
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .meixner import MeixnerParams, TranslationCombo

KINDS = ("Gaussian", "Poisson", "Pascal", "Gamma", "HyperbolicSecant", "Binomial")


def sample_rat(
    rng: Random,
    lo: Fraction | int,
    hi: Fraction | int,
    max_den: int = 6,
    strict_lo: bool = False,
) -> Fraction:
    """Uniform-ish rational in [lo, hi] (or (lo, hi]) for int or Fraction bounds.

    Its denominator is drawn from 1 .. max_den, then raised with no further draw
    while the interval holds no multiple of 1/den.  An empty one is a ValueError.
    """
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    if hi < lo or strict_lo and hi == lo:
        raise ValueError(f"no rational in {'(' if strict_lo else '['}{lo}, {hi}]")
    den = rng.randint(1, max_den)
    while True:
        lo_num = ln * den // ld + 1 if strict_lo else -(-ln * den // ld)
        hi_num = hn * den // hd
        if lo_num <= hi_num:
            return Fraction(rng.randint(lo_num, hi_num), den)
        den += 1


def sample_params(rng: Random, min_dim: int = 1, kind: str | None = None) -> MeixnerParams:
    """One valid parameter set; `min_dim` forces at least that many support points.

    Only the Binomial kind has finite support, so min_dim constrains just the
    snapped beta < 0 draws; the other kinds always satisfy it.
    """
    if kind is None:
        kind = rng.choice(KINDS)
    alpha0 = sample_rat(rng, -2, 2)
    if kind == "Gaussian":
        return MeixnerParams(0, alpha0, 0, sample_rat(rng, 0, 3, strict_lo=True))
    if kind == "Poisson":
        alpha = sample_rat(rng, 0, 3, strict_lo=True)
        return MeixnerParams(alpha, alpha0, 0, sample_rat(rng, 0, 3, strict_lo=True))
    if kind == "Pascal":
        alpha = sample_rat(rng, 0, Fraction(14, 5), strict_lo=True)
        if rng.random() < 0.5:
            # beta = alpha^2 (1 - (k/5)^2) / 4: k < 5 keeps delta = (k alpha/5)^2 a rational square
            k = rng.randint(1, 4)
            beta = Fraction(alpha.numerator**2 * (25 - k * k), 100 * alpha.denominator**2)
        else:
            q = sample_rat(rng, 0, 1, strict_lo=True)
            if q == 1:
                q = Fraction(1, 2)
            beta = alpha**2 * q / 4
        return MeixnerParams(alpha, alpha0, beta, sample_rat(rng, 0, 3, strict_lo=True))
    if kind == "Gamma":
        alpha = sample_rat(rng, 0, Fraction(14, 5), strict_lo=True)
        return MeixnerParams(alpha, alpha0, alpha**2 / 4, sample_rat(rng, 0, 3, strict_lo=True))
    if kind == "HyperbolicSecant":
        alpha = sample_rat(rng, 0, 2)
        beta = sample_rat(rng, alpha**2 / 4, 2, max_den=8, strict_lo=True)
        return MeixnerParams(alpha, alpha0, beta, sample_rat(rng, 0, 3, strict_lo=True))
    if kind == "Binomial":
        n = rng.randint(max(min_dim - 1, 1), max(min_dim - 1, 1) + 8)
        t = sample_rat(rng, 0, min(3, 2 * n), strict_lo=True)
        alpha = sample_rat(rng, 0, 3)
        return MeixnerParams(alpha, alpha0, Fraction(-t.numerator, t.denominator * n), t)
    raise ValueError(f"unknown kind {kind!r}")


def sample_params_delta0(rng: Random) -> MeixnerParams:
    """Valid parameters on the alpha^2 = 4*beta locus (Gaussian or Gamma kind)."""
    alpha = sample_rat(rng, 0, Fraction(14, 5))
    return MeixnerParams(
        alpha,
        sample_rat(rng, -2, 2),
        alpha**2 / 4,
        sample_rat(rng, 0, 3, strict_lo=True),
    )


def sample_combo(rng: Random, max_terms: int = 3) -> TranslationCombo:
    """Valid translation combination: Poisson rates on distinct nonzero shifts.

    Each term is c_i = rate_i * d_i with rate_i > 0, plus a zero-shift
    balancer that brings the coefficient total to zero.
    """
    count = rng.randint(1, max_terms)
    shifts: list[Fraction] = []
    while len(shifts) < count:
        d = sample_rat(rng, -3, 3, max_den=4)
        if d != 0 and d not in shifts:
            shifts.append(d)
    terms = []
    for d in shifts:
        rate = sample_rat(rng, 0, 3, max_den=4, strict_lo=True)
        terms.append((rate * d, d))
    balance = -sum(c for c, _ in terms)
    if balance != 0 or not terms:
        terms.append((balance, Fraction(0)))
    return TranslationCombo(tuple(terms))
