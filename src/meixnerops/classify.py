"""Six-way classification of Meixner systems with exact moment crosschecks.

The sign data (beta versus 0, and delta = alpha^2 - 4*beta versus 0 when
beta > 0) splits the family into six distribution classes:

    beta = 0, alpha  = 0   Gaussian
    beta = 0, alpha  > 0   scaled shifted Poisson
    beta > 0, delta  > 0   scaled shifted Pascal (negative binomial)
    beta > 0, delta  = 0   shifted Gamma
    beta > 0, delta  < 0   hyperbolic secant type (continuous, no exact oracle)
    beta < 0               scaled shifted Binomial on a finite support

`classify` returns a dataclass carrying the exact distribution parameters,
with square roots kept as `Quadratic` surds.  `distribution_moments` computes
E[X^m] from the classified parameters through textbook moment formulas, and
`crosscheck` compares those against the moments generated by the recurrence
coefficients themselves.  The two routes share no code, so agreement is a
real consistency check, not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Union

from .exact import format_rat
from .meixner import MeixnerParams, szego_jacobi
from .operators import VerifyReport, sequence_report
from .orthopoly import MomentSeq, moments_from_sj
from .surd import Quadratic


class Unsupported(ValueError):
    """No exact moment oracle exists for this class or parameter choice."""


def _json_fields(law) -> dict:
    """Each field in declaration order: a rational by ``format_rat``, a surd by
    ``to_json``, the branches of a Binomial law as field dicts, ``n`` as is."""
    out = {}
    for f in fields(law):
        value = getattr(law, f.name)
        if isinstance(value, Fraction):
            value = format_rat(value)
        elif isinstance(value, Quadratic):
            value = value.to_json()
        elif isinstance(value, tuple):
            value = [_json_fields(branch) for branch in value]
        out[f.name] = value
    return out


class _Law:
    def to_json_dict(self) -> dict:
        return {"class": type(self).__name__, **_json_fields(self)}


@dataclass(frozen=True)
class Gaussian(_Law):
    mean: Fraction
    variance: Fraction


@dataclass(frozen=True)
class Poisson(_Law):
    """X = scale * Y + shift with Y ~ Poisson(rate)."""

    rate: Fraction
    scale: Fraction
    shift: Fraction


@dataclass(frozen=True)
class Pascal(_Law):
    """X = scale * Y + shift with Y negative binomial: P(Y=y) = C(y+r-1,y) p^r (1-p)^y."""

    r: Fraction
    p: Quadratic
    scale: Quadratic
    shift: Quadratic


@dataclass(frozen=True)
class Gamma(_Law):
    """X = scale * Y + shift with Y ~ Gamma(shape) of unit scale."""

    shape: Fraction
    scale: Fraction
    shift: Fraction


@dataclass(frozen=True)
class HyperbolicSecant(_Law):
    """Continuous class with density proportional to a hyperbolic-secant power.

    gamma = sqrt(4*beta - alpha^2), r = 2*sqrt(beta), k = 2t/(r*gamma) and
    tan_theta = alpha/gamma pin the density shape; the normalizer is not
    rational, so no exact moment oracle is offered.
    """

    gamma: Quadratic
    r: Quadratic
    k: Quadratic
    tan_theta: Quadratic


@dataclass(frozen=True)
class BinomialBranch:
    p: Quadratic
    scale: Quadratic
    shift: Quadratic


@dataclass(frozen=True)
class Binomial(_Law):
    """X = scale * Y + shift with Y ~ Binomial(n, p); two equivalent branches.

    The success probability satisfies (1 - 2p)^2 = success_radicand; the two
    solutions, paired with scales of opposite sign, describe the same law.
    """

    n: int
    success_radicand: Fraction
    branches: tuple[BinomialBranch, BinomialBranch]


MeixnerClass = Union[Gaussian, Poisson, Pascal, Gamma, HyperbolicSecant, Binomial]


def class_predicates(p: MeixnerParams) -> dict[str, bool]:
    """Six mutually exclusive membership tests; exactly one should hold."""
    return {
        "Gaussian": p.beta == 0 and p.alpha == 0,
        "Poisson": p.beta == 0 and p.alpha > 0,
        "Pascal": p.beta > 0 and p.delta > 0,
        "Gamma": p.beta > 0 and p.delta == 0,
        "HyperbolicSecant": p.beta > 0 and p.delta < 0,
        "Binomial": p.beta < 0,
    }


def classify(p: MeixnerParams) -> MeixnerClass:
    if p.beta < 0:
        n = p.support_bound - 1
        c = -(p.alpha**2) / p.beta
        base = p.alpha0 + Fraction(n) * p.alpha / 2
        plus = BinomialBranch(
            p=Quadratic(Fraction(1, 2), -p.alpha / (2 * p.delta), p.delta),
            scale=Quadratic.sqrt(p.delta),
            shift=Quadratic(base, Fraction(-n, 2), p.delta),
        )
        minus = BinomialBranch(
            p=Quadratic(Fraction(1, 2), p.alpha / (2 * p.delta), p.delta),
            scale=-Quadratic.sqrt(p.delta),
            shift=Quadratic(base, Fraction(n, 2), p.delta),
        )
        return Binomial(n=n, success_radicand=c / (4 + c), branches=(plus, minus))
    if p.beta == 0:
        if p.alpha == 0:
            return Gaussian(mean=p.alpha0, variance=p.t)
        rate = p.t / p.alpha**2
        return Poisson(rate=rate, scale=p.alpha, shift=p.alpha0 - p.alpha * rate)
    if p.delta > 0:
        return Pascal(
            r=p.t / p.beta,
            p=Quadratic(-p.delta / (2 * p.beta), p.alpha / (2 * p.beta), p.delta),
            scale=Quadratic.sqrt(p.delta),
            shift=Quadratic(p.alpha0 - p.t * p.alpha / (2 * p.beta), p.t / (2 * p.beta), p.delta),
        )
    if p.delta == 0:
        return Gamma(shape=p.t / p.beta, scale=p.alpha / 2, shift=p.alpha0 - 2 * p.t / p.alpha)
    minus_delta = 4 * p.beta - p.alpha**2
    k_rad = p.beta * minus_delta
    return HyperbolicSecant(
        gamma=Quadratic.sqrt(minus_delta),
        r=Quadratic.sqrt(4 * p.beta),
        k=Quadratic(0, p.t / k_rad, k_rad),
        tan_theta=Quadratic(0, p.alpha / minus_delta, minus_delta),
    )


def _mul(x: tuple[int, int], y: tuple[int, int], r: int) -> tuple[int, int]:
    """(x0 + x1*sqrt(r)) * (y0 + y1*sqrt(r)) on integer pairs."""
    return x[0] * y[0] + r * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _products(factors: list[tuple[int, int]], r: int) -> list[tuple[int, int]]:
    """Running products [1, f_0, f_0 f_1, ...] of integer pairs in Z[sqrt(r)]."""
    out = [(1, 0)]
    for f in factors:
        out.append(_mul(out[-1], f, r))
    return out


def _from_factorial(factorial: list[tuple[int, int]], q: int, m_max: int) -> list[tuple[int, int]]:
    """Numerators over q^j of E[Y^j], where factorial[k] / q^k is F_k = E[Y^(falling k)].

    U[j][k] = q^(j+k) E[Y^j Y^(falling k)] follows from
    Y Y^(falling k) = Y^(falling k+1) + k Y^(falling k):

        U[0][k] = factorial[k],    U[j][k] = U[j-1][k+1] + k q U[j-1][k],

    so each step multiplies a big pair only by the small k q, and U[j][0] is
    the numerator of E[Y^j].  This is the Stirling transform
    E[Y^j] = sum_k S(j, k) F_k without tabulating S(j, k).
    """
    steps = [k * q for k in range(m_max + 1)]
    a, b = [x for x, _ in factorial], [y for _, y in factorial]
    out = []
    for _ in range(m_max + 1):
        out.append((a[0], b[0]))
        a = [x1 + c * x0 for c, x0, x1 in zip(steps, a, a[1:])]
        b = [y1 + c * y0 for c, y0, y1 in zip(steps, b, b[1:])]
    return out


def _affine_moments(raw, q: int, scale: Quadratic, shift: Quadratic, m_max: int) -> MomentSeq:
    """E[(scale*Y + shift)^m] for m <= m_max; ``raw[j]`` is the numerator of E[Y^j] over q^j.

    raw is a list of integer pairs in Z[sqrt(R)], and scale and shift lie in
    Q(sqrt(R)); R is read from whichever of them is irrational.  With
    scale = S / sd, shift = H / hd and D = sd * q * hd, Z = D * scale * Y has
    the integer moments E[Z^j] = (S hd)^j raw[j], and T[n][k] = E[Z^k (Z + h)^n]
    with h = D * shift = H sd q follows Pascal's rule

        T[n][k] = T[n-1][k+1] + h T[n-1][k],

    each step a big pair times the small pair h.  T[m][0] = D^m E[X^m] is
    kept over the scale D once its surd part is checked to vanish.
    """
    r = scale.int_radicand or shift.int_radicand
    sa, sb, sd = scale.num, scale.root, scale.den
    ha, hb, hd = shift.num, shift.root, shift.den
    left = [_mul(x, y, r) for x, y in zip(_products([(sa * hd, sb * hd)] * m_max, r), raw)]
    a, b = [x for x, _ in left], [y for _, y in left]  # row n of the triangle
    ha, hb = ha * sd * q, hb * sd * q
    rhb = r * hb
    out = []
    for m in range(m_max + 1):
        if b[0]:
            raise ArithmeticError(f"surd part of E[X^{m}] failed to cancel")
        out.append(a[0])
        a, b = (
            [a1 + ha * a0 + rhb * b0 for a0, a1, b0 in zip(a, a[1:], b)],
            [b1 + ha * b0 + hb * a0 for a0, b0, b1 in zip(a, b, b[1:])],
        )
    return MomentSeq(tuple(out), sd * q * hd)


def _binomial_branch_moments(n: int, branch: BinomialBranch, m_max: int) -> MomentSeq:
    p = branch.p
    # F_k = n^(falling k) p^k; the factor n - k is 0 once k > n.
    falling = [((n - k) * p.num, (n - k) * p.root) for k in range(m_max)]
    raw = _from_factorial(_products(falling, p.int_radicand), p.den, m_max)
    return _affine_moments(raw, p.den, branch.scale, branch.shift, m_max)


def distribution_moments(cls: MeixnerClass, m_max: int) -> MomentSeq:
    """E[X^m] for m <= m_max straight from the classified distribution.

    Each supported law is X = scale * Y + shift.  The raw moments of Y come
    from the factorial moments F_k = E[Y^(falling k)] for the discrete laws
    (Poisson lambda^k, Binomial n^(falling k) p^k, Pascal
    r^(rising k) ((1-p)/p)^k), from shape^(rising j) for the Gamma law and
    from the central moments for the Gaussian, all as integers over q^j.
    """
    if isinstance(cls, Binomial):
        per_branch = [_binomial_branch_moments(cls.n, b, m_max) for b in cls.branches]
        if per_branch[0] != per_branch[1]:
            raise ArithmeticError("the two binomial branches disagree; they must describe one law")
        return per_branch[0]
    if isinstance(cls, Gaussian):
        vn, vd = cls.variance.numerator, cls.variance.denominator
        even = _products([((2 * i + 1) * vn * vd, 0) for i in range(m_max // 2)], 0)
        raw = [(0, 0) if j % 2 else even[j // 2] for j in range(m_max + 1)]
        return _affine_moments(raw, vd, Quadratic(1), Quadratic(cls.mean), m_max)
    if isinstance(cls, Poisson):
        ln, q = cls.rate.numerator, cls.rate.denominator
        raw = _from_factorial(_products([(ln, 0)] * m_max, 0), q, m_max)
    elif isinstance(cls, Gamma):
        sn, q = cls.shape.numerator, cls.shape.denominator
        raw = _products([(sn + i * q, 0) for i in range(m_max)], 0)
    elif isinstance(cls, Pascal):
        if not (cls.scale.is_rational and cls.p.is_rational and cls.shift.is_rational):
            raise Unsupported("pascal moments need a rational scale; the radicand is not a square")
        rn, rd = cls.r.numerator, cls.r.denominator
        ratio = (1 - cls.p.as_rational()) / cls.p.as_rational()
        q = rd * ratio.denominator
        rising = [((rn + i * rd) * ratio.numerator, 0) for i in range(m_max)]
        raw = _from_factorial(_products(rising, 0), q, m_max)
        return _affine_moments(raw, q, cls.scale, cls.shift, m_max)
    else:
        raise Unsupported("no exact moment oracle for the hyperbolic secant class")
    return _affine_moments(raw, q, Quadratic(cls.scale), Quadratic(cls.shift), m_max)


def crosscheck(p: MeixnerParams, cls: MeixnerClass, m_max: int) -> VerifyReport:
    """Recurrence moments of ``p`` against the moments of its law ``cls``, exactly."""
    predicted = distribution_moments(cls, m_max)
    actual = moments_from_sj(szego_jacobi(p), m_max)
    return sequence_report(
        f"{type(cls).__name__} moments match recurrence moments", m_max, predicted.cross(actual)
    )
