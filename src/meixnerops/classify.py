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

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Union

from .exact import Rat, format_rat, powers
from .meixner import MeixnerParams, szego_jacobi
from .operators import VerifyReport
from .orthopoly import MomentSeq, moments_from_sj
from .surd import Quadratic


class Unsupported(ValueError):
    """No exact moment oracle exists for this class or parameter choice."""


@dataclass(frozen=True)
class Gaussian:
    mean: Rat
    variance: Rat

    def to_json_dict(self) -> dict:
        return {
            "class": "Gaussian",
            "mean": format_rat(self.mean),
            "variance": format_rat(self.variance),
        }


@dataclass(frozen=True)
class Poisson:
    """X = scale * Y + shift with Y ~ Poisson(rate)."""

    rate: Rat
    scale: Rat
    shift: Rat

    def to_json_dict(self) -> dict:
        return {
            "class": "Poisson",
            "rate": format_rat(self.rate),
            "scale": format_rat(self.scale),
            "shift": format_rat(self.shift),
        }


@dataclass(frozen=True)
class Pascal:
    """X = scale * Y + shift with Y negative binomial: P(Y=y) = C(y+r-1,y) p^r (1-p)^y."""

    r: Rat
    p: Quadratic
    scale: Quadratic
    shift: Quadratic

    def to_json_dict(self) -> dict:
        return {
            "class": "Pascal",
            "r": format_rat(self.r),
            "p": self.p.to_json(),
            "scale": self.scale.to_json(),
            "shift": self.shift.to_json(),
        }


@dataclass(frozen=True)
class Gamma:
    """X = scale * Y + shift with Y ~ Gamma(shape) of unit scale."""

    shape: Rat
    scale: Rat
    shift: Rat

    def to_json_dict(self) -> dict:
        return {
            "class": "Gamma",
            "shape": format_rat(self.shape),
            "scale": format_rat(self.scale),
            "shift": format_rat(self.shift),
        }


@dataclass(frozen=True)
class HyperbolicSecant:
    """Continuous class with density proportional to a hyperbolic-secant power.

    gamma = sqrt(4*beta - alpha^2), r = 2*sqrt(beta), k = 2t/(r*gamma) and
    tan_theta = alpha/gamma pin the density shape; the normalizer is not
    rational, so no exact moment oracle is offered.
    """

    gamma: Quadratic
    r: Quadratic
    k: Quadratic
    tan_theta: Quadratic

    def to_json_dict(self) -> dict:
        return {
            "class": "HyperbolicSecant",
            "gamma": self.gamma.to_json(),
            "r": self.r.to_json(),
            "k": self.k.to_json(),
            "tan_theta": self.tan_theta.to_json(),
        }


@dataclass(frozen=True)
class BinomialBranch:
    p: Quadratic
    scale: Quadratic
    shift: Quadratic

    def to_json_dict(self) -> dict:
        return {"p": self.p.to_json(), "scale": self.scale.to_json(), "shift": self.shift.to_json()}


@dataclass(frozen=True)
class Binomial:
    """X = scale * Y + shift with Y ~ Binomial(n, p); two equivalent branches.

    The success probability satisfies (1 - 2p)^2 = success_radicand; the two
    solutions, paired with scales of opposite sign, describe the same law.
    """

    n: int
    success_radicand: Rat
    branches: tuple[BinomialBranch, BinomialBranch]

    def to_json_dict(self) -> dict:
        return {
            "class": "Binomial",
            "n": self.n,
            "success_radicand": format_rat(self.success_radicand),
            "branches": [b.to_json_dict() for b in self.branches],
        }


MeixnerClass = Union[Gaussian, Poisson, Pascal, Gamma, HyperbolicSecant, Binomial]


def class_predicates(p: MeixnerParams) -> dict[str, bool]:
    """Six mutually exclusive membership tests; exactly one should hold."""
    d = p.derived()
    return {
        "Gaussian": p.beta == 0 and p.alpha == 0,
        "Poisson": p.beta == 0 and p.alpha > 0,
        "Pascal": p.beta > 0 and d.delta > 0,
        "Gamma": p.beta > 0 and d.delta == 0,
        "HyperbolicSecant": p.beta > 0 and d.delta < 0,
        "Binomial": p.beta < 0,
    }


def classify(p: MeixnerParams) -> MeixnerClass:
    d = p.derived()
    if p.beta < 0:
        n = int(p.t / -p.beta)
        c = -(p.alpha**2) / p.beta
        base = p.alpha0 + Fraction(n) * p.alpha / 2
        plus = BinomialBranch(
            p=Quadratic(Fraction(1, 2), -p.alpha / (2 * d.delta), d.delta),
            scale=Quadratic.sqrt(d.delta),
            shift=Quadratic(base, Fraction(-n, 2), d.delta),
        )
        minus = BinomialBranch(
            p=Quadratic(Fraction(1, 2), p.alpha / (2 * d.delta), d.delta),
            scale=-Quadratic.sqrt(d.delta),
            shift=Quadratic(base, Fraction(n, 2), d.delta),
        )
        return Binomial(n=n, success_radicand=c / (4 + c), branches=(plus, minus))
    if p.beta == 0:
        if p.alpha == 0:
            return Gaussian(mean=p.alpha0, variance=p.t)
        rate = p.t / p.alpha**2
        return Poisson(rate=rate, scale=p.alpha, shift=p.alpha0 - p.alpha * rate)
    if d.delta > 0:
        return Pascal(
            r=p.t / p.beta,
            p=Quadratic(-d.delta / (2 * p.beta), p.alpha / (2 * p.beta), d.delta),
            scale=Quadratic.sqrt(d.delta),
            shift=Quadratic(p.alpha0 - p.t * p.alpha / (2 * p.beta), p.t / (2 * p.beta), d.delta),
        )
    if d.delta == 0:
        return Gamma(shape=p.t / p.beta, scale=p.alpha / 2, shift=p.alpha0 - 2 * p.t / p.alpha)
    minus_delta = 4 * p.beta - p.alpha**2
    k_rad = p.beta * minus_delta
    return HyperbolicSecant(
        gamma=Quadratic.sqrt(minus_delta),
        r=Quadratic.sqrt(4 * p.beta),
        k=Quadratic(0, p.t / k_rad, k_rad),
        tan_theta=Quadratic(0, p.alpha / minus_delta, minus_delta),
    )


def _rising_powers(x: Fraction, m_max: int, ratio: Fraction = Fraction(1)) -> list[Fraction]:
    """x^(rising k) * ratio^k for k = 0 .. m_max, as running products."""
    out = [Fraction(1)]
    for i in range(m_max):
        out.append(out[-1] * (x + i) * ratio)
    return out


def _stirling2(m_max: int) -> list[list[int]]:
    table = [[1] + [0] * m_max]
    for m in range(1, m_max + 1):
        row = [0] * (m_max + 1)
        for k in range(1, m + 1):
            row[k] = k * table[m - 1][k] + table[m - 1][k - 1]
        table.append(row)
    return table


def _affine_moments(raw, scale, shift, m_max: int) -> list:
    """E[(scale*Y + shift)^m] from the raw moments of Y, any exact scalar type.

    The powers of scale and shift are built once, with O(m_max) products.
    """
    scaled = [sp * r for sp, r in zip(powers(scale, m_max), raw)]  # scale^j E[Y^j]
    shifts = powers(shift, m_max)
    out = []
    for m in range(m_max + 1):
        acc = raw[0] * 0
        for j in range(m + 1):
            acc = acc + comb(m, j) * scaled[j] * shifts[m - j]
        out.append(acc)
    return out


def _gaussian_moments(cls: Gaussian, m_max: int) -> MomentSeq:
    central = []
    for m in range(m_max + 1):
        if m % 2 == 1:
            central.append(Fraction(0))
            continue
        odd_product = 1
        for i in range(1, m, 2):
            odd_product *= i
        central.append(cls.variance ** (m // 2) * odd_product)
    return MomentSeq(tuple(_affine_moments(central, Fraction(1), cls.mean, m_max)))


def _poisson_moments(cls: Poisson, m_max: int) -> MomentSeq:
    raw = [Fraction(1)]
    for m in range(m_max):
        raw.append(cls.rate * sum(comb(m, j) * raw[j] for j in range(m + 1)))
    return MomentSeq(tuple(_affine_moments(raw, cls.scale, cls.shift, m_max)))


def _gamma_moments(cls: Gamma, m_max: int) -> MomentSeq:
    raw = _rising_powers(cls.shape, m_max)
    return MomentSeq(tuple(_affine_moments(raw, cls.scale, cls.shift, m_max)))


def _pascal_moments(cls: Pascal, m_max: int) -> MomentSeq:
    if not (cls.scale.is_rational and cls.p.is_rational and cls.shift.is_rational):
        raise Unsupported("pascal moments need a rational scale; the radicand is not a square")
    p_val = cls.p.as_rational()
    factorial_moments = _rising_powers(cls.r, m_max, (1 - p_val) / p_val)
    stirling = _stirling2(m_max)
    raw = [
        sum((stirling[m][k] * factorial_moments[k] for k in range(m + 1)), Fraction(0))
        for m in range(m_max + 1)
    ]
    return MomentSeq(
        tuple(_affine_moments(raw, cls.scale.as_rational(), cls.shift.as_rational(), m_max))
    )


def _binomial_moments(cls: Binomial, m_max: int) -> MomentSeq:
    per_branch = []
    for branch in cls.branches:
        successes = powers(branch.p, cls.n)
        failures = powers(1 - branch.p, cls.n)
        weights = [
            comb(cls.n, y) * successes[y] * failures[cls.n - y] for y in range(cls.n + 1)
        ]
        raw = [
            sum((weights[y] * y**m for y in range(cls.n + 1)), Quadratic.of(0))
            for m in range(m_max + 1)
        ]
        moments = _affine_moments(raw, branch.scale, branch.shift, m_max)
        for m, value in enumerate(moments):
            if not value.is_rational:
                raise ArithmeticError(f"surd part of E[X^{m}] failed to cancel")
        per_branch.append([value.as_rational() for value in moments])
    if per_branch[0] != per_branch[1]:
        raise ArithmeticError("the two binomial branches disagree; they must describe one law")
    return MomentSeq(tuple(per_branch[0]))


def distribution_moments(cls: MeixnerClass, m_max: int) -> MomentSeq:
    """E[X^m] for m <= m_max straight from the classified distribution."""
    if isinstance(cls, Gaussian):
        return _gaussian_moments(cls, m_max)
    if isinstance(cls, Poisson):
        return _poisson_moments(cls, m_max)
    if isinstance(cls, Pascal):
        return _pascal_moments(cls, m_max)
    if isinstance(cls, Gamma):
        return _gamma_moments(cls, m_max)
    if isinstance(cls, Binomial):
        return _binomial_moments(cls, m_max)
    raise Unsupported("no exact moment oracle for the hyperbolic secant class")


def crosscheck(p: MeixnerParams, m_max: int) -> VerifyReport:
    """Recurrence moments against distribution moments, exact equality."""
    cls = classify(p)
    tag = cls.to_json_dict()["class"]
    predicted = distribution_moments(cls, m_max)
    actual = moments_from_sj(szego_jacobi(p), m_max)
    fail: int | None = None
    for m in range(m_max + 1):
        if predicted[m] != actual[m]:
            fail = m
            break
    return VerifyReport(
        name=f"{tag} moments match recurrence moments",
        passed=fail is None,
        max_degree=m_max,
        fail_index=fail,
    )
