"""Monic orthogonal polynomials, moments, and recurrence recovery.

Conventions.  A three-term recurrence system is a pair of coefficient
sequences (alpha_n for n >= 0, omega_n for n >= 1) defining monic
polynomials

    f_0 = 1,    X f_n = f_{n+1} + alpha_n f_n + omega_n f_{n-1},

so f_{n+1} = (X - alpha_n) f_n - omega_n f_{n-1}.  When some omega_{n0}
vanishes the underlying measure is supported on exactly n0 points and the
span of f_0 .. f_{n0-1} is the whole function space; n0 is recorded as
``support_bound``.

Moments are taken against the normalized functional with E[f_0] = 1 and
E[f_n] = 0 for n >= 1, equivalently E[X^m] is the (0, 0) entry of the m-th
power of the truncated recurrence (Jacobi) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Sequence

from .exact import Poly, RatLike, format_rat, parse_rat


class TruncationBeyondSupport(ValueError):
    """Requested truncation reaches past a finite-support system's dimension."""


class DegenerateMoments(ValueError):
    """Moment sequence is not positive semidefinite (no measure realizes it)."""


@dataclass(frozen=True)
class SzegoJacobi:
    """Recurrence coefficients alpha_n (n >= 0) and omega_n (n >= 1)."""

    alpha: Callable[[int], Fraction]
    omega: Callable[[int], Fraction]
    support_bound: int | None = None

    @staticmethod
    def from_lists(
        alphas: Sequence[RatLike],
        omegas: Sequence[RatLike],
        support_bound: int | None = None,
    ) -> "SzegoJacobi":
        """Wrap finite coefficient lists; omegas[i] holds omega_{i+1}."""
        alpha_vals = tuple(Fraction(a) for a in alphas)
        omega_vals = tuple(Fraction(w) for w in omegas)

        def alpha(n: int) -> Fraction:
            return alpha_vals[n]

        def omega(n: int) -> Fraction:
            return omega_vals[n - 1]

        return SzegoJacobi(alpha, omega, support_bound)


def monic_polys(sj: SzegoJacobi, n_max: int) -> list[Poly]:
    """The monic polynomials f_0 .. f_{n_max} from the recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    bound = sj.support_bound
    if bound is not None and n_max >= bound:
        raise TruncationBeyondSupport(
            f"requested degree {n_max} but the system is {bound}-dimensional"
        )
    polys = [Poly.one()]
    prev = Poly.zero()
    x = Poly.of(0, 1)
    for n in range(n_max):
        nxt = (x - sj.alpha(n)) * polys[n] - sj.omega(n) * prev
        prev = polys[n]
        polys.append(nxt)
    return polys


@dataclass(frozen=True)
class MomentSeq:
    """Raw moments E[X^m] for m = 0 .. len-1, with E[X^0] = 1."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = tuple(Fraction(v) for v in self.values)
        if not vals or vals[0] != 1:
            raise ValueError("moment sequence must start with E[X^0] = 1")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, m: int) -> Fraction:
        return self.values[m]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def to_json(self) -> list[str]:
        return [format_rat(v) for v in self.values]

    @staticmethod
    def from_json(data: Iterable[str]) -> "MomentSeq":
        return MomentSeq(tuple(parse_rat(s) for s in data))


def moments_from_sj(sj: SzegoJacobi, m_max: int) -> MomentSeq:
    """Moments E[X^0] .. E[X^m_max] via powers of the recurrence matrix.

    The iteration tracks the expansion of X^m * 1 in the f-basis; for a
    finite-support system the state is capped at the support dimension,
    which is exact because f_{n0} vanishes almost surely.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    size = m_max + 1
    bound = sj.support_bound
    if bound is not None:
        size = min(size, bound)
    state = [Fraction(0)] * size
    state[0] = Fraction(1)
    out = [Fraction(1)]
    for _ in range(m_max):
        nxt = [Fraction(0)] * size
        for n, v in enumerate(state):
            if v == 0:
                continue
            nxt[n] += sj.alpha(n) * v
            if n + 1 < size:
                nxt[n + 1] += v
            if n >= 1:
                nxt[n - 1] += sj.omega(n) * v
        state = nxt
        out.append(state[0])
    return MomentSeq(tuple(out))


def shift_moments(mu: MomentSeq, c: RatLike) -> MomentSeq:
    """Moments of X + c from the moments of X (binomial transform)."""
    c = Fraction(c)
    vals = []
    for m in range(len(mu)):
        vals.append(sum((comb(m, j) * c ** (m - j) * mu[j] for j in range(m + 1)), Fraction(0)))
    return MomentSeq(tuple(vals))


def apply_functional(mu: MomentSeq, f: Poly) -> Fraction:
    """The moment functional L[f] = sum_i f_i E[X^i]."""
    if f.degree >= len(mu):
        raise ValueError(f"need moments up to order {f.degree}, have {len(mu) - 1}")
    return sum((coef * mu[i] for i, coef in enumerate(f.coeffs)), Fraction(0))


def gram_schmidt_from_moments(mu: MomentSeq, n_max: int) -> tuple[list[Poly], SzegoJacobi]:
    """Orthogonalize 1, X, X^2, ... against a moment functional.

    Returns the monic orthogonal polynomials together with the recovered
    recurrence coefficients: alpha_0 .. alpha_{n_max-1} and
    omega_1 .. omega_{n_max}, which requires moments up to order 2*n_max.

    If some squared norm vanishes at step n0 <= n_max the functional comes
    from a measure on exactly n0 points; the polynomials found so far
    (including the degree-n0 one, which has norm zero) are returned with
    ``support_bound = n0`` and omega_{n0} = 0.  A negative squared norm
    means no measure matches the moments and raises DegenerateMoments.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if len(mu) < 2 * n_max + 1:
        raise ValueError(f"need moments up to order {2 * n_max}, have {len(mu) - 1}")
    polys = [Poly.one()]
    norms = [Fraction(1)]
    alphas: list[Fraction] = []
    omegas: list[Fraction] = []
    for n in range(n_max):
        candidate = Poly.monomial(n + 1)
        projection = Poly.zero()
        for k, f_k in enumerate(polys):
            coef = apply_functional(mu, candidate * f_k) / norms[k]
            projection = projection + coef * f_k
        f_next = candidate - projection
        norm_next = apply_functional(mu, f_next * f_next)
        if norm_next < 0:
            raise DegenerateMoments(
                f"squared norm of degree-{n + 1} polynomial is negative: {norm_next}"
            )
        polys.append(f_next)
        alphas.append(apply_functional(mu, Poly.of(0, 1) * polys[n] * polys[n]) / norms[n])
        omegas.append(norm_next / norms[n])
        if norm_next == 0:
            return polys, SzegoJacobi.from_lists(alphas, omegas, support_bound=n + 1)
        norms.append(norm_next)
    return polys, SzegoJacobi.from_lists(alphas, omegas, support_bound=None)


@dataclass(frozen=True)
class HankelReport:
    """Outcome of the leading-principal-minor screen on a moment sequence."""

    status: str  # "positive" | "degenerate" | "invalid"
    index: int | None = None

    def to_json_dict(self) -> dict:
        return {"status": self.status, "index": self.index}


def _det(matrix: list[list[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination with pivot search."""
    size = len(matrix)
    rows = [row[:] for row in matrix]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor == 0:
                continue
            for c in range(col, size):
                rows[r][c] -= factor * rows[col][c]
    return det


def hankel_check(mu: MomentSeq, k_max: int) -> HankelReport:
    """Classify the Hankel minors det(E[X^{i+j}])_{0<=i,j<=k} for k <= k_max.

    "positive" means all minors are strictly positive; "degenerate" reports
    the first k whose minor vanishes (a measure on exactly k points),
    requiring every later minor to vanish as well; any other sign pattern is
    "invalid".
    """
    if 2 * k_max > len(mu) - 1:
        raise ValueError(f"need moments up to order {2 * k_max}, have {len(mu) - 1}")
    first_zero: int | None = None
    for k in range(k_max + 1):
        minor = _det([[mu[i + j] for j in range(k + 1)] for i in range(k + 1)])
        if first_zero is None:
            if minor < 0:
                return HankelReport("invalid", k)
            if minor == 0:
                first_zero = k
        elif minor != 0:
            return HankelReport("invalid", k)
    if first_zero is not None:
        return HankelReport("degenerate", first_zero)
    return HankelReport("positive")
