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
from itertools import count
from math import gcd, lcm
from typing import Callable, Iterator, Sequence

from .exact import Poly, RatLike, format_ratio, powers


class TruncationBeyondSupport(ValueError):
    """Requested truncation reaches past a finite-support system's dimension."""


class DegenerateMoments(ValueError):
    """Moment sequence is not positive semidefinite (no measure realizes it)."""


@dataclass(frozen=True)
class SzegoJacobi:
    """Recurrence coefficients as integers over one scale D.

    ``shift(n)`` is D*alpha_n (n >= 0) and ``link(n)`` is D^2*omega_n, with
    ``link(0) = 0``; ``alpha(n)`` and ``omega(n)`` build the ``Fraction``.
    """

    shift: Callable[[int], int]
    link: Callable[[int], int]
    scale: int
    support_bound: int | None = None

    @staticmethod
    def from_lists(
        alphas: Sequence[RatLike],
        omegas: Sequence[RatLike],
        support_bound: int | None = None,
    ) -> "SzegoJacobi":
        """Finite lists over their least common denominator; omegas[i] holds omega_{i+1}."""
        return _over_lcm(
            [(v.numerator, v.denominator) for v in map(Fraction, alphas)],
            [(v.numerator, v.denominator) for v in map(Fraction, omegas)],
            support_bound,
        )

    def alpha(self, n: int) -> Fraction:
        if n < 0:
            raise IndexError(f"alpha_{n} is undefined")
        return Fraction(self.shift(n), self.scale)

    def omega(self, n: int) -> Fraction:
        """omega_n, with omega_0 = 0."""
        if n < 0:
            raise IndexError(f"omega_{n} is undefined")
        return Fraction(self.link(n), self.scale * self.scale)


def _over_lcm(
    alphas: list[tuple[int, int]], omegas: list[tuple[int, int]], support_bound: int | None
) -> SzegoJacobi:
    """Finite lists of reduced (numerator, denominator) pairs over the lcm of the denominators.

    omegas[i] holds omega_{i+1}.
    """
    scale = lcm(*(q for _, q in alphas), *(v for _, v in omegas))
    shifts = tuple(p * (scale // q) for p, q in alphas)
    links = (0, *(u * (scale * scale // v) for u, v in omegas))
    return SzegoJacobi(shifts.__getitem__, links.__getitem__, scale, support_bound)


def _check_degree(sj: SzegoJacobi, n_max: int) -> None:
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    bound = sj.support_bound
    if bound is not None and n_max >= bound:
        raise TruncationBeyondSupport(
            f"requested degree {n_max} but the system is {bound}-dimensional"
        )


def monic_polys(sj: SzegoJacobi, n_max: int) -> list[Poly]:
    """The monic polynomials f_0 .. f_{n_max}, read off ``rescaled_basis``.

    f_n(X) = D^-n g_n(D X), so its X^i coefficient is G[n][i] / D^(n - i).
    """
    coeffs, _ = rescaled_basis(sj, n_max)
    scales = powers(sj.scale, n_max)
    return [Poly([c * d for c, d in zip(g, scales)], scales[n]) for n, g in enumerate(coeffs)]


def rescaled_basis(sj: SzegoJacobi, n_max: int) -> tuple[list[list[int]], list[list[int]]]:
    """The f-basis and its inverse in integers, in the variable Y = D*X.

    D is ``sj.scale``, so g_n(Y) = D^n f_n(Y/D) is monic with integer
    coefficients:

        g_0 = 1,    g_{n+1} = (Y - D alpha_n) g_n - D^2 omega_n g_{n-1}.

    Returns ``coeffs`` with ``coeffs[n][i]`` the Y^i coefficient of g_n,
    and ``coords`` with ``coords[m][n]`` the g_n-coordinate of Y^m.  Both
    are unit upper triangular, so entry n of either list has n + 1 entries;
    ``coords`` follows Y g_n = g_{n+1} + D alpha_n g_n + D^2 omega_n g_{n-1}.
    Each costs O(n_max^2) integer operations.
    """
    _check_degree(sj, n_max)
    shift = [sj.shift(n) for n in range(n_max)]
    link = [sj.link(n) for n in range(n_max)]
    coeffs = [[1]]
    coords = [[1]]
    for n in range(n_max):
        g = [0] + coeffs[n]
        for i, c in enumerate(coeffs[n]):
            g[i] -= shift[n] * c
        if n >= 1:
            for i, c in enumerate(coeffs[n - 1]):
                g[i] -= link[n] * c
        coeffs.append(g)
        y = [0] + coords[n]
        for j, c in enumerate(coords[n]):
            if c:
                y[j] += shift[j] * c
                if j >= 1:
                    y[j - 1] += link[j] * c
        coords.append(y)
    return coeffs, coords


@dataclass(frozen=True)
class MomentSeq:
    """Raw moments E[X^m] = nums[m] / scale**m for m = 0 .. len-1, with E[X^0] = 1.

    ``nums`` are integers over the powers of one positive integer ``scale``,
    as the moment kernels produce them.  Equality is exact and integer:
    sequences over one scale compare their numerators, and sequences with
    different scales are compared by cross-multiplying with the powers of
    the scales.  A ``Fraction`` is built only for ``mu[m]`` and ``values``.
    """

    nums: tuple[int, ...]
    scale: int

    def __post_init__(self) -> None:
        if not self.nums or self.nums[0] != 1:
            raise ValueError("moment sequence must start with E[X^0] = 1")
        if self.scale < 1:
            raise ValueError("the scale must be a positive integer")

    @staticmethod
    def from_values(values: Sequence[RatLike]) -> "MomentSeq":
        """The sequence of the given exact values, over their least common denominator."""
        vals = [Fraction(v) for v in values]
        scale = lcm(*(v.denominator for v in vals))
        scales = powers(scale, len(vals) - 1)
        nums = tuple(v.numerator * (sm // v.denominator) for v, sm in zip(vals, scales))
        return MomentSeq(nums, scale)

    def cross(self, other: "MomentSeq") -> Iterator[tuple[int, int, int]]:
        """``(m, u, v)`` for each common order m; u == v exactly when both E[X^m] agree.

        Over one scale u and v are the numerators; otherwise they are
        cross-multiplied by the powers of the scales.  Read lazily.
        """
        if self.scale == other.scale:
            yield from zip(count(), self.nums, other.nums)
            return
        mine = theirs = 1  # self.scale^m and other.scale^m
        for m, (a, b) in enumerate(zip(self.nums, other.nums)):
            yield m, a * theirs, b * mine
            mine *= self.scale
            theirs *= other.scale

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MomentSeq):
            return NotImplemented
        if len(self.nums) != len(other.nums):
            return False
        if self.scale == other.scale:
            return self.nums == other.nums
        return all(u == v for _, u, v in self.cross(other))

    def __hash__(self) -> int:
        return hash(self.values)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, sm) for a, sm in zip(self.nums, powers(self.scale, len(self) - 1)))

    def __getitem__(self, m: int) -> Fraction:
        return Fraction(self.nums[m], self.scale ** (m % len(self.nums)))

    def __len__(self) -> int:
        return len(self.nums)

    def __iter__(self):
        return iter(self.values)

    def to_json(self) -> list[str]:
        scales = powers(self.scale, len(self) - 1)
        return [format_ratio(a, sm) for a, sm in zip(self.nums, scales)]


def moments_from_sj(sj: SzegoJacobi, m_max: int) -> MomentSeq:
    """Moments E[X^0] .. E[X^m_max] via powers of the recurrence matrix.

    The iteration tracks the expansion of X^m * 1 in the f-basis; for a
    finite-support system the state is capped at the support dimension,
    which is exact because f_{n0} vanishes almost surely.  A component of
    degree n only matters while it can still walk back to degree 0, so the
    state never grows past m_max / 2.

    The state runs on integers in the variable Y = D*X of ``rescaled_basis``:
    with g_n = D^n f_n, Y g_n = g_{n+1} + D alpha_n g_n + D^2 omega_n g_{n-1},
    and the g_0-coordinate of Y^m is D^m E[X^m]; those integers are returned
    over the scale D = ``sj.scale``.  Only the alpha_n and omega_n that can
    reach an output are read.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    size = m_max // 2 + 1
    if sj.support_bound is not None:
        size = min(size, sj.support_bound)
    shift = [sj.shift(n) for n in range(min(size, (m_max + 1) // 2))]
    link = [sj.link(n) for n in range(size)]
    state = [1]
    out = [1]
    for m in range(1, m_max + 1):
        # After this step only degrees up to m_max - m can still reach an output.
        top = min(m, m_max - m, size - 1)
        nxt = [0] * (top + 1)
        for n, v in enumerate(state):
            if v:
                if n <= top:
                    nxt[n] += shift[n] * v
                if n < top:
                    nxt[n + 1] += v
                if n >= 1:
                    nxt[n - 1] += link[n] * v
        state = nxt
        out.append(state[0])
    return MomentSeq(tuple(out), sj.scale)


def apply_functional(mu: MomentSeq, f: Poly) -> Fraction:
    """The moment functional L[f] = sum_i f_i E[X^i]."""
    if f.degree >= len(mu):
        raise ValueError(f"need moments up to order {f.degree}, have {len(mu) - 1}")
    return sum((coef * mu[i] for i, coef in enumerate(f.coeffs)), Fraction(0))


def gram_schmidt_from_moments(mu: MomentSeq, n_max: int) -> SzegoJacobi:
    """Recover the recurrence that orthogonalizes 1, X, X^2, ... against mu.

    Returns alpha_0 .. alpha_{n_max-1} and omega_1 .. omega_{n_max}, which
    requires moments up to order 2*n_max.  This is the Chebyshev algorithm
    (Gautschi, Orthogonal Polynomials, 2004): with sigma_{k,l} = L[f_k X^l],

        sigma_{k,l} = sigma_{k-1,l+1} - alpha_{k-1} sigma_{k-1,l} - omega_{k-1} sigma_{k-2,l},
        alpha_k = sigma_{k,k+1}/sigma_{k,k} - sigma_{k-1,k}/sigma_{k-1,k-1},
        omega_k = sigma_{k,k}/sigma_{k-1,k-1},

    starting from sigma_{-1,l} = 0 and sigma_{0,l} = E[X^l]; sigma_{k,k} is
    the squared norm of f_k.  Each row is held as integers over one
    denominator; row 0 comes straight from the integer moments, and every
    later row is reduced by its gcd.  Each alpha_n and omega_n is kept as a
    reduced integer pair, and the recurrence is built over the lcm of their
    denominators.  It never uses a forward recurrence, only the moments.

    If some squared norm vanishes at step n0 <= n_max the functional comes
    from a measure on exactly n0 points; the coefficients found so far are
    returned with ``support_bound = n0`` and omega_{n0} = 0.  A negative
    squared norm means no measure matches the moments and raises
    DegenerateMoments.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if len(mu) < 2 * n_max + 1:
        raise ValueError(f"need moments up to order {2 * n_max}, have {len(mu) - 1}")
    top = 2 * n_max
    # sigma_{k,l} = row[l] / row_den for l >= k; prev holds row k - 1.  Row 0
    # puts E[X^l] = nums[l] / scale^l over scale^top.  Every squared norm
    # row[k] read below is positive.
    scales = powers(mu.scale, top)
    row, row_den = [mu.nums[l] * scales[top - l] for l in range(top + 1)], scales[top]
    prev, prev_den = [0] * (top + 2), 1
    alphas: list[tuple[int, int]] = []  # alpha_n = p / q in lowest terms, q > 0
    omegas: list[tuple[int, int]] = []  # omega_(n+1) = u / v likewise
    u, v = 0, 1  # omega_0 f_{-1} vanishes
    for n in range(n_max):
        p, q = row[n + 1], row[n]
        if n:
            p, q = p * prev[n - 1] - prev[n] * q, q * prev[n - 1]
        common = gcd(p, q)
        p, q = p // common, q // common
        lead, mid, back = q * v * prev_den, p * v * prev_den, u * q * row_den
        nxt = [0] * (top - n)
        for l in range(n + 1, top - n):
            nxt[l] = lead * row[l + 1] - mid * row[l] - back * prev[l]
        nxt_den = q * v * row_den * prev_den
        common = gcd(nxt_den, *nxt)
        nxt = [c // common for c in nxt]
        nxt_den //= common
        if nxt[n + 1] < 0:
            raise DegenerateMoments(
                f"squared norm of degree-{n + 1} polynomial is negative: "
                f"{Fraction(nxt[n + 1], nxt_den)}"
            )
        u, v = nxt[n + 1] * row_den, nxt_den * row[n]
        common = gcd(u, v)
        u, v = u // common, v // common
        alphas.append((p, q))
        omegas.append((u, v))
        if not u:
            return _over_lcm(alphas, omegas, support_bound=n + 1)
        prev, prev_den, row, row_den = row, row_den, nxt, nxt_den
    return _over_lcm(alphas, omegas, support_bound=None)
