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
from math import comb, gcd, lcm
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


def _check_degree(sj: SzegoJacobi, n_max: int) -> None:
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    bound = sj.support_bound
    if bound is not None and n_max >= bound:
        raise TruncationBeyondSupport(
            f"requested degree {n_max} but the system is {bound}-dimensional"
        )


def monic_polys(sj: SzegoJacobi, n_max: int) -> list[Poly]:
    """The monic polynomials f_0 .. f_{n_max} from the recurrence."""
    _check_degree(sj, n_max)
    polys = [Poly.one()]
    prev = Poly.zero()
    x = Poly.of(0, 1)
    for n in range(n_max):
        nxt = (x - sj.alpha(n)) * polys[n]
        if n >= 1:
            nxt = nxt - sj.omega(n) * prev
        prev = polys[n]
        polys.append(nxt)
    return polys


def rescaled_basis(sj: SzegoJacobi, n_max: int) -> tuple[int, list[list[int]], list[list[int]]]:
    """The f-basis and its inverse in integers, in the variable Y = D*X.

    D is the least common denominator of alpha_0 .. alpha_{n_max-1} and
    omega_1 .. omega_{n_max-1}, the coefficients that f_0 .. f_{n_max} use,
    so g_n(Y) = D^n f_n(Y/D) is monic with integer coefficients:

        g_0 = 1,    g_{n+1} = (Y - D alpha_n) g_n - D^2 omega_n g_{n-1}.

    Returns D, ``coeffs`` with ``coeffs[n][i]`` the Y^i coefficient of g_n,
    and ``coords`` with ``coords[m][n]`` the g_n-coordinate of Y^m.  Both
    are unit upper triangular, so entry n of either list has n + 1 entries;
    ``coords`` follows Y g_n = g_{n+1} + D alpha_n g_n + D^2 omega_n g_{n-1}.
    Each costs O(n_max^2) integer operations.
    """
    _check_degree(sj, n_max)
    alphas = [Fraction(sj.alpha(n)) for n in range(n_max)]
    omegas = [Fraction(sj.omega(n)) for n in range(1, n_max)]
    scale = lcm(*(v.denominator for v in alphas + omegas))
    shift = [a.numerator * (scale // a.denominator) for a in alphas]  # D alpha_n
    # D^2 omega_n, indexed by n; entry 0 is never read.
    link = [0] + [w.numerator * (scale * scale // w.denominator) for w in omegas]
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
    return scale, coeffs, coords


@dataclass(frozen=True)
class MomentSeq:
    """Raw moments E[X^m] for m = 0 .. len-1, with E[X^0] = 1."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = tuple([v if isinstance(v, Fraction) else Fraction(v) for v in self.values])
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
    which is exact because f_{n0} vanishes almost surely.  A component of
    degree n only matters while it can still walk back to degree 0, so the
    state never grows past m_max / 2.

    The state runs on integers in the variable Y = D*X of ``rescaled_basis``:
    with g_n = D^n f_n, Y g_n = g_{n+1} + D alpha_n g_n + D^2 omega_n g_{n-1},
    and the g_0-coordinate of Y^m is D^m E[X^m].  D only covers the alpha_n
    and omega_n that can reach an output.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    size = m_max // 2 + 1
    if sj.support_bound is not None:
        size = min(size, sj.support_bound)
    alphas = [Fraction(sj.alpha(n)) for n in range(min(size, (m_max + 1) // 2))]
    omegas = [Fraction(sj.omega(n)) for n in range(1, size)]
    scale = lcm(*(v.denominator for v in alphas + omegas))
    shift = [a.numerator * (scale // a.denominator) for a in alphas]  # D alpha_n
    link = [w.numerator * (scale * scale // w.denominator) for w in omegas]  # D^2 omega_{n+1}
    state = [1]
    out = [Fraction(1)]
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
                    nxt[n - 1] += link[n - 1] * v
        state = nxt
        out.append(Fraction(state[0], scale**m))
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
    denominator, reduced by the row's gcd.  It never uses a forward
    recurrence, only the moments.

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
    den = lcm(*(mu[l].denominator for l in range(top + 1)))
    # sigma_{k,l} = row[l] / row_den for l >= k; prev holds row k - 1.
    row, row_den = [mu[l].numerator * (den // mu[l].denominator) for l in range(top + 1)], den
    prev, prev_den = [0] * (top + 2), 1
    alphas: list[Fraction] = []
    omegas: list[Fraction] = []
    omega = Fraction(0)  # omega_0 f_{-1} vanishes
    for n in range(n_max):
        alpha = Fraction(row[n + 1], row[n])
        if n:
            alpha -= Fraction(prev[n], prev[n - 1])
        p, q = alpha.numerator, alpha.denominator
        u, v = omega.numerator, omega.denominator
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
        omega = Fraction(nxt[n + 1] * row_den, nxt_den * row[n])
        alphas.append(alpha)
        omegas.append(omega)
        if omega == 0:
            return SzegoJacobi.from_lists(alphas, omegas, support_bound=n + 1)
        prev, prev_den, row, row_den = row, row_den, nxt, nxt_den
    return SzegoJacobi.from_lists(alphas, omegas, support_bound=None)


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
