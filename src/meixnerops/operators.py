"""Truncated operators on the monic orthogonal-polynomial basis.

A ``GradedOp`` stores an operator on span{f_0 .. f_N} by its diagonals.
``band = (lo, hi)`` bounds the grade shifts the operator performs, and
``diags[k - lo]`` holds the entries (n + k, n), the f_{n+k}-component of the
image of f_n, for every n with both indices in 0 .. N: it has length
``N + 1 - |k|`` and is indexed by ``min(n, n + k)``.  ``margin`` counts how
many top input degrees are unreliable because the truncation discarded
components beyond f_N.  Every comparison is restricted to the reliable
degrees, so an identity reported as holding is exact, never approximate.

Only the band is stored, so construction checks shapes in O(width), add,
neg and scale cost O(N * width), and compose costs O(N * w1 * w2).  The
dense views ``entries`` and ``column(n)`` are built on demand.

The quantum decomposition of multiplication by X is

    a+ f_n = f_{n+1},   a0 f_n = alpha_n f_n,   a- f_n = omega_n f_{n-1},

with semigroup halves U = a- + a0/2 and V = a+ + a0/2, so X = U + V.
When a system has finite support n0 and is truncated at exactly N = n0 - 1
nothing is discarded (f_{n0} = 0 almost surely), and all margins are zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .exact import Poly, RatLike, format_rat
from .orthopoly import SzegoJacobi, TruncationBeyondSupport, monic_polys, rescaled_basis
from .pmd import MonomialMatrix

Matrix = tuple[tuple[Fraction, ...], ...]
Diagonal = tuple[Fraction, ...]

_ZERO = Fraction(0)


def _diag_len(trunc: int, k: int) -> int:
    return max(0, trunc + 1 - abs(k))


@dataclass(frozen=True)
class GradedOp:
    """Exact truncated operator in the f-basis, stored by its diagonals."""

    trunc: int
    band: tuple[int, int]
    margin: int
    diags: tuple[Diagonal, ...]

    def __post_init__(self) -> None:
        lo, hi = self.band
        if lo > hi:
            raise ValueError("band lower bound exceeds upper bound")
        if len(self.diags) != hi - lo + 1:
            raise ValueError(f"band {self.band} needs {hi - lo + 1} diagonals")
        for k, diag in zip(range(lo, hi + 1), self.diags):
            if len(diag) != _diag_len(self.trunc, k):
                raise ValueError(
                    f"diagonal {k} must have {_diag_len(self.trunc, k)} entries"
                )
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")

    @property
    def valid_degree(self) -> int:
        """Largest input degree whose column is exact under the truncation."""
        return self.trunc - self.margin

    def _diagonal(self, k: int) -> Diagonal:
        """Entries (n + k, n), indexed by min(n, n + k); zeros outside the band."""
        lo, hi = self.band
        if lo <= k <= hi:
            return self.diags[k - lo]
        return (_ZERO,) * _diag_len(self.trunc, k)

    def column(self, n: int) -> tuple[Fraction, ...]:
        """Dense image of f_n: entry m is its f_m-component."""
        size = self.trunc + 1
        if not 0 <= n < size:
            raise IndexError(f"column {n} outside 0 .. {self.trunc}")
        col = [_ZERO] * size
        for k, diag in zip(range(self.band[0], self.band[1] + 1), self.diags):
            if 0 <= n + k < size:
                col[n + k] = diag[n + min(k, 0)]
        return tuple(col)

    @property
    def entries(self) -> Matrix:
        """Dense view: ``entries[m][n]`` is the f_m-component of the image of f_n."""
        cols = [self.column(n) for n in range(self.trunc + 1)]
        return tuple(zip(*cols)) if cols else ()

    def _require_same_trunc(self, other: "GradedOp") -> None:
        if self.trunc != other.trunc:
            raise ValueError("operators have different truncation degrees")

    def __add__(self, other: "GradedOp") -> "GradedOp":
        self._require_same_trunc(other)
        (alo, ahi), (blo, bhi) = self.band, other.band
        band = (min(alo, blo), max(ahi, bhi))
        diags = []
        for k in range(band[0], band[1] + 1):
            in_a, in_b = alo <= k <= ahi, blo <= k <= bhi
            if in_a and in_b:
                da, db = self.diags[k - alo], other.diags[k - blo]
                diags.append(tuple(x + y for x, y in zip(da, db)))
            else:
                diags.append(self._diagonal(k) if in_a else other._diagonal(k))
        return GradedOp(self.trunc, band, max(self.margin, other.margin), tuple(diags))

    def __neg__(self) -> "GradedOp":
        diags = tuple(tuple(-v for v in diag) for diag in self.diags)
        return GradedOp(self.trunc, self.band, self.margin, diags)

    def __sub__(self, other: "GradedOp") -> "GradedOp":
        return self + (-other)

    def scale(self, c: RatLike) -> "GradedOp":
        c = Fraction(c)
        diags = tuple(tuple(c * v for v in diag) for diag in self.diags)
        return GradedOp(self.trunc, self.band, self.margin, diags)

    def __mul__(self, other: object) -> "GradedOp":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def compose(self, other: "GradedOp") -> "GradedOp":
        """Operator product self o other (apply ``other`` first)."""
        self._require_same_trunc(other)
        size = self.trunc + 1
        band = (self.band[0] + other.band[0], self.band[1] + other.band[1])
        acc = [[_ZERO] * _diag_len(self.trunc, k) for k in range(band[0], band[1] + 1)]
        # Diagonal kb of other takes f_n to f_{n+kb}, then diagonal ka of self
        # takes that to f_{n+k} with k = ka + kb; n runs over the columns where
        # all three indices stay inside 0 .. N.
        for kb, db in zip(range(other.band[0], other.band[1] + 1), other.diags):
            for ka, da in zip(range(self.band[0], self.band[1] + 1), self.diags):
                k = ka + kb
                target = acc[k - band[0]]
                first = max(0, -kb, -k)
                stop = min(size, size - kb, size - k)
                off_b = min(kb, 0)
                off_a = kb + min(ka, 0)
                off_t = min(k, 0)
                for n in range(first, stop):
                    b = db[n + off_b]
                    if not b:
                        continue
                    a = da[n + off_a]
                    if a:
                        target[n + off_t] += a * b
        # A column n of the product is reliable when other's column n is
        # reliable and every level it feeds lies in self's reliable range.
        margin = max(0, other.margin)
        if self.margin > 0:
            margin = max(margin, self.margin + other.band[1])
        return GradedOp(self.trunc, band, margin, tuple(tuple(d) for d in acc))

    def to_json_dict(self) -> dict:
        return {
            "N": self.trunc,
            "band": list(self.band),
            "margin": self.margin,
            "entries": [format_rat(v) for row in self.entries for v in row],
        }


def _diagonal_op(trunc: int, values: Sequence[Fraction]) -> GradedOp:
    return GradedOp(trunc, (0, 0), 0, (tuple(values),))


def zero_op(trunc: int) -> GradedOp:
    return _diagonal_op(trunc, [_ZERO] * (trunc + 1))


def identity_op(trunc: int) -> GradedOp:
    return _diagonal_op(trunc, [Fraction(1)] * (trunc + 1))


def number_op(trunc: int) -> GradedOp:
    """Diagonal grade counter: N f_n = n f_n."""
    return _diagonal_op(trunc, [Fraction(n) for n in range(trunc + 1)])


def quantum_ops(sj: SzegoJacobi, trunc: int) -> tuple[GradedOp, GradedOp, GradedOp]:
    """The creation, preservation, and annihilation parts (a+, a0, a-)."""
    if trunc < 0:
        raise ValueError("trunc must be nonnegative")
    bound = sj.support_bound
    if bound is not None and trunc >= bound:
        raise TruncationBeyondSupport(
            f"truncation degree {trunc} reaches past the {bound}-dimensional space"
        )
    size = trunc + 1
    full = bound is not None and trunc == bound - 1
    diag = []
    down = []
    for n in range(size):
        diag.append(Fraction(sj.alpha(n)))
        if n >= 1:
            w = Fraction(sj.omega(n))
            if w <= 0:
                raise ValueError(f"omega_{n} = {w} is not positive inside the support")
            down.append(w)
    aplus = GradedOp(trunc, (1, 1), 0 if full else 1, ((Fraction(1),) * trunc,))
    azero = _diagonal_op(trunc, diag)
    aminus = GradedOp(trunc, (-1, -1), 0, (tuple(down),))
    return aplus, azero, aminus


def semi_ops(aplus: GradedOp, azero: GradedOp, aminus: GradedOp) -> tuple[GradedOp, GradedOp]:
    """The halves U = a- + a0/2 and V = a+ + a0/2 of multiplication by X."""
    half = azero.scale(Fraction(1, 2))
    return aminus + half, aplus + half


def position_op(sj: SzegoJacobi, trunc: int) -> GradedOp:
    """Multiplication by X in the f-basis: a- + a0 + a+."""
    aplus, azero, aminus = quantum_ops(sj, trunc)
    return aminus + azero + aplus


def commutator(a: GradedOp, b: GradedOp) -> GradedOp:
    return a.compose(b) - b.compose(a)


def first_mismatch(
    a: GradedOp, b: GradedOp, up_to: int | None = None
) -> tuple[int, tuple[Fraction, ...]] | None:
    """First reliable input degree where the two operators differ, if any.

    The diagonals of both bands are scanned; the dense residual column is
    built only for the mismatching degree.
    """
    a._require_same_trunc(b)
    top = min(a.valid_degree, b.valid_degree)
    if up_to is not None:
        top = min(top, up_to)
    size = a.trunc + 1
    found = top + 1
    for k in range(min(a.band[0], b.band[0]), max(a.band[1], b.band[1]) + 1):
        da, db = a._diagonal(k), b._diagonal(k)
        off = min(k, 0)
        for n in range(max(0, -k), min(size - max(k, 0), found)):
            if da[n + off] != db[n + off]:
                found = n
                break
    if found > top:
        return None
    residual = tuple(x - y for x, y in zip(a.column(found), b.column(found)))
    return found, residual


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one exact identity check."""

    name: str
    passed: bool
    max_degree: int
    fail_index: int | None = None
    residual: Poly | None = None

    def to_json_dict(self) -> dict:
        return {
            "identity": self.name,
            "pass": self.passed,
            "max_degree": self.max_degree,
            "fail_index": self.fail_index,
            "residual": None if self.residual is None else self.residual.to_json(),
        }


def sequence_report(
    name: str, max_degree: int, pairs: Iterable[tuple[int, object, object]]
) -> VerifyReport:
    """Report on the first unequal pair of the ``(index, lhs, rhs)`` triples.

    The triples are read lazily, so nothing past the first failure is
    computed.  A failing report carries the index as ``fail_index`` and, when
    the pair are polynomials, ``lhs - rhs`` as its residual; scalars carry none.
    """
    for index, lhs, rhs in pairs:
        if lhs != rhs:
            residual = lhs - rhs if isinstance(lhs, Poly) else None
            return VerifyReport(name, False, max_degree, index, residual)
    return VerifyReport(name, True, max_degree)


def operator_report(name: str, lhs: GradedOp, rhs: GradedOp, sj: SzegoJacobi) -> VerifyReport:
    """Compare two operators; on failure, expand the residual column in X.

    The f-basis of ``sj`` is built only when the check fails.
    """
    top = min(lhs.valid_degree, rhs.valid_degree)
    miss = first_mismatch(lhs, rhs)
    if miss is None:
        return VerifyReport(name, True, top)
    index, residual = miss
    basis = monic_polys(sj, lhs.trunc)
    poly = Poly.zero()
    for m, coef in enumerate(residual):
        poly = poly + coef * basis[m]
    return VerifyReport(name, False, top, index, poly)


def verify_universal(sj: SzegoJacobi, trunc: int) -> list[VerifyReport]:
    """Check the six commutation identities that hold for every system.

    [N, a+] = a+, [N, a0] = 0, [a-, N] = a-, [N, V] = a+, [U, N] = a-,
    and [N, X] = V - U = a+ - a-.  Each check is exact on every reliable
    degree of the truncation.
    """
    aplus, azero, aminus = quantum_ops(sj, trunc)
    u, v = semi_ops(aplus, azero, aminus)
    x = aminus + azero + aplus
    num = number_op(trunc)
    reports = [
        operator_report("[N,a+] = a+", commutator(num, aplus), aplus, sj),
        operator_report("[N,a0] = 0", commutator(num, azero), zero_op(trunc), sj),
        operator_report("[a-,N] = a-", commutator(aminus, num), aminus, sj),
        operator_report("[N,V] = a+", commutator(num, v), aplus, sj),
        operator_report("[U,N] = a-", commutator(u, num), aminus, sj),
    ]
    left = operator_report("[N,X] = V - U", commutator(num, x), v - u, sj)
    right = operator_report("V - U = a+ - a-", v - u, aplus - aminus, sj)
    if left.passed and right.passed:
        reports.append(
            VerifyReport("[N,X] = V - U = a+ - a-", True, min(left.max_degree, right.max_degree))
        )
    else:
        bad = left if not left.passed else right
        reports.append(
            VerifyReport(
                "[N,X] = V - U = a+ - a-", False, bad.max_degree, bad.fail_index, bad.residual
            )
        )
    return reports


def change_of_basis(sj: SzegoJacobi, trunc: int) -> Matrix:
    """Matrix C with column n holding the monomial coefficients of f_n."""
    scale, coeffs, _ = rescaled_basis(sj, trunc)
    size = trunc + 1
    # f_n(X) = D^-n g_n(D X), so its X^i coefficient is G[i][n] / D^(n - i).
    return tuple(
        tuple(Fraction(coeffs[n][i], scale ** (n - i)) if i <= n else _ZERO for n in range(size))
        for i in range(size)
    )


def to_monomial_basis(op: GradedOp, sj: SzegoJacobi, top: int | None = None) -> MonomialMatrix:
    """Rewrite the operator to act on coordinates in {1, X, .., X^N}.

    Only columns 0 .. ``top`` (default N) are formed; column m expands the
    image of X^m, and columns with m > op.valid_degree inherit the
    truncation unreliability.

    The product C M C^-1 runs on integers in the variable Y = D X of
    ``rescaled_basis``.  With S = diag(D^i) the basis change is
    C = S G S^-1, so the middle factor S^-1 M S has entries M[n+k][n] D^-k.
    Multiplied by E D^h, where E is the common denominator of M's entries
    and h = max(hi, 0) bounds its band from above, they become integers, and
    so does R = G (E D^h S^-1 M S) G^-1: the matrix on powers of Y is
    R / (E D^h), one denominator for every entry.  R vanishes below row
    m + hi in column m.
    """
    lo, hi = op.band
    size = op.trunc + 1
    top = op.trunc if top is None else top
    scale, coeffs, coords = rescaled_basis(sj, op.trunc)
    common = lcm(*(v.denominator for diag in op.diags for v in diag))
    h = max(hi, 0)
    mid = [
        [v.numerator * (common // v.denominator) * scale ** (h - k) for v in diag]
        for k, diag in zip(range(lo, hi + 1), op.diags)
    ]
    cols = []
    for m in range(top + 1):
        y = coords[m]
        # The image of Y^m in g-coordinates: diagonal k takes g_l to g_{l+k}.
        image = [0] * max(0, min(size, m + hi + 1))
        for k, diag in zip(range(lo, hi + 1), mid):
            off = min(k, 0)
            for l in range(max(0, -k), min(m + 1, size - max(k, 0))):
                if y[l]:
                    image[l + k] += diag[l + off] * y[l]
        # Back to powers of Y: column m of R is sum_r image[r] g_r.
        col = [0] * len(image)
        for r, c in enumerate(image):
            if c:
                for i, g in enumerate(coeffs[r]):
                    col[i] += c * g
        while col and not col[-1]:
            col.pop()
        cols.append(tuple(col))
    return MonomialMatrix(tuple(cols), common * scale**h, scale, size)
