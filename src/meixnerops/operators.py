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
dense column ``column(n)`` is built on demand.  Products run
on integer rows: each operand's diagonals go over their common denominator
once, and each output entry becomes one ``Fraction``.  A commutator runs
both of its products into the same integer rows, in one pass.

The same operators act on all polynomials, untruncated, when alpha_n and
omega_n are polynomials in n: each diagonal is then one ``Poly`` d_k(n), and
``series_by_commutators`` reads an operator's position-momentum expansion off
its iterated commutators with X.  The truncated matrix on monomials
(``to_monomial_basis``) is the reference for that route.

The quantum decomposition of multiplication by X is

    a+ f_n = f_{n+1},   a0 f_n = alpha_n f_n,   a- f_n = omega_n f_{n-1},

with semigroup halves U = a- + a0/2 and V = a+ + a0/2, so X = U + V.
When a system has finite support n0 and is truncated at exactly N = n0 - 1
nothing is discarded (f_{n0} = 0 almost surely), and all margins are zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .exact import ONE, X, ZERO, Poly, RatLike, taylor_shift
from .orthopoly import SzegoJacobi, TruncationBeyondSupport, monic_polys, rescaled_basis
from .pmd import MonomialMatrix, PMDecomp

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

    def compose(self, other: "GradedOp") -> "GradedOp":
        """Operator product self o other (apply ``other`` first)."""
        return _product(self, other, minus_swapped=False)


def _int_diags(op: GradedOp) -> tuple[int, list[list[int]]]:
    """The diagonals of ``op`` as integers over their common denominator."""
    den = lcm(*(v.denominator for diag in op.diags for v in diag))
    return den, [[v.numerator * (den // v.denominator) for v in diag] for diag in op.diags]


def _product(a: GradedOp, b: GradedOp, minus_swapped: bool) -> GradedOp:
    """a o b, less b o a when ``minus_swapped`` (the commutator [a, b]).

    Both products have the band (lo_a + lo_b, hi_a + hi_b) and accumulate
    into one set of integer rows over den_a * den_b; the margin is the
    larger of their margins.
    """
    a._require_same_trunc(b)
    size = a.trunc + 1
    lo, hi = a.band[0] + b.band[0], a.band[1] + b.band[1]
    den_a, rows_a = _int_diags(a)
    den_b, rows_b = _int_diags(b)
    acc = [[0] * _diag_len(a.trunc, k) for k in range(lo, hi + 1)]
    passes = [(a, rows_a, b, rows_b)]
    if minus_swapped:
        passes.append((b, [[-v for v in row] for row in rows_b], a, rows_a))
    margin = 0
    for left, rows_l, right, rows_r in passes:
        # Diagonal kr of right takes f_n to f_{n+kr}, then diagonal kl of left
        # takes that to f_{n+k} with k = kl + kr; n runs over the columns where
        # all three indices stay inside 0 .. N.
        for kr, dr in zip(range(right.band[0], right.band[1] + 1), rows_r):
            for kl, dl in zip(range(left.band[0], left.band[1] + 1), rows_l):
                k = kl + kr
                target = acc[k - lo]
                first = max(0, -kr, -k)
                stop = min(size, size - kr, size - k)
                off_r = min(kr, 0)
                off_l = kr + min(kl, 0)
                off_t = min(k, 0)
                for n in range(first, stop):
                    y = dr[n + off_r]
                    if not y:
                        continue
                    x = dl[n + off_l]
                    if x:
                        target[n + off_t] += x * y
        # A column n of the product is reliable when right's column n is
        # reliable and every level it feeds lies in left's reliable range.
        margin = max(margin, right.margin)
        if left.margin > 0:
            margin = max(margin, left.margin + right.band[1])
    den = den_a * den_b
    diags = tuple(tuple(Fraction(v, den) if v else _ZERO for v in row) for row in acc)
    return GradedOp(a.trunc, (lo, hi), margin, diags)


def _diagonal_op(trunc: int, values: Sequence[Fraction]) -> GradedOp:
    return GradedOp(trunc, (0, 0), 0, (tuple(values),))


def zero_op(trunc: int) -> GradedOp:
    return _diagonal_op(trunc, [_ZERO] * (trunc + 1))


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
    square = sj.scale * sj.scale
    diag = [Fraction(sj.shift(n), sj.scale) for n in range(size)]
    down = []
    for n in range(1, size):
        w = sj.link(n)
        if w <= 0:
            raise ValueError(f"omega_{n} = {sj.omega(n)} is not positive inside the support")
        down.append(Fraction(w, square))
    # a+ loses its top column, whose image reaches past f_trunc, unless the
    # truncation keeps the whole finite support: there f_{n0} = 0.
    margin = 0 if bound is not None and trunc == bound - 1 else 1
    aplus = GradedOp(trunc, (1, 1), margin, ((Fraction(1),) * trunc,))
    azero = _diagonal_op(trunc, diag)
    aminus = GradedOp(trunc, (-1, -1), 0, (tuple(down),))
    return aplus, azero, aminus


def semi_ops(aplus: GradedOp, azero: GradedOp, aminus: GradedOp) -> tuple[GradedOp, GradedOp]:
    """The halves U = a- + a0/2 and V = a+ + a0/2 of multiplication by X."""
    half = azero.scale(Fraction(1, 2))
    return aminus + half, aplus + half


def commutator(a: GradedOp, b: GradedOp) -> GradedOp:
    """[a, b] = a o b - b o a, both products in one integer pass."""
    return _product(a, b, minus_swapped=True)


def first_mismatch(a: GradedOp, b: GradedOp) -> tuple[int, tuple[Fraction, ...]] | None:
    """First reliable input degree where the two operators differ, if any.

    The diagonals of both bands are scanned; the dense residual column is
    built only for the mismatching degree.
    """
    a._require_same_trunc(b)
    top = min(a.valid_degree, b.valid_degree)
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
    poly = ZERO
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
    v_minus_u = v - u
    left = operator_report("[N,X] = V - U", commutator(num, x), v_minus_u, sj)
    right = operator_report("V - U = a+ - a-", v_minus_u, aplus - aminus, sj)
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
    polys = monic_polys(sj, trunc)
    return tuple(tuple(f.coeff(i) for f in polys) for i in range(trunc + 1))


def to_monomial_basis(op: GradedOp, sj: SzegoJacobi, top: int | None = None) -> MonomialMatrix:
    """Rewrite the operator to act on coordinates in {1, X, .., X^N}.

    Only columns 0 .. ``top`` (default N) are formed; column m expands the
    image of X^m, and columns with m > op.valid_degree inherit the
    truncation unreliability.

    The product C M C^-1 runs on integers in the variable Y = D X of
    ``rescaled_basis``, built only through degree top + max(hi, 0): those
    are the rows the columns read, and D clears their denominators.  With
    S = diag(D^i) the basis change is C = S G S^-1, so the middle factor
    S^-1 M S has entries M[n+k][n] D^-k.
    Multiplied by E D^h, where E is the common denominator of M's entries
    and h = max(hi, 0) bounds its band from above, they become integers, and
    so does R = G (E D^h S^-1 M S) G^-1: the matrix on powers of Y is
    R / (E D^h), one denominator for every entry.  R vanishes below row
    m + hi in column m.
    """
    lo, hi = op.band
    size = op.trunc + 1
    top = op.trunc if top is None else top
    h = max(hi, 0)
    # Column m reads coords[m] and coeffs[r] for r <= m + h only.
    coeffs, coords = rescaled_basis(sj, min(op.trunc, top + h))
    scale = sj.scale
    common, rows = _int_diags(op)
    mid = [[v * scale ** (h - k) for v in row] for k, row in zip(range(lo, hi + 1), rows)]
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


# Operators on all polynomials, by polynomial diagonals.  Every operator
# built from a+, a0, a- and N of a recurrence whose alpha_n and omega_n are
# polynomials in n has entries (n + k, n) that are polynomials d_k(n), so it
# is held as ``{k: d_k}`` without truncation.  Composing by
#
#     (A o B)_k(n) = sum_{ka + kb = k} A_ka(n + kb) B_kb(n)
#
# is exact at every n >= 0: a path that leaves the basis below f_0 steps
# down from f_0, and omega_0 = 0 kills it.

PolyDiags = dict[int, Poly]


def poly_diagonals(name: str, alpha: Poly, omega: Poly) -> PolyDiags:
    """U, V, N, a0, a-, a+ or X of the recurrence alpha_n, omega_n, by nonzero diagonals."""
    half = alpha * Fraction(1, 2)
    diags = {
        "U": {-1: omega, 0: half},
        "V": {0: half, 1: ONE},
        "N": {0: X},
        "a0": {0: alpha},
        "a-": {-1: omega},
        "a+": {1: ONE},
        "X": {-1: omega, 0: alpha, 1: ONE},
    }[name]
    return {k: d for k, d in diags.items() if not d.is_zero}


def linear_combination(*terms: tuple[RatLike, PolyDiags]) -> PolyDiags:
    """sum_i c_i T_i for the ``(c_i, T_i)`` of ``terms``; zero diagonals are dropped."""
    out: PolyDiags = {}
    for c, op in terms:
        for k, d in op.items():
            out[k] = out.get(k, ZERO) + d * c
    return {k: d for k, d in out.items() if not d.is_zero}


def diagonal_commutator(a: PolyDiags, b: PolyDiags) -> PolyDiags:
    """[a, b] = a o b - b o a, on the integer rows of ``_commutator_rows``."""
    den, rows = _commutator_rows(_int_poly_diags(a), _int_poly_diags(b))
    return {k: Poly(row, den) for k, row in rows.items()}


def diagonal_report(
    name: str, lhs: PolyDiags, rhs: PolyDiags, sj: SzegoJacobi, trunc: int, top: int
) -> VerifyReport:
    """Compare two operators on the entries a truncation at ``trunc`` reliably holds.

    Entry (n + k, n) is compared for the columns n = 0 .. ``top`` and the
    rows 0 .. ``trunc``, as ``operator_report`` compares the truncated
    operators whose reliable degrees end at ``top``.  A nonzero residual
    diagonal r_k has at most deg r_k roots, so its first nonzero entry is
    found within deg r_k + 1 evaluations.  On a mismatch the residual column
    at the first failing n is expanded in X as ``operator_report`` does.
    """
    residuals = {k: lhs.get(k, ZERO) - rhs.get(k, ZERO) for k in lhs.keys() | rhs.keys()}
    found = top + 1
    for k, r in residuals.items():
        if not r.is_zero:
            for n in range(max(0, -k), min(found, trunc + 1 - k)):
                if r(n):
                    found = n
                    break
    if found > top:
        return VerifyReport(name, True, top)
    basis = monic_polys(sj, trunc)
    poly = ZERO
    for k, r in residuals.items():
        if 0 <= found + k <= trunc:
            poly = poly + r(found) * basis[found + k]
    return VerifyReport(name, False, top, found, poly)


IntDiags = tuple[int, dict[int, list[int]]]


def _int_poly_diags(op: PolyDiags) -> IntDiags:
    """The diagonals of ``op`` as integer coefficient lists over their common denominator."""
    den = lcm(*(d.den for d in op.values()))
    return den, {k: [v * (den // d.den) for v in d.nums] for k, d in op.items()}


def _commutator_rows(a: IntDiags, b: IntDiags) -> IntDiags:
    """[a, b] = a o b - b o a, both products accumulated into one set of integer rows.

    The rows come back over den_a * den_b reduced by their common gcd, with
    trailing zeros trimmed and zero diagonals dropped.
    """
    out: dict[int, list[int]] = {}
    for left, right, sign in ((a[1], b[1], 1), (b[1], a[1], -1)):
        for kb, db in right.items():
            for ka, da in left.items():
                if kb:
                    da = taylor_shift(list(da), kb)
                acc = out.setdefault(ka + kb, [])
                if len(acc) < len(da) + len(db) - 1:
                    acc.extend([0] * (len(da) + len(db) - 1 - len(acc)))
                for i, x in enumerate(da):
                    if x:
                        x *= sign
                        for j, y in enumerate(db, i):
                            acc[j] += x * y
    rows = {}
    for k in sorted(out):
        row = out[k]
        while row and not row[-1]:
            row.pop()
        if row:
            rows[k] = row
    den = a[0] * b[0]
    common = gcd(den, *(v for row in rows.values() for v in row))
    if common > 1:
        den //= common
        rows = {k: [v // common for v in row] for k, row in rows.items()}
    return den, rows


def _cycle_constant(later: IntDiags, earlier: IntDiags) -> Fraction | None:
    """c with ``later`` = c * ``earlier`` on every coefficient of every diagonal, or None."""
    (den_l, rows_l), (den_e, rows_e) = later, earlier
    if not rows_l:
        return Fraction(0)
    if rows_l.keys() != rows_e.keys():
        return None
    k0 = next(iter(rows_e))
    u, v = rows_e[k0][-1], rows_l[k0][-1]
    for k, row_e in rows_e.items():
        row_l = rows_l[k]
        if len(row_l) != len(row_e) or any(x * u != y * v for x, y in zip(row_l, row_e)):
            return None
    return Fraction(v * den_e, u * den_l)


def series_by_commutators(
    t: PolyDiags, x: PolyDiags, sj: SzegoJacobi, k: int, order: int
) -> PMDecomp:
    """A_0 .. A_order of T = sum_n A_n(X) D^n, from the diagonals of T and of X.

    Since [D^n, X] = n D^(n-1), the iterates T_j = [T_(j-1), X] satisfy
    T_j 1 = j! A_j, so A_j = (sum_(i >= 0) d_i(0) f_i) / j! with d_i the
    diagonals of T_j and f_i from ``monic_polys``.  Once T_j = c T_(j-2)
    holds exactly on every coefficient of every diagonal, T_(j+2i) = c^i T_j
    for every i, and no further commutator is formed; without such a cycle
    the iteration runs to ``order``.  ``k`` is the grade of T.
    """
    xs = _int_poly_diags(x)
    iterates = [_int_poly_diags(t)]
    cycle = Fraction(1)  # no power of it is taken unless a cycle is found
    for j in range(1, order + 1):
        iterates.append(_commutator_rows(iterates[-1], xs))
        found = _cycle_constant(iterates[j], iterates[j - 2]) if j >= 2 else None
        if found is not None:
            cycle = found
            break
    last = len(iterates) - 1
    # T_r 1 = sum_(i >= 0) d_i(0) f_i, as integers over den_r * common.
    top = max((i for _, rows in iterates for i, row in rows.items() if i >= 0 and row[0]),
              default=0)
    basis = monic_polys(sj, top)
    common = lcm(*(f.den for f in basis))
    images = []
    for den, rows in iterates:
        nums = [0] * (top + 1)
        for i, row in rows.items():
            if i >= 0 and row[0]:
                v = row[0] * (common // basis[i].den)
                for e, w in enumerate(basis[i].nums):
                    nums[e] += v * w
        images.append((nums, den * common))
    coeffs = []
    fact = 1
    for m in range(order + 1):
        fact *= max(m, 1)
        # Past the last iterate, T_m = c^power T_r with r = last - 2 or last - 1.
        r = m if m <= last else last - 2 + (m - last) % 2
        power = (m - r) // 2
        nums, den = images[r]
        num_c, den_c = cycle.numerator**power, cycle.denominator**power
        coeffs.append(Poly([v * num_c for v in nums], den * den_c * fact))
    return PMDecomp(k, tuple(coeffs))
