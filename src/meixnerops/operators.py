"""Operators on the monic orthogonal-polynomial basis, truncated and untruncated.

A ``GradedOp`` stores an operator on span{f_0 .. f_N} by its diagonals.
``band = (lo, hi)`` bounds the grade shifts the operator performs, and
``diags[k - lo]`` holds the entries (n + k, n), the f_{n+k}-component of the
image of f_n, for every n with both indices in 0 .. N: it has length
``N + 1 - |k|`` and is indexed by ``min(n, n + k)``.  ``margin`` counts how
many top input degrees are unreliable because the truncation discarded
components beyond f_N.  Every comparison is restricted to the reliable
degrees, so an identity reported as holding is exact, never approximate.

Only the band is stored, so construction checks shapes in O(width), add
and scale cost O(N * width), and compose costs O(N * w1 * w2).  The
dense column ``column(n)`` is built on demand.  Products run
on integer rows: each operand's diagonals go over their common denominator
once, and each output entry becomes one ``Fraction``.

No command builds a ``GradedOp``.  The commands hold every operator on all
polynomials, untruncated: alpha_n and omega_n are polynomials in n, so each
diagonal is a polynomial d_k(n), and the operator is ``(den, {k: nums_k})``,
its diagonals as integer coefficient rows over one denominator.  That is the
one form of such an operator: ``poly_diagonals`` builds it, and
``linear_combination`` and ``diagonal_commutator`` return it.
``verify_universal`` and the ``doublecomm`` suite compare commutators with
``diagonal_report``, and ``series_by_commutators`` reads an operator's
position-momentum expansion off its iterated commutators with X.  The
truncated engine, and the matrix on monomials it gives
(``to_monomial_basis``), are the reference those routes are tested against;
they stay in the package because the benchmark's layer trace names them.

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
from typing import Iterable, Iterator

from .exact import HALF, Poly, RatLike, taylor_shift, trim
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

    def scale(self, c: RatLike) -> "GradedOp":
        c = Fraction(c)
        diags = tuple(tuple(c * v for v in diag) for diag in self.diags)
        return GradedOp(self.trunc, self.band, self.margin, diags)

    def compose(self, other: "GradedOp") -> "GradedOp":
        """Operator product self o other (apply ``other`` first).

        The product has the band (lo_a + lo_b, hi_a + hi_b) and accumulates
        into integer rows over den_a * den_b.
        """
        self._require_same_trunc(other)
        size = self.trunc + 1
        (alo, ahi), (blo, bhi) = self.band, other.band
        lo, hi = alo + blo, ahi + bhi
        den_a, rows_a = _int_diags(self)
        den_b, rows_b = _int_diags(other)
        acc = [[0] * _diag_len(self.trunc, k) for k in range(lo, hi + 1)]
        # Diagonal kb of other takes f_n to f_{n+kb}, then diagonal ka of self
        # takes that to f_{n+k} with k = ka + kb; n runs over the columns where
        # all three indices stay inside 0 .. N.
        for kb, db in zip(range(blo, bhi + 1), rows_b):
            for ka, da in zip(range(alo, ahi + 1), rows_a):
                k = ka + kb
                target = acc[k - lo]
                off_b = min(kb, 0)
                off_a = kb + min(ka, 0)
                off_t = min(k, 0)
                for n in range(max(0, -kb, -k), min(size, size - kb, size - k)):
                    y = db[n + off_b]
                    if not y:
                        continue
                    x = da[n + off_a]
                    if x:
                        target[n + off_t] += x * y
        # A column n of the product is reliable when other's column n is
        # reliable and every level it feeds lies in self's reliable range.
        margin = other.margin
        if self.margin > 0:
            margin = max(margin, self.margin + bhi)
        den = den_a * den_b
        diags = tuple(tuple(Fraction(v, den) if v else _ZERO for v in row) for row in acc)
        return GradedOp(self.trunc, (lo, hi), margin, diags)


def _int_diags(op: GradedOp) -> tuple[int, list[list[int]]]:
    """The diagonals of ``op`` as integers over their common denominator."""
    den = lcm(*(v.denominator for diag in op.diags for v in diag))
    return den, [[v.numerator * (den // v.denominator) for v in diag] for diag in op.diags]


def raising_margin(sj: SzegoJacobi, trunc: int) -> int:
    """The top columns a+ loses under a truncation at ``trunc``.

    The image of f_trunc reaches past the truncation, unless it keeps the
    whole finite support: there f_{n0} = 0.
    """
    return 0 if sj.support_bound == trunc + 1 else 1


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
    aplus = GradedOp(trunc, (1, 1), raising_margin(sj, trunc), ((Fraction(1),) * trunc,))
    azero = GradedOp(trunc, (0, 0), 0, (tuple(diag),))
    aminus = GradedOp(trunc, (-1, -1), 0, (tuple(down),))
    return aplus, azero, aminus


def semi_ops(aplus: GradedOp, azero: GradedOp, aminus: GradedOp) -> tuple[GradedOp, GradedOp]:
    """The halves U = a- + a0/2 and V = a+ + a0/2 of multiplication by X."""
    half = azero.scale(HALF)
    return aminus + half, aplus + half


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
        cols.append(tuple(trim(col)))
    return MonomialMatrix(tuple(cols), common * scale**h, scale, size)


# Operators on all polynomials, by polynomial diagonals.  Every operator
# built from a+, a0, a- and N of a recurrence whose alpha_n and omega_n are
# polynomials in n has entries (n + k, n) that are polynomials d_k(n), so it
# is held without truncation, as ``(den, {k: nums_k})``: den * d_k(n) has the
# integer coefficients nums_k, lowest degree first.  The form is canonical:
# den > 0, every row is trimmed of trailing zeros, zero diagonals are
# dropped and gcd(den, *all entries) = 1, so two operators are equal
# exactly when their forms are.  ``diagonal_report`` passes equal operands on
# that comparison alone, and decides unequal ones by scanning their residual
# on the entries a truncation reliably holds, where they may still agree.
# Composing by
#
#     (A o B)_k(n) = sum_{ka + kb = k} A_ka(n + kb) B_kb(n)
#
# is exact at every n >= 0: a path that leaves the basis below f_0 steps
# down from f_0, and omega_0 = 0 kills it.

PolyOp = tuple[int, dict[int, list[int]]]


def _canonical(den: int, rows: dict[int, list[int]]) -> PolyOp:
    """``(den, rows)`` in canonical form; the rows are trimmed in place."""
    out = {}
    for k, row in rows.items():
        if trim(row):
            out[k] = row
    common = gcd(den, *(v for row in out.values() for v in row))
    if common > 1:
        den //= common
        out = {k: [v // common for v in row] for k, row in out.items()}
    return den, out


def poly_diagonals(name: str, alpha: Poly, omega: Poly) -> PolyOp:
    """U, V, N, a0, a-, a+ or X of the recurrence alpha_n, omega_n.

    N, a0, a- and a+ fill one diagonal, and a canonical ``Poly`` on one
    diagonal is already a canonical operator.  U, V and X put the integer
    rows of their diagonals over one denominator, 2 * alpha.den for alpha/2.
    """
    if name == "N":
        return 1, {0: [0, 1]}
    if name == "a+":
        return 1, {1: [1]}
    if name in ("a0", "a-"):
        d, k = (alpha, 0) if name == "a0" else (omega, -1)
        return d.den, ({k: list(d.nums)} if d else {})
    if name == "U":
        terms = ((-1, omega.nums, omega.den), (0, alpha.nums, 2 * alpha.den))
    elif name == "V":
        terms = ((0, alpha.nums, 2 * alpha.den), (1, (1,), 1))
    elif name == "X":
        terms = ((-1, omega.nums, omega.den), (0, alpha.nums, alpha.den), (1, (1,), 1))
    else:
        raise KeyError(name)
    den = lcm(*(d for _, _, d in terms))
    return _canonical(den, {k: [v * (den // d) for v in nums] for k, nums, d in terms})


def linear_combination(*terms: tuple[RatLike, PolyOp]) -> PolyOp:
    """sum_i c_i T_i for the ``(c_i, T_i)`` of ``terms``, summed over one common denominator."""
    den = lcm(*(c.denominator * op[0] for c, op in terms))
    out: dict[int, list[int]] = {}
    for c, (op_den, rows) in terms:
        m = c.numerator * (den // (c.denominator * op_den))
        for k, row in rows.items():
            acc = out.setdefault(k, [])
            if len(acc) < len(row):
                acc.extend([0] * (len(row) - len(acc)))
            for i, v in enumerate(row):
                acc[i] += m * v
    return _canonical(den, out)


def diagonal_commutator(a: PolyOp, b: PolyOp) -> PolyOp:
    """[a, b] = a o b - b o a, both products accumulated into one set of integer rows."""
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
    return _canonical(a[0] * b[0], out)


def _at(row: list[int], n: int) -> int:
    """The integer polynomial with coefficients ``row`` at n, by Horner's rule."""
    acc = 0
    for v in reversed(row):
        acc = acc * n + v
    return acc


def _column(op: PolyOp, n: int, basis: list[Poly]) -> tuple[list[int], int]:
    """Column n of ``op`` expanded in X, as integer coefficients over one denominator.

    The column is sum_k d_k(n) f_(n+k) with the f_i of ``basis``; rows past
    the end of ``basis`` are left out.
    """
    den, rows = op
    common = lcm(*(f.den for f in basis))
    nums = [0] * len(basis)
    for k, row in rows.items():
        if 0 <= n + k < len(basis) and (v := _at(row, n)):
            f = basis[n + k]
            v *= common // f.den
            for e, w in enumerate(f.nums):
                nums[e] += v * w
    return nums, den * common


def diagonal_report(
    name: str, lhs: PolyOp, rhs: PolyOp, sj: SzegoJacobi, trunc: int, top: int
) -> VerifyReport:
    """Compare two operators on the entries a truncation at ``trunc`` reliably holds.

    Entry (n + k, n) is compared for the columns n = 0 .. ``top`` and the
    rows 0 .. ``trunc``, as ``first_mismatch`` compares the truncated
    operators whose reliable degrees end at ``top``.  A nonzero residual
    diagonal r_k has at most deg r_k roots, so its first nonzero entry is
    found within deg r_k + 1 evaluations.  On a mismatch the residual column
    at the first failing n, inside rows 0 .. ``trunc``, is expanded in X
    through the f-basis of ``sj``, which is built only then.  Operands with
    equal canonical forms pass at once, with no residual formed.
    """
    if lhs == rhs:
        return VerifyReport(name, True, top)
    residual = linear_combination((1, lhs), (-1, rhs))
    found = top + 1
    for k, r in residual[1].items():
        for n in range(max(0, -k), min(found, trunc + 1 - k)):
            if _at(r, n):
                found = n
                break
    if found > top:
        return VerifyReport(name, True, top)
    column = _column(residual, found, monic_polys(sj, trunc))
    return VerifyReport(name, False, top, found, Poly(*column))


def verify_universal(sj: SzegoJacobi, trunc: int, alpha: Poly, omega: Poly) -> list[VerifyReport]:
    """Check the six commutation identities that hold for every system.

    [N, a+] = a+, [N, a0] = 0, [a-, N] = a-, [N, V] = a+, [U, N] = a-,
    and [N, X] = V - U = a+ - a-, on the polynomial diagonals of the
    recurrence alpha_n, omega_n of ``sj``.  Each is compared where a
    truncation at ``trunc`` reads it reliably: through column ``trunc``, less
    ``raising_margin`` wherever a+ enters.
    """
    num, aplus, azero, aminus, u, v, x = (
        poly_diagonals(name, alpha, omega) for name in ("N", "a+", "a0", "a-", "U", "V", "X")
    )
    top = trunc - raising_margin(sj, trunc)

    def report(name: str, lhs: PolyOp, rhs: PolyOp, last: int) -> VerifyReport:
        return diagonal_report(name, lhs, rhs, sj, trunc, last)

    reports = [
        report("[N,a+] = a+", diagonal_commutator(num, aplus), aplus, top),
        report("[N,a0] = 0", diagonal_commutator(num, azero), (1, {}), trunc),
        report("[a-,N] = a-", diagonal_commutator(aminus, num), aminus, trunc),
        report("[N,V] = a+", diagonal_commutator(num, v), aplus, top),
        report("[U,N] = a-", diagonal_commutator(u, num), aminus, trunc),
    ]
    v_minus_u = linear_combination((1, v), (-1, u))
    left = report("[N,X] = V - U", diagonal_commutator(num, x), v_minus_u, top)
    right = report("V - U = a+ - a-", v_minus_u, linear_combination((1, aplus), (-1, aminus)), top)
    # The first failing part speaks for the combined identity; both are checked through top.
    bad = left if not left.passed else right
    reports.append(
        VerifyReport("[N,X] = V - U = a+ - a-", bad.passed, top, bad.fail_index, bad.residual)
    )
    return reports


def _cycle_constant(later: PolyOp, earlier: PolyOp) -> Fraction | None:
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
    t: PolyOp, x: PolyOp, sj: SzegoJacobi, order: int
) -> Iterator[tuple[list[int], int]]:
    """A_0 .. A_order of T = sum_n A_n(X) D^n, from the diagonals of T and of X.

    Each A_n is yielded as ``(nums, den)``: its X^i coefficient is
    nums[i] / den, the integers trimmed of trailing zeros but not reduced.
    Since [D^n, X] = n D^(n-1), the iterates T_j = [T_(j-1), X] satisfy
    T_j 1 = j! A_j, so A_j = (sum_(i >= 0) d_i(0) f_i) / j! with d_i the
    diagonals of T_j and f_i from ``monic_polys``.  Once T_j = c T_(j-2)
    holds exactly on every coefficient of every diagonal, T_(j+2i) = c^i T_j
    for every i, and no further commutator is formed; without such a cycle
    the iteration runs to ``order``.
    """
    iterates = [t]
    cycle = Fraction(1)  # no power of it is taken unless a cycle is found
    for j in range(1, order + 1):
        iterates.append(diagonal_commutator(iterates[-1], x))
        found = _cycle_constant(iterates[j], iterates[j - 2]) if j >= 2 else None
        if found is not None:
            cycle = found
            break
    last = len(iterates) - 1
    # T_r 1 is column 0 of T_r, which reads f_0 .. f_top.
    top = max((i for _, rows in iterates for i, row in rows.items() if i >= 0 and row[0]),
              default=0)
    basis = monic_polys(sj, top)
    images = [_column(op, 0, basis) for op in iterates]
    fact = 1
    for m in range(order + 1):
        fact *= max(m, 1)
        # Past the last iterate, T_m = c^power T_r with r = last - 2 or last - 1.
        r = m if m <= last else last - 2 + (m - last) % 2
        power = (m - r) // 2
        nums, den = images[r]
        num_c, den_c = cycle.numerator**power, cycle.denominator**power
        yield trim([v * num_c for v in nums]), den * den_c * fact
