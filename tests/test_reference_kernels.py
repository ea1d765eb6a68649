"""Integer kernels against the dense Fraction algorithms they replaced.

``to_monomial_basis`` and ``extract_pmd`` run on integers in a rescaled
variable.  The references below are the straightforward Fraction versions:
C * M * C^-1 with C^-1 by back-substitution, and the peel that shifts each
earlier coefficient with ``Poly.monomial``.  Outputs must be equal exactly,
and ``extract_pmd`` must refuse the same matrices with the same message.
"""

from fractions import Fraction as F
from math import factorial, perm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meixnerops.cli import OP_GRADE, _build_op
from meixnerops.exact import Poly
from meixnerops.meixner import series_decomposition, szego_jacobi
from meixnerops.operators import GradedOp, change_of_basis, to_monomial_basis
from meixnerops.orthopoly import SzegoJacobi, TruncationBeyondSupport, monic_polys
from meixnerops.pmd import NotFaithful, PMDecomp, extract_pmd
from meixnerops.sampling import sample_params


def reference_change_of_basis(sj, trunc):
    polys = monic_polys(sj, trunc)
    return [[polys[n].coeff(i) for n in range(trunc + 1)] for i in range(trunc + 1)]


def reference_invert_unit_upper(c):
    size = len(c)
    inv = [[F(0)] * size for _ in range(size)]
    for j in range(size):
        for i in range(j, -1, -1):
            acc = F(1) if i == j else F(0)
            for k in range(i + 1, j + 1):
                acc -= c[i][k] * inv[k][j]
            inv[i][j] = acc
    return inv


def reference_to_monomial_basis(op, sj):
    """C * M * C^-1 in Fractions, skipping only the known zeros of M, C, C^-1."""
    size = op.trunc + 1
    c = reference_change_of_basis(sj, op.trunc)
    c_inv = reference_invert_unit_upper(c)
    mid = [[F(0)] * size for _ in range(size)]  # M * C^-1
    for k, diag in zip(range(op.band[0], op.band[1] + 1), op.diags):
        for l in range(max(0, -k), size - max(k, 0)):
            a = diag[l + min(k, 0)]
            for n in range(l, size):
                mid[l + k][n] += a * c_inv[l][n]
    out = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        for r in range(i, size):
            for n in range(size):
                out[i][n] += c[i][r] * mid[r][n]
    return tuple(map(tuple, out))


def reference_extract_pmd(matrix, k, order):
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order >= len(matrix[0]):
        raise ValueError(f"matrix has {len(matrix[0])} columns, need {order + 1}")
    columns = [
        Poly.from_coeffs([matrix[i][m] for i in range(len(matrix))]) for m in range(order + 1)
    ]
    coeffs = []
    for m, col in enumerate(columns):
        if not col.is_zero and col.degree > m + k:
            raise NotFaithful(
                f"image of X^{m} has degree {col.degree}, exceeding {m} + k with k = {k}"
            )
        rem = col
        for n, a in enumerate(coeffs):
            if not a.is_zero:
                rem = rem - perm(m, n) * (a * Poly.monomial(m - n))
        a_m = rem * F(1, factorial(m))
        if not a_m.is_zero and a_m.degree > m + k:
            raise NotFaithful(f"coefficient A_{m} has degree {a_m.degree} > {m + k}")
        coeffs.append(a_m)
    return PMDecomp(k, tuple(coeffs))


def _outcome(fn, *args):
    """The result, or the type and message of the NotFaithful it raised."""
    try:
        return fn(*args)
    except NotFaithful as exc:
        return ("NotFaithful", str(exc))


# Mixed denominators, so the rescaling lcm D is a product of several primes.
rats = st.builds(F, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 10, 12]))
nonzero_rats = rats.filter(bool)


@st.composite
def recurrences(draw):
    trunc = draw(st.integers(0, 8))
    alphas = draw(st.lists(rats, min_size=trunc + 1, max_size=trunc + 1))
    omegas = draw(st.lists(nonzero_rats, min_size=trunc, max_size=trunc))
    bound = draw(st.none() | st.integers(trunc + 1, trunc + 3))
    return trunc, SzegoJacobi.from_lists(alphas, omegas, support_bound=bound)


@st.composite
def graded_ops(draw, trunc):
    lo = draw(st.integers(-3, 2))
    hi = draw(st.integers(lo, 3))
    margin = draw(st.integers(0, 2))
    diags = tuple(
        tuple(draw(rats | st.just(F(0))) for _ in range(max(0, trunc + 1 - abs(k))))
        for k in range(lo, hi + 1)
    )
    return GradedOp(trunc, (lo, hi), margin, diags)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_to_monomial_basis_matches_dense_reference(data):
    trunc, sj = data.draw(recurrences())
    op = data.draw(graded_ops(trunc))
    assert to_monomial_basis(op, sj) == reference_to_monomial_basis(op, sj)
    assert change_of_basis(sj, trunc) == tuple(map(tuple, reference_change_of_basis(sj, trunc)))


def test_to_monomial_basis_rejects_truncation_past_support():
    sj = SzegoJacobi.from_lists([0, 0, 0], [1, 1], support_bound=2)
    op = GradedOp(2, (0, 0), 0, ((F(1),) * 3,))
    with pytest.raises(TruncationBeyondSupport):
        to_monomial_basis(op, sj)


@st.composite
def monomial_matrices(draw):
    """A monomial-basis matrix with its k and order.

    Half are images of a random decomposition, sometimes with one entry
    perturbed; the other half are random, and mostly unfaithful.
    """
    k = draw(st.integers(-2, 2))
    cols = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 10))
    order = draw(st.integers(0, cols - 1))
    matrix = [[F(0)] * cols for _ in range(rows)]
    if draw(st.booleans()):
        coeffs = []
        for n in range(cols):
            top = n + k
            coeffs.append(Poly.from_coeffs(
                draw(st.lists(rats, max_size=max(0, top + 1))) if top >= 0 else []
            ))
        decomp = PMDecomp(k, tuple(coeffs))
        for m in range(cols):
            image = decomp.apply(Poly.monomial(m))
            for i, v in enumerate(image.coeffs[:rows]):
                matrix[i][m] = v
        if draw(st.booleans()):
            matrix[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] += draw(
                nonzero_rats
            )
    else:
        for i in range(rows):
            for m in range(cols):
                if draw(st.integers(0, 3)) == 0:
                    matrix[i][m] = draw(rats)
    return matrix, k, order


@settings(deadline=None, max_examples=150)
@given(monomial_matrices())
def test_extract_pmd_matches_monomial_peel(case):
    matrix, k, order = case
    assert _outcome(extract_pmd, matrix, k, order) == _outcome(
        reference_extract_pmd, matrix, k, order
    )


def test_large_pmd_suite_case_matches_references():
    # The first trial of ``verify --suite=pmd --degree=48 --seed=1``: trunc 51.
    # U and V cover a lowering band and a raising band with its margin; the
    # Fraction references take about a second per operator at this size.
    p = sample_params(Random(1), min_dim=52)
    sj = szego_jacobi(p)
    for op in ("U", "V"):
        graded = _build_op(op, sj, 51)
        matrix = to_monomial_basis(graded, sj)
        assert matrix == reference_to_monomial_basis(graded, sj), op
        k = OP_GRADE[op]
        cap = min(48, graded.valid_degree - max(k, 0))
        assert cap == 48
        extracted = extract_pmd(matrix, k, cap)
        assert extracted == reference_extract_pmd(matrix, k, cap), op
        closed = series_decomposition(p, op, cap)
        assert all(extracted.coeff(n) == closed.coeff(n) for n in range(cap + 1)), op
