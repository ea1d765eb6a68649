from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meixnerops.exact import ZERO, Poly, X
from meixnerops.meixner import MeixnerParams, szego_jacobi
from meixnerops.operators import (
    GradedOp,
    first_mismatch,
    quantum_ops,
    semi_ops,
    to_monomial_basis,
    verify_universal,
)
from meixnerops.orthopoly import SzegoJacobi, monic_polys

import support
from support import commutator, number_op, operator_report, zero_op

POISSON1 = SzegoJacobi(lambda n: n + 1, lambda n: n, 1)
GAUSS = SzegoJacobi(lambda n: 0, lambda n: n, 1)
COIN = SzegoJacobi(lambda n: 0, lambda n: -(n**2) + 3 * n, 1, support_bound=3)
# alpha_n and omega_n of POISSON1 and COIN as polynomials in n.
POISSON1_POLYS = (X + 1, X)
COIN_POLYS = (ZERO, 3 * X - X * X)


def test_quantum_ops_structure():
    aplus, azero, aminus = quantum_ops(POISSON1, 6)
    assert aplus.band == (1, 1) and aplus.margin == 1
    assert azero.band == (0, 0) and azero.margin == 0
    assert aminus.band == (-1, -1) and aminus.margin == 0
    assert aplus.column(2)[3] == 1
    assert azero.column(2)[2] == 3  # alpha_2 = 2 + 1
    assert aminus.column(2)[1] == 2  # omega_2 = 2


def test_quantum_ops_reject_nonpositive_omega():
    bad = SzegoJacobi(lambda n: 0, lambda n: n - 2, 1)
    with pytest.raises(ValueError):
        quantum_ops(bad, 4)


def test_full_finite_truncation_has_no_margin():
    aplus, azero, aminus = quantum_ops(COIN, 2)
    assert aplus.margin == 0
    assert aplus.column(2) == (F(0), F(0), F(0))  # f_3 vanishes almost surely
    # the whole Jacobi matrix: omega_1 = omega_2 = 2, every alpha_n = 0
    assert support.dense(aminus + azero + aplus) == ((0, 2, 0), (1, 0, 2), (0, 1, 0))


def test_position_decomposition():
    aplus, azero, aminus = quantum_ops(POISSON1, 6)
    x = aminus + azero + aplus
    # X f_2 = f_3 + alpha_2 f_2 + omega_2 f_1
    assert x.column(2) == (0, 2, 3, 1, 0, 0, 0)
    u, v = semi_ops(aplus, azero, aminus)
    assert support.dense(u + v) == support.dense(x)


def test_graded_op_band_validation():
    with pytest.raises(ValueError):  # band (0, 0) holds one diagonal, not two
        GradedOp(1, (0, 0), 0, ((F(0), F(0)), (F(1),)))
    with pytest.raises(ValueError):  # diagonal 1 of a 2x2 operator has one entry
        GradedOp(1, (1, 1), 0, ((F(0), F(1)),))
    with pytest.raises(ValueError):
        GradedOp(1, (1, 0), 0, ())
    with pytest.raises(ValueError):
        GradedOp(1, (0, 0), -1, ((F(0), F(0)),))


def test_zero_and_identity():
    z = zero_op(3)
    i = support.identity_op(3)
    n = number_op(3)
    assert z.band == (0, 0) and all(all(e == 0 for e in row) for row in support.dense(z))
    assert i.column(2)[2] == 1
    assert n.column(2)[2] == 2
    assert support.dense(support.difference(n, n)) == support.dense(z)


def test_compose_shifts_band_and_margin():
    aplus, azero, aminus = quantum_ops(POISSON1, 6)
    prod = aplus.compose(aminus)  # band sums: (0, 0)
    assert prod.band == (0, 0)
    assert prod.margin == 0  # lowering first keeps every column inside the truncation
    assert prod.column(3)[3] == 3  # omega_3 f_3
    back = aminus.compose(aplus)
    assert back.margin == 1  # raising first loses the top column
    assert back.column(3)[3] == 4  # omega_4


def test_commutator_number_raising():
    aplus, _, _ = quantum_ops(POISSON1, 8)
    n = number_op(8)
    comm = commutator(n, aplus)
    miss = first_mismatch(comm, aplus)
    assert miss is None


def test_first_mismatch_reports_column_and_residual():
    n = number_op(4)
    i = support.identity_op(4)
    miss = first_mismatch(n, i)
    assert miss is not None
    index, residual = miss
    assert index == 0
    assert residual[0] == -1  # (N - I) f_0 = -f_0


def test_universal_identities_poisson():
    for report in verify_universal(POISSON1, 10, *POISSON1_POLYS):
        assert report.passed, report.name
        assert report.max_degree >= 8


def test_universal_identities_full_finite_space():
    # with the whole 3-dimensional space retained there is no margin at all
    for report in verify_universal(COIN, 2, *COIN_POLYS):
        assert report.passed, report.name
        assert report.max_degree == 2


def test_duality_via_gram_norms():
    aplus, _, aminus = quantum_ops(POISSON1, 6)
    norms = [F(1)]
    for n in range(1, 7):
        norms.append(norms[-1] * POISSON1.omega(n))
    down, up = support.dense(aminus), support.dense(aplus)
    size = 7
    for m in range(size):
        for n in range(size):
            # <a- f_n, f_m> G_m == <f_n, a+ f_m> G_n
            assert down[m][n] * norms[m] == up[n][m] * norms[n]


def test_to_monomial_basis_matches_polynomial_action():
    aplus, azero, aminus = quantum_ops(GAUSS, 5)
    x = aminus + azero + aplus
    mat = support.matrix_rows(to_monomial_basis(x, GAUSS))
    for m in range(5):  # column 5 is above the reliable range
        col = [mat[i][m] for i in range(6)]
        assert col == [F(1) if i == m + 1 else F(0) for i in range(6)]


def test_monomial_matrix_of_number_operator():
    n = number_op(5)
    mat = support.matrix_rows(to_monomial_basis(n, GAUSS))
    f = monic_polys(GAUSS, 5)
    # N x^m has leading coefficient m (the f_m component dominates)
    for m in range(6):
        image = Poly.of(*(mat[i][m] for i in range(6)))
        assert image.coeff(m) == m


small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=3)
pos_rats = st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3)


@settings(deadline=None, max_examples=25)
@given(st.lists(small_rats, min_size=8, max_size=8), st.lists(pos_rats, min_size=8, max_size=8))
def test_universal_identities_hold_for_random_recurrences(alphas, omegas):
    # Any finite recurrence is polynomial in n on the indices a truncation reads.
    sj = support.recurrence(alphas, omegas)
    alpha, omega = support.interpolate(alphas), support.interpolate([0, *omegas])
    assert [support.evaluate(alpha, n) for n in range(8)] == alphas
    assert [support.evaluate(omega, n) for n in range(1, 9)] == omegas
    for report in verify_universal(sj, 7, alpha, omega):
        assert report.passed, report.name
        assert report.max_degree >= 6


# Dense reference for the banded kernels: rows[m][n] is the f_m-component of
# the image of f_n; the margin rules are restated from GradedOp.compose.


def _to_graded(trunc, band, margin, rows):
    diags = tuple(
        tuple(rows[n + k][n] for n in range(trunc + 1) if 0 <= n + k <= trunc)
        for k in range(band[0], band[1] + 1)
    )
    return GradedOp(trunc, band, margin, diags)


def _freeze(rows):
    return tuple(tuple(row) for row in rows)


def _dense_compose(a, b):
    size = len(a)
    return [[sum((a[m][l] * b[l][n] for l in range(size)), F(0)) for n in range(size)]
            for m in range(size)]


def _dense_margin(margin_a, margin_b, hi_b):
    return max(margin_b, margin_a + hi_b) if margin_a > 0 else margin_b


def _dense_first_mismatch(a, b, top):
    for n in range(top + 1):
        col_a = tuple(row[n] for row in a)
        col_b = tuple(row[n] for row in b)
        if col_a != col_b:
            return n, tuple(x - y for x, y in zip(col_a, col_b))
    return None


@st.composite
def banded(draw, trunc):
    lo = draw(st.integers(-3, 2))
    hi = draw(st.integers(lo, 3))
    margin = draw(st.integers(0, 2))
    rows = [
        [draw(small_rats | st.just(F(0))) if lo <= m - n <= hi else F(0)
         for n in range(trunc + 1)]
        for m in range(trunc + 1)
    ]
    return (lo, hi), margin, rows


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_banded_kernels_match_dense_reference(data):
    trunc = data.draw(st.integers(0, 8))
    band_a, margin_a, rows_a = data.draw(banded(trunc))
    band_b, margin_b, rows_b = data.draw(banded(trunc))
    c = data.draw(small_rats)
    a = _to_graded(trunc, band_a, margin_a, rows_a)
    b = _to_graded(trunc, band_b, margin_b, rows_b)
    size = trunc + 1

    assert support.dense(a) == _freeze(rows_a)
    for n in range(size):
        assert a.column(n) == tuple(row[n] for row in rows_a)

    total = a + b
    assert total.band == (min(band_a[0], band_b[0]), max(band_a[1], band_b[1]))
    assert total.margin == max(margin_a, margin_b)
    assert support.dense(total) == _freeze(
        [[rows_a[m][n] + rows_b[m][n] for n in range(size)] for m in range(size)]
    )
    assert support.dense(a.scale(-1)) == _freeze([[-v for v in row] for row in rows_a])
    assert support.dense(support.difference(a, b)) == _freeze(
        [[rows_a[m][n] - rows_b[m][n] for n in range(size)] for m in range(size)]
    )
    assert support.dense(a.scale(c)) == _freeze([[c * v for v in row] for row in rows_a])

    prod = a.compose(b)
    band = (band_a[0] + band_b[0], band_a[1] + band_b[1])
    assert prod.band == band
    assert prod.margin == _dense_margin(margin_a, margin_b, band_b[1])
    assert support.dense(prod) == _freeze(_dense_compose(rows_a, rows_b))

    comm = commutator(a, b)
    assert comm.band == band
    assert comm.margin == max(
        _dense_margin(margin_a, margin_b, band_b[1]), _dense_margin(margin_b, margin_a, band_a[1])
    )
    ab, ba = _dense_compose(rows_a, rows_b), _dense_compose(rows_b, rows_a)
    assert support.dense(comm) == _freeze(
        [[ab[m][n] - ba[m][n] for n in range(size)] for m in range(size)]
    )
    with pytest.raises(ValueError):
        commutator(a, zero_op(trunc + 1))

    top = min(trunc - margin_a, trunc - margin_b)
    assert first_mismatch(a, b) == _dense_first_mismatch(rows_a, rows_b, top)
    assert first_mismatch(a, a + a.scale(0)) is None


def test_commutator_reduces_entries_over_shared_denominators():
    # The operands' common denominators 6 and 4 share a factor: the products
    # run over 24, and four of the seven entries reduce (to 12ths and 6ths).
    a = _to_graded(2, (0, 1), 0, [[F(1, 6), F(0), F(0)], [F(5, 6), F(1, 2), F(0)],
                                  [F(0), F(1, 3), F(7, 6)]])
    b = _to_graded(2, (-1, 0), 0, [[F(3, 4), F(1, 4), F(0)], [F(0), F(1, 2), F(5, 4)],
                                   [F(0), F(0), F(1, 4)]])
    comm = commutator(a, b)
    assert comm.band == (-1, 1) and comm.margin == 0
    assert comm.diags == (
        (F(-1, 12), F(-5, 6)),
        (F(-5, 24), F(-5, 24), F(5, 12)),
        (F(5, 24), F(1, 12)),
    )
    rows_a, rows_b = support.dense(a), support.dense(b)
    ab, ba = _dense_compose(rows_a, rows_b), _dense_compose(rows_b, rows_a)
    difference = [[ab[m][n] - ba[m][n] for n in range(3)] for m in range(3)]
    assert support.dense(comm) == _freeze(difference)


def test_report_expands_the_first_failing_column():
    # A perturbation in columns 3 and 5 of a passing identity; the expected
    # index and residual are those of the dense reference implementation.
    p = MeixnerParams.from_strings("1/2", "-1", "-1/3", "5")
    sj = szego_jacobi(p)
    trunc = 8
    aplus, azero, aminus = quantum_ops(sj, trunc)
    u, _ = semi_ops(aplus, azero, aminus)
    x = aminus + azero + aplus
    rows = [[F(0)] * (trunc + 1) for _ in range(trunc + 1)]
    rows[2][3], rows[3][3], rows[4][3], rows[5][5] = F(1, 2), F(-2), F(3, 7), F(9)
    rhs = support.comm_ux_closed_form(p, x) + _to_graded(trunc, (-1, 1), 0, rows)
    report = operator_report("perturbed", commutator(u, x), rhs, sj)
    assert not report.passed
    assert report.max_degree == 7
    assert report.fail_index == 3
    assert report.residual == Poly.of(
        F(-3653, 84), F(-799, 42), F(401, 28), F(11, 7), F(-3, 7)
    )
    f = monic_polys(sj, trunc)
    assert report.residual == -(F(1, 2) * f[2] - 2 * f[3] + F(3, 7) * f[4])
    closed = support.comm_ux_closed_form(p, x)
    assert operator_report("unperturbed", commutator(u, x), closed, sj).passed



def test_report_builds_no_basis_when_the_check_passes(monkeypatch):
    def no_basis(*args):
        raise AssertionError("monic_polys called for a passing check")

    monkeypatch.setattr("meixnerops.operators.monic_polys", no_basis)
    for report in verify_universal(POISSON1, 10, *POISSON1_POLYS):
        assert report.passed, report.name
