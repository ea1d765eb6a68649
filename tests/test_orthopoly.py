from fractions import Fraction as F
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meixnerops.exact import Poly, X
from meixnerops.meixner import MeixnerParams, szego_jacobi
from meixnerops.operators import quantum_ops, to_monomial_basis
from meixnerops.orthopoly import (
    DegenerateMoments,
    MomentSeq,
    SzegoJacobi,
    TruncationBeyondSupport,
    apply_functional,
    gram_schmidt_from_moments,
    moments_from_sj,
    monic_polys,
    rescaled_basis,
)

import support

GAUSS = SzegoJacobi(lambda n: 0, lambda n: n, 1)
# alpha_n = n + 1, omega_n = n: standard Poisson(1) system
POISSON1 = SzegoJacobi(lambda n: n + 1, lambda n: n, 1)
# two-sided coin flip scaled by 2: support {-2, 0, 2}
COIN = SzegoJacobi(lambda n: 0, lambda n: -(n**2) + 3 * n, 1, support_bound=3)


def test_monic_polys_gaussian():
    f = monic_polys(GAUSS, 4)
    assert f[0] == Poly.of(1)
    assert f[1] == X
    assert f[2] == Poly.of(-1, 0, 1)
    assert f[3] == Poly.of(0, -3, 0, 1)
    assert f[4] == Poly.of(3, 0, -6, 0, 1)


def test_monic_polys_never_reads_omega_0():
    assert monic_polys(support.recurrence([0], []), 1) == [Poly.of(1), X]
    sj = support.recurrence([1, 2], [3, 5])
    assert monic_polys(sj, 2) == [Poly.of(1), Poly.of(-1, 1), Poly.of(-1, -3, 1)]


def test_from_lists_indexes_without_wrapping():
    sj = support.recurrence([1, F(1, 2)], [3, F(5, 4)])
    assert sj.scale == 4 and sj.omega(0) == 0
    assert [sj.shift(n) for n in range(2)] == [4, 2]
    assert [sj.link(n) for n in range(3)] == [0, 48, 20]
    assert [sj.omega(n) for n in range(1, 3)] == [3, F(5, 4)]
    for probe in (lambda: sj.omega(-1), lambda: sj.shift(2), lambda: sj.omega(3)):
        with pytest.raises(IndexError):
            probe()


def test_monic_polys_respect_support():
    assert len(monic_polys(COIN, 2)) == 3
    with pytest.raises(TruncationBeyondSupport):
        monic_polys(COIN, 3)


def test_gaussian_moments_are_double_factorials():
    mu = moments_from_sj(GAUSS, 8)
    assert list(mu) == [1, 0, 1, 0, 3, 0, 15, 0, 105]


def test_poisson_moments_are_bell_numbers():
    mu = moments_from_sj(POISSON1, 6)
    assert list(mu) == [1, 1, 2, 5, 15, 52, 203]


def test_finite_support_moments():
    # X in {-2, 0, 2} with weights 1/4, 1/2, 1/4
    mu = moments_from_sj(COIN, 6)
    assert list(mu) == [1, 0, 2, 0, 8, 0, 32]


def test_moment_seq_validates_normalization():
    with pytest.raises(ValueError):
        support.moments((F(2), F(0)))


def test_apply_functional():
    mu = moments_from_sj(GAUSS, 6)
    assert apply_functional(mu, Poly.of(0, 0, 1)) == 1
    assert apply_functional(mu, Poly.of(5, 1, -2, 0, 1)) == 5 + 0 - 2 + 3


def _orthogonal_under(mu, polys):
    return all(
        apply_functional(mu, polys[i] * polys[j]) == 0
        for i in range(len(polys))
        for j in range(i)
    )


def test_gram_schmidt_recovers_fixed_recurrence():
    sj = support.recurrence([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6])
    mu = moments_from_sj(sj, 6)
    rec = gram_schmidt_from_moments(mu, 3)
    assert [support.alpha(rec, n) for n in range(3)] == [1, 2, 3]
    assert [rec.omega(n) for n in range(1, 4)] == [1, 2, 3]
    assert rec.support_bound is None
    polys = monic_polys(rec, 3)
    assert _orthogonal_under(mu, polys)
    assert all(apply_functional(mu, f * f) > 0 for f in polys)


def test_gram_schmidt_detects_finite_support():
    mu = moments_from_sj(COIN, 16)
    rec = gram_schmidt_from_moments(mu, 8)
    assert rec.support_bound == 3
    assert [support.alpha(rec, n) for n in range(3)] == [0, 0, 0]
    assert [rec.omega(n) for n in range(1, 4)] == [2, 2, 0]
    # f_3 is orthogonal to f_0 .. f_2 and has norm zero: it vanishes a.s.
    polys = monic_polys(rec, 2)
    f3 = (X - support.alpha(rec, 2)) * polys[2] - rec.omega(2) * polys[1]
    assert _orthogonal_under(mu, polys + [f3])
    assert apply_functional(mu, f3 * f3) == 0


def test_gram_schmidt_rejects_nonpositive():
    bad = support.moments((F(1), F(0), F(-1), F(0), F(1)))
    with pytest.raises(DegenerateMoments):
        gram_schmidt_from_moments(bad, 2)


small_rats = st.fractions(min_value=-6, max_value=6, max_denominator=4)
pos_rats = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)


def _over_scale(mu, factor):
    """The same moments over ``factor`` times the scale."""
    return MomentSeq(tuple(a * factor**m for m, a in enumerate(mu.nums)), mu.scale * factor)


@settings(deadline=None, max_examples=80)
@given(st.lists(small_rats, max_size=8), st.lists(small_rats, max_size=8),
       st.sampled_from([2, 3, 6]), st.booleans())
def test_moment_seq_agrees_with_fractions_across_scales(tail, other_tail, factor, same):
    first = (F(1), *tail)
    second = first if same else (F(1), *other_tail)
    mu = support.moments(first)
    assert mu.scale == lcm(*(v.denominator for v in first))
    wide = _over_scale(support.moments(second), factor)
    assert wide.values == tuple(wide) == second
    assert [wide[m] for m in range(len(second))] == list(second)
    assert (mu == wide) == (wide == mu) == (first == second)
    assert (mu != wide) == (first != second)
    if first == second:
        assert hash(mu) == hash(wide)
        assert [u == v for _, u, v in mu.cross(wide)] == [True] * len(first)


@settings(deadline=None, max_examples=40)
@given(st.lists(small_rats, min_size=8, max_size=8), st.lists(pos_rats, min_size=8, max_size=8))
def test_gram_schmidt_round_trip(alphas, omegas):
    sj = support.recurrence(alphas, omegas)
    mu = moments_from_sj(sj, 8)
    rec = gram_schmidt_from_moments(mu, 4)
    assert [support.alpha(rec, n) for n in range(4)] == alphas[:4]
    assert [rec.omega(n) for n in range(1, 5)] == omegas[:4]


@settings(deadline=None, max_examples=40)
@given(st.lists(small_rats, min_size=6, max_size=6), st.lists(pos_rats, min_size=6, max_size=6),
       small_rats)
def test_shifted_moments_are_moments_of_shifted_recurrence(alphas, omegas, c):
    # adding c to every alpha_n translates the variable by c, and
    # E[(X + c)^m] = sum_j C(m, j) c^(m-j) E[X^j] is the binomial transform
    sj = support.recurrence(alphas, omegas)
    shifted_sj = support.recurrence([a + c for a in alphas], omegas)
    mu = moments_from_sj(sj, 6)
    shifted = tuple(sum(comb(m, j) * c ** (m - j) * mu[j] for j in range(m + 1)) for m in range(7))
    assert shifted == tuple(moments_from_sj(shifted_sj, 6))


@settings(deadline=None, max_examples=30)
@given(st.lists(small_rats, min_size=8, max_size=8), st.lists(pos_rats, min_size=8, max_size=8))
def test_recurrence_polys_are_orthogonal(alphas, omegas):
    sj = support.recurrence(alphas, omegas)
    mu = moments_from_sj(sj, 8)
    f = monic_polys(sj, 4)
    for i in range(4):
        for j in range(i):
            assert apply_functional(mu, f[i] * f[j]) == 0


def _forbidden(*args):
    raise AssertionError("a recurrence Fraction was built")


recurrences = st.builds(
    support.recurrence,
    st.lists(small_rats, min_size=8, max_size=8),
    st.lists(pos_rats, min_size=8, max_size=8),
) | st.sampled_from([
    szego_jacobi(MeixnerParams(F(3, 2), F(1, 3), 0, F(5, 4))),
    szego_jacobi(MeixnerParams(0, F(1, 3), F(1, 2), 1)),
    szego_jacobi(MeixnerParams(F(5, 7), F(-3, 11), F(2, 13), F(7, 5))),
    szego_jacobi(MeixnerParams(F(1, 3), F(-1, 2), F(-5, 6), F(5, 3))),
])


@settings(deadline=None, max_examples=40)
@given(recurrences, st.integers(0, 7))
def test_integer_kernels_read_only_the_integer_recurrence(sj, n_max):
    n_max = min(n_max, 7 if sj.support_bound is None else sj.support_bound - 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SzegoJacobi, "omega", _forbidden)
        coeffs, _ = rescaled_basis(sj, n_max)
        mu = moments_from_sj(sj, 2 * n_max)
        aplus, azero, aminus = quantum_ops(sj, n_max)
        x = aminus + azero + aplus
        matrix = to_monomial_basis(x, sj)
    d = sj.scale
    f = monic_polys(sj, n_max)
    # g_n(Y) = D^n f_n(Y / D) has the Y^i coefficient D^(n - i) times that of f_n.
    assert f == [Poly.of(*(F(c, d ** (n - i)) for i, c in enumerate(g)))
                 for n, g in enumerate(coeffs)]
    assert mu.scale == d
    assert [apply_functional(mu, f[n]) for n in range(n_max + 1)] == [1] + [0] * n_max
    # Below the top degree, the position operator takes X^m to X^(m+1).
    rows = support.matrix_rows(matrix)
    assert all(rows[i][m] == (i == m + 1) for m in range(min(x.valid_degree + 1, n_max))
               for i in range(n_max + 1))
