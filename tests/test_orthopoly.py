from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meixnerops.exact import Poly, X
from meixnerops.orthopoly import (
    DegenerateMoments,
    MomentSeq,
    SzegoJacobi,
    TruncationBeyondSupport,
    apply_functional,
    gram_schmidt_from_moments,
    hankel_check,
    moments_from_sj,
    monic_polys,
    shift_moments,
)

GAUSS = SzegoJacobi(lambda n: F(0), lambda n: F(n))
# alpha_n = n + 1, omega_n = n: standard Poisson(1) system
POISSON1 = SzegoJacobi(lambda n: F(n + 1), lambda n: F(n))
# two-sided coin flip scaled by 2: support {-2, 0, 2}
COIN = SzegoJacobi(lambda n: F(0), lambda n: F(-(n**2) + 3 * n), support_bound=3)


def test_monic_polys_gaussian():
    f = monic_polys(GAUSS, 4)
    assert f[0] == Poly.of(1)
    assert f[1] == X
    assert f[2] == Poly.of(-1, 0, 1)
    assert f[3] == Poly.of(0, -3, 0, 1)
    assert f[4] == Poly.of(3, 0, -6, 0, 1)


def test_monic_polys_never_reads_omega_0():
    # omegas[0] is omega_1; omega(0) would wrap to omegas[-1] or raise IndexError.
    assert monic_polys(SzegoJacobi.from_lists([0], []), 1) == [Poly.of(1), X]
    sj = SzegoJacobi.from_lists([1, 2], [3, 5])
    assert monic_polys(sj, 2) == [Poly.of(1), Poly.of(-1, 1), Poly.of(-1, -3, 1)]


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
        MomentSeq((F(2), F(0)))


def test_shift_moments_matches_direct_expansion():
    mu = moments_from_sj(POISSON1, 6)
    shifted = shift_moments(mu, F(-1))
    # E[(X-1)^2] = E[X^2] - 2E[X] + 1 = 2 - 2 + 1
    assert shifted[2] == 1
    back = shift_moments(shifted, F(1))
    assert tuple(back) == tuple(mu)


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
    sj = SzegoJacobi.from_lists([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6])
    mu = moments_from_sj(sj, 6)
    rec = gram_schmidt_from_moments(mu, 3)
    assert [rec.alpha(n) for n in range(3)] == [1, 2, 3]
    assert [rec.omega(n) for n in range(1, 4)] == [1, 2, 3]
    assert rec.support_bound is None
    polys = monic_polys(rec, 3)
    assert _orthogonal_under(mu, polys)
    assert all(apply_functional(mu, f * f) > 0 for f in polys)


def test_gram_schmidt_detects_finite_support():
    mu = moments_from_sj(COIN, 16)
    rec = gram_schmidt_from_moments(mu, 8)
    assert rec.support_bound == 3
    assert [rec.alpha(n) for n in range(3)] == [0, 0, 0]
    assert [rec.omega(n) for n in range(1, 4)] == [2, 2, 0]
    # f_3 is orthogonal to f_0 .. f_2 and has norm zero: it vanishes a.s.
    polys = monic_polys(rec, 2)
    f3 = (X - rec.alpha(2)) * polys[2] - rec.omega(2) * polys[1]
    assert _orthogonal_under(mu, polys + [f3])
    assert apply_functional(mu, f3 * f3) == 0


def test_gram_schmidt_rejects_nonpositive():
    bad = MomentSeq((F(1), F(0), F(-1), F(0), F(1)))
    with pytest.raises(DegenerateMoments):
        gram_schmidt_from_moments(bad, 2)


def test_hankel_positive_for_gaussian():
    rep = hankel_check(moments_from_sj(GAUSS, 12), 6)
    assert rep.status == "positive"
    assert rep.index is None


def test_hankel_degenerate_at_support_size():
    rep = hankel_check(moments_from_sj(COIN, 16), 8)
    assert rep.status == "degenerate"
    assert rep.index == 3


def test_hankel_invalid():
    rep = hankel_check(MomentSeq((F(1), F(0), F(-1), F(0), F(2))), 2)
    assert rep.status == "invalid"
    assert rep.index == 1


small_rats = st.fractions(min_value=-6, max_value=6, max_denominator=4)
pos_rats = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)


@settings(deadline=None, max_examples=40)
@given(st.lists(small_rats, min_size=8, max_size=8), st.lists(pos_rats, min_size=8, max_size=8))
def test_gram_schmidt_round_trip(alphas, omegas):
    sj = SzegoJacobi.from_lists(alphas, omegas)
    mu = moments_from_sj(sj, 8)
    rec = gram_schmidt_from_moments(mu, 4)
    assert [rec.alpha(n) for n in range(4)] == alphas[:4]
    assert [rec.omega(n) for n in range(1, 5)] == omegas[:4]


@settings(deadline=None, max_examples=40)
@given(st.lists(small_rats, min_size=6, max_size=6), st.lists(pos_rats, min_size=6, max_size=6),
       small_rats)
def test_shifted_moments_are_moments_of_shifted_recurrence(alphas, omegas, c):
    # adding c to every alpha_n translates the variable by c
    sj = SzegoJacobi.from_lists(alphas, omegas)
    shifted_sj = SzegoJacobi.from_lists([a + c for a in alphas], omegas)
    assert tuple(shift_moments(moments_from_sj(sj, 6), c)) == tuple(
        moments_from_sj(shifted_sj, 6)
    )


@settings(deadline=None, max_examples=30)
@given(st.lists(small_rats, min_size=8, max_size=8), st.lists(pos_rats, min_size=8, max_size=8))
def test_recurrence_polys_are_orthogonal(alphas, omegas):
    sj = SzegoJacobi.from_lists(alphas, omegas)
    mu = moments_from_sj(sj, 8)
    f = monic_polys(sj, 4)
    for i in range(4):
        for j in range(i):
            assert apply_functional(mu, f[i] * f[j]) == 0
