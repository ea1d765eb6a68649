import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meixnerops.characterize import (
    DuplicateShift,
    NegativeMean,
    SumNotZero,
    ZeroCoefficient,
    beta0_combo,
    bound_cert,
    ensure_valid,
    laplace_series,
    moments_via_cumulants,
    moments_via_recursion,
    validate_combo,
)
from meixnerops.exact import Poly
from meixnerops.meixner import InvalidParams, MeixnerParams, TranslationCombo
from meixnerops.orthopoly import MomentSeq, moments_from_sj
from meixnerops.sampling import sample_combo

STEP = TranslationCombo.parse("1:1,-1:0")
WIDE = TranslationCombo.parse("2:1,-2:0")
SYMMETRIC = TranslationCombo.parse("1:1,-1:-1")


def test_validate_accepts_mixed_sign_shifts():
    combo = TranslationCombo(((F(1), F(1)), (F(-2), F(-2)), (F(1), F(0))))
    verdict = validate_combo(combo)
    assert verdict.ok
    assert verdict.violations == ()
    assert set(verdict.poisson_terms) == {(F(1), F(1)), (F(1), F(-2))}


def test_validate_collects_all_violations():
    bad = TranslationCombo(((F(1), F(1)), (F(1), F(1)), (F(-1), F(2)), (F(0), F(0))))
    verdict = validate_combo(bad)
    assert not verdict.ok
    assert len(verdict.violations) == 4  # sum, duplicate, nonpositive mean, zero term
    assert verdict.poisson_terms == ()


def test_ensure_valid_raises_first_collected_violation():
    bad = TranslationCombo(((F(1), F(1)), (F(1), F(1)), (F(-1), F(2)), (F(0), F(0))))
    verdict = validate_combo(bad)
    assert [error for error, _ in verdict.violations] == [
        SumNotZero,
        DuplicateShift,
        NegativeMean,
        ZeroCoefficient,
    ]
    with pytest.raises(SumNotZero) as info:
        ensure_valid(bad)
    assert str(info.value) == verdict.violations[0][1]
    assert verdict.to_json_dict()["violations"] == [message for _, message in verdict.violations]
    assert ensure_valid(STEP) == validate_combo(STEP)


def test_typed_errors_in_priority_order():
    with pytest.raises(SumNotZero):
        moments_via_recursion(TranslationCombo.parse("1:1"), 4)
    with pytest.raises(DuplicateShift):
        moments_via_recursion(TranslationCombo.parse("1:1,1:1,-2:0"), 4)
    with pytest.raises(NegativeMean):
        moments_via_recursion(TranslationCombo.parse("1:1,-1:2"), 4)
    with pytest.raises(NegativeMean):
        # a zero coefficient on a nonzero shift gives mean 0, also rejected
        moments_via_recursion(TranslationCombo.parse("0:1,1:2,-1:0"), 4)
    with pytest.raises(ZeroCoefficient):
        moments_via_recursion(TranslationCombo.parse("0:0"), 4)


def test_step_combo_frozen_moments():
    mu = moments_via_recursion(STEP, 6)
    assert mu.values[:5] == (F(1), F(0), F(1), F(1), F(4))
    assert moments_via_cumulants(STEP, 6).values == mu.values
    assert laplace_series(STEP, 6).values == mu.values


def test_wide_combo_frozen_moments():
    mu = moments_via_recursion(WIDE, 4)
    assert mu[1] == 0 and mu[2] == 2 and mu[3] == 2 and mu[4] == 14


def test_symmetric_combo_moments():
    mu = moments_via_recursion(SYMMETRIC, 12)
    assert all(mu[m] == 0 for m in range(1, 13, 2))
    assert tuple(mu[m] for m in range(0, 13, 2)) == (
        F(1),
        F(2),
        F(14),
        F(182),
        F(3614),
        F(99302),
        F(3554894),
    )
    assert moments_via_cumulants(SYMMETRIC, 12).values == mu.values
    assert laplace_series(SYMMETRIC, 12).values == mu.values


def _cumulants(mu):
    # kappa_m = E[X^m] - sum_{j<m} C(m-1, j-1) kappa_j E[X^(m-j)]
    kappas = [F(0)]
    for m in range(1, len(mu)):
        kappas.append(mu[m] - sum(comb(m - 1, j - 1) * kappas[j] * mu[m - j] for j in range(1, m)))
    return kappas[1:]


def test_cumulants_frozen():
    # kappa_m = sum_i c_i d_i^(m-1): centered Poisson(1), and a difference of two
    assert _cumulants(moments_via_cumulants(STEP, 5)) == [0, 1, 1, 1, 1]
    assert _cumulants(moments_via_cumulants(SYMMETRIC, 6)) == [0, 2, 0, 2, 0, 2]


def test_moment_recursion_is_the_functional_identity():
    # E[X^m] = L[sum_i c_i (X + d_i)^(m-1)] where L has the computed moments
    for combo in (STEP, WIDE, SYMMETRIC):
        mu = moments_via_recursion(combo, 10)
        for m in range(1, 10):
            img = combo.apply(Poly.monomial(m - 1))
            assert mu[m] == sum(
                img.coeff(j) * mu[j] for j in range(img.degree + 1)
            )


def test_bound_cert_frozen_values():
    cert = bound_cert(STEP, moments_via_recursion(STEP, 20))
    assert cert.a_const == 1 and cert.k == 2
    assert cert.passed and cert.even_passed
    assert cert.checked_up_to == 20
    big_combo = TranslationCombo.parse("3:3,-3:0")
    big = bound_cert(big_combo, moments_via_recursion(big_combo, 20))
    assert big.a_const == F(9, 2) and big.k == 27
    assert big.passed and big.even_passed


def test_bound_cert_checks_the_moments_it_is_given():
    # STEP has k = 2: E[X^2] = 20 breaks k^2 2! = 8 but not (2k)^2 2! = 32.
    cert = bound_cert(STEP, MomentSeq.from_values((F(1), F(0), F(20))))
    assert cert.checked_up_to == 2
    assert not cert.passed and cert.even_passed
    assert not bound_cert(STEP, MomentSeq.from_values((F(1), F(0), F(33)))).even_passed


def test_bound_cert_json_keys():
    d = bound_cert(WIDE, moments_via_recursion(WIDE, 12)).to_json_dict()
    assert set(d) == {"A", "k", "checked_up_to", "pass", "even_pass"}
    assert d["A"] == "1" and d["k"] == "4"


def test_beta0_combo_poisson_family():
    for lam in (F(1), F(2), F(1, 2)):
        p = MeixnerParams(1, lam, 0, lam)
        combo = beta0_combo(p)
        assert set(combo.terms) == {(lam, F(1)), (-lam, F(0))}
        # centered recurrence moments match the combo recursion
        from meixnerops.meixner import szego_jacobi

        centered = MeixnerParams(1, 0, 0, lam)
        mu_rec = moments_from_sj(szego_jacobi(centered), 10)
        mu_combo = moments_via_recursion(combo, 10)
        assert tuple(mu_rec) == mu_combo.values


def test_beta0_combo_scale_independent_of_alpha0():
    p = MeixnerParams(2, 7, 0, 3)
    combo = beta0_combo(p)
    assert set(combo.terms) == {(F(3, 2), F(2)), (F(-3, 2), F(0))}


def test_beta0_combo_term_order():
    # beta = 0 gives a- = (t/alpha) (T_alpha - I): the T_{-alpha} term vanishes
    for alpha, alpha0, t in ((F(1), F(1), F(1)), (F(2), F(-3), F(5)), (F(1, 3), F(0), F(2, 7))):
        combo = beta0_combo(MeixnerParams(alpha, alpha0, 0, t))
        assert combo.terms == ((t / alpha, alpha), (-t / alpha, F(0)))


def test_beta0_combo_rejects_wrong_family():
    with pytest.raises(InvalidParams):
        beta0_combo(MeixnerParams(1, 0, 1, 1))  # beta != 0
    with pytest.raises(InvalidParams):
        beta0_combo(MeixnerParams(0, 0, 0, 1))  # alpha = 0 has no shift scale


def test_random_combos_routes_agree():
    rng = random.Random(20260815)
    for _ in range(12):
        combo = sample_combo(rng)
        mu = moments_via_recursion(combo, 12)
        assert moments_via_cumulants(combo, 12).values == mu.values
        assert laplace_series(combo, 12).values == mu.values
        cert = bound_cert(combo, mu)
        assert cert.passed and cert.even_passed


small_rats = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
shifts = st.fractions(min_value=F(1, 3), max_value=2, max_denominator=3)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(small_rats, shifts), min_size=1, max_size=3, unique_by=lambda t: t[1]))
def test_routes_agree_property(pairs):
    # build a valid combo: positive means on distinct positive shifts, balanced at 0
    terms = [(lam * d, d) for lam, d in pairs]
    balance = -sum(c for c, _ in terms)
    terms.append((balance, F(0)))
    combo = TranslationCombo(tuple(terms))
    mu = moments_via_recursion(combo, 8)
    assert moments_via_cumulants(combo, 8).values == mu.values
    assert laplace_series(combo, 8).values == mu.values
    assert bound_cert(combo, mu).passed
