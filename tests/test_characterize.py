import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meixnerops.characterize as characterize_module
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
)
from meixnerops.meixner import InvalidParams, MeixnerParams, TranslationCombo
from meixnerops.orthopoly import moments_from_sj
from meixnerops.sampling import sample_combo

import support

STEP = TranslationCombo.parse("1:1,-1:0")
WIDE = TranslationCombo.parse("2:1,-2:0")
SYMMETRIC = TranslationCombo.parse("1:1,-1:-1")
STEP_V, WIDE_V, SYMMETRIC_V = map(ensure_valid, (STEP, WIDE, SYMMETRIC))


def test_validate_accepts_mixed_sign_shifts():
    combo = TranslationCombo(((F(1), F(1)), (F(-2), F(-2)), (F(1), F(0))))
    verdict = ensure_valid(combo)
    assert set(verdict.poisson_terms) == {(F(1), F(1)), (F(1), F(-2))}
    assert verdict.to_json_dict() == {
        "poisson_terms": [{"mean": "1", "scale": "1"}, {"mean": "1", "scale": "-2"}]
    }


def test_each_rule_is_reached_once_the_earlier_ones_hold():
    # The first breaks all four rules; each next one mends the rule raised before.
    for text, error, message in (
        ("1:1,1:1,-1:2,0:0", SumNotZero, "coefficients sum to 1, not 0"),
        ("1:1,1:1,-2:2,0:0", DuplicateShift, "shifts must be pairwise distinct"),
        ("1:1,-1:2,0:0", NegativeMean, "term -1:2 would give a nonpositive Poisson mean"),
        ("1:1,-1:-1,0:0", ZeroCoefficient, "useless zero term at shift 0"),
    ):
        with pytest.raises(error) as info:
            ensure_valid(TranslationCombo.parse(text))
        assert type(info.value) is error and str(info.value) == message


def test_typed_errors_in_priority_order():
    with pytest.raises(SumNotZero):
        ensure_valid(TranslationCombo.parse("1:1"))
    with pytest.raises(DuplicateShift):
        ensure_valid(TranslationCombo.parse("1:1,1:1,-2:0"))
    with pytest.raises(NegativeMean):
        ensure_valid(TranslationCombo.parse("1:1,-1:2"))
    with pytest.raises(NegativeMean):
        # a zero coefficient on a nonzero shift gives mean 0, also rejected
        ensure_valid(TranslationCombo.parse("0:1,1:2,-1:0"))
    with pytest.raises(ZeroCoefficient):
        ensure_valid(TranslationCombo.parse("0:0"))


def test_step_combo_frozen_moments():
    mu = moments_via_recursion(STEP_V, 6)
    assert mu.values[:5] == (F(1), F(0), F(1), F(1), F(4))
    assert moments_via_cumulants(STEP_V, 6).values == mu.values
    assert laplace_series(STEP_V, 6).values == mu.values


def test_wide_combo_frozen_moments():
    mu = moments_via_recursion(WIDE_V, 4)
    assert mu[1] == 0 and mu[2] == 2 and mu[3] == 2 and mu[4] == 14


def test_symmetric_combo_moments():
    mu = moments_via_recursion(SYMMETRIC_V, 12)
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
    assert moments_via_cumulants(SYMMETRIC_V, 12).values == mu.values
    assert laplace_series(SYMMETRIC_V, 12).values == mu.values


def _cumulants(mu):
    # kappa_m = E[X^m] - sum_{j<m} C(m-1, j-1) kappa_j E[X^(m-j)]
    kappas = [F(0)]
    for m in range(1, len(mu)):
        kappas.append(mu[m] - sum(comb(m - 1, j - 1) * kappas[j] * mu[m - j] for j in range(1, m)))
    return kappas[1:]


def test_cumulants_frozen():
    # kappa_m = sum_i c_i d_i^(m-1): centered Poisson(1), and a difference of two
    assert _cumulants(moments_via_cumulants(STEP_V, 5)) == [0, 1, 1, 1, 1]
    assert _cumulants(moments_via_cumulants(SYMMETRIC_V, 6)) == [0, 2, 0, 2, 0, 2]


def test_moment_recursion_is_the_functional_identity():
    # E[X^m] = L[sum_i c_i (X + d_i)^(m-1)] where L has the computed moments
    for combo in (STEP, WIDE, SYMMETRIC):
        mu = moments_via_recursion(ensure_valid(combo), 10)
        for m in range(1, 10):
            img = support.apply_combo(combo, support.monomial(m - 1))
            assert mu[m] == sum(
                img.coeff(j) * mu[j] for j in range(img.degree + 1)
            )


def test_bound_cert_frozen_values():
    cert = bound_cert(STEP_V, moments_via_recursion(STEP_V, 20))
    assert cert.a_const == 1 and cert.k == 2
    assert cert.passed and cert.even_passed
    assert cert.checked_up_to == 20
    big_combo = ensure_valid(TranslationCombo.parse("3:3,-3:0"))
    big = bound_cert(big_combo, moments_via_recursion(big_combo, 20))
    assert big.a_const == F(9, 2) and big.k == 27
    assert big.passed and big.even_passed


def test_bound_cert_checks_the_moments_it_is_given():
    # STEP has k = 2: E[X^2] = 20 breaks k^2 2! = 8 but not (2k)^2 2! = 32.
    cert = bound_cert(STEP_V, support.moments((F(1), F(0), F(20))))
    assert cert.checked_up_to == 2
    assert not cert.passed and cert.even_passed
    assert not bound_cert(STEP_V, support.moments((F(1), F(0), F(33)))).even_passed


def test_bound_cert_json_keys():
    d = bound_cert(WIDE_V, moments_via_recursion(WIDE_V, 12)).to_json_dict()
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
        mu_combo = moments_via_recursion(ensure_valid(combo), 10)
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
        combo = ensure_valid(sample_combo(rng))
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
    combo = ensure_valid(TranslationCombo(tuple(terms)))
    mu = moments_via_recursion(combo, 8)
    assert moments_via_cumulants(combo, 8).values == mu.values
    assert laplace_series(combo, 8).values == mu.values
    assert bound_cert(combo, mu).passed


@pytest.mark.parametrize("m_max", [1, 6, 40])
def test_laplace_identity_check_catches_a_corrupted_source(monkeypatch, m_max):
    # source[0] = S sum_i (Q c_i) vanishes because the coefficients sum to zero;
    # the series never reads it, so only the identity check can see it move.
    original = characterize_module._power_sums

    def corrupted(combo, top):
        z, source = original(combo, top)
        return z, [source[0] + 1, *source[1:]]

    monkeypatch.setattr(characterize_module, "_power_sums", corrupted)
    with pytest.raises(ArithmeticError) as exc:
        laplace_series(STEP_V, m_max)
    assert str(exc.value) == (
        "formal transform identity failed at order 0; series is inconsistent"
    )


@pytest.mark.parametrize("route", [moments_via_recursion, moments_via_cumulants, laplace_series])
def test_every_route_refuses_a_negative_m_max(route):
    with pytest.raises(ValueError, match="^m_max must be nonnegative$"):
        route(STEP_V, -1)
