import importlib
import random
from fractions import Fraction as F

import pytest

from meixnerops.classify import (
    Binomial,
    Gamma,
    Gaussian,
    HyperbolicSecant,
    Pascal,
    Poisson,
    Unsupported,
    class_predicates,
    classify,
    crosscheck,
    distribution_moments,
)
from meixnerops.meixner import MeixnerParams, szego_jacobi
from meixnerops.orthopoly import MomentSeq, gram_schmidt_from_moments, moments_from_sj
from meixnerops.sampling import KINDS, sample_params
from meixnerops.surd import Quadratic


def test_gaussian_representative():
    cls = classify(MeixnerParams(0, 0, 0, 1))
    assert cls == Gaussian(mean=F(0), variance=F(1))
    assert distribution_moments(cls, 6).values == (F(1), F(0), F(1), F(0), F(3), F(0), F(15))


def test_poisson_representative():
    cls = classify(MeixnerParams(1, 1, 0, 1))
    assert cls == Poisson(rate=F(1), scale=F(1), shift=F(0))
    # raw Poisson(1) moments are the Bell numbers
    assert distribution_moments(cls, 6).values == (F(1), F(1), F(2), F(5), F(15), F(52), F(203))


def test_pascal_representative():
    cls = classify(MeixnerParams(3, 0, 2, 2))
    assert isinstance(cls, Pascal)
    assert cls.r == 1
    assert cls.p.as_rational() == F(1, 2)
    assert cls.scale.as_rational() == 1
    assert cls.shift.as_rational() == -1
    assert crosscheck(MeixnerParams(3, 0, 2, 2), 8).passed


def test_gamma_representative():
    cls = classify(MeixnerParams(2, 1, 1, 1))
    assert cls == Gamma(shape=F(1), scale=F(1), shift=F(0))
    # unit-scale Gamma(1) is Exponential(1): E[X^m] = m!
    assert distribution_moments(cls, 5).values == (F(1), F(1), F(2), F(6), F(24), F(120))


def test_gamma_shape_differs_from_rate_times_two():
    cls = classify(MeixnerParams(1, 0, F(1, 4), 1))
    assert cls == Gamma(shape=F(4), scale=F(1, 2), shift=F(-2))
    assert crosscheck(MeixnerParams(1, 0, F(1, 4), 1), 8).passed


def test_hyperbolic_secant_representative():
    cls = classify(MeixnerParams(0, 0, 1, 1))
    assert isinstance(cls, HyperbolicSecant)
    assert cls.gamma == Quadratic.sqrt(4)  # folds to the rational 2
    assert cls.gamma.as_rational() == 2
    assert cls.r == Quadratic.sqrt(4)
    assert cls.tan_theta.as_rational() == 0
    with pytest.raises(Unsupported):
        distribution_moments(cls, 4)


def test_binomial_representative():
    cls = classify(MeixnerParams(0, 0, -1, 2))
    assert isinstance(cls, Binomial)
    assert cls.n == 2
    assert cls.success_radicand == 0
    plus, minus = cls.branches
    assert plus.p.as_rational() == F(1, 2) and minus.p.as_rational() == F(1, 2)
    assert plus.scale.as_rational() == 2 and minus.scale.as_rational() == -2
    assert plus.shift.as_rational() == -2 and minus.shift.as_rational() == 2
    assert crosscheck(MeixnerParams(0, 0, -1, 2), 8).passed


def test_binomial_plain_coin_moments():
    cls = classify(MeixnerParams(0, 1, F(-1, 4), F(1, 2)))
    assert isinstance(cls, Binomial) and cls.n == 2
    assert distribution_moments(cls, 2).values == (F(1), F(1), F(3, 2))


def test_binomial_irrational_scale():
    p = MeixnerParams(1, 0, F(-1, 2), 1)
    cls = classify(p)
    assert isinstance(cls, Binomial)
    assert cls.n == 2
    assert cls.success_radicand == F(1, 3)
    plus = cls.branches[0]
    assert plus.p == Quadratic(F(1, 2), F(-1, 6), 3)
    # the surds cancel between the two branches and against the recurrence
    assert crosscheck(p, 8).passed


def test_binomial_moments_on_a_million_points():
    p = MeixnerParams(1, F(1, 3), F(-1, 10**6), 1)
    cls = classify(p)
    assert isinstance(cls, Binomial) and cls.n == 10**6
    assert distribution_moments(cls, 24).values == moments_from_sj(szego_jacobi(p), 24).values


def test_pascal_irrational_scale_unsupported():
    p = MeixnerParams(3, 0, 1, 1)  # delta = 5
    cls = classify(p)
    assert isinstance(cls, Pascal)
    assert not cls.scale.is_rational
    with pytest.raises(Unsupported):
        distribution_moments(cls, 4)


def test_predicates_partition():
    rng = random.Random(7)
    for i in range(120):
        kind = KINDS[i % len(KINDS)]
        p = sample_params(rng, kind=kind)
        preds = class_predicates(p)
        assert sum(preds.values()) == 1, p
        assert preds[kind], (kind, p)
        tag = classify(p).to_json_dict()["class"]
        assert preds[tag]


def test_crosschecks_on_sampled_parameters():
    rng = random.Random(11)
    for kind in ("Gaussian", "Poisson", "Gamma", "Binomial"):
        for _ in range(4):
            p = sample_params(rng, kind=kind)
            report = crosscheck(p, 8)
            assert report.passed, (kind, p, report)


def test_crosscheck_report_shape():
    report = crosscheck(MeixnerParams(1, 1, 0, 1), 6)
    assert report.passed and report.max_degree == 6
    assert report.name.startswith("Poisson")
    assert report.to_json_dict()["pass"] is True


@pytest.mark.parametrize("bumped,fail_index", [((5, 7), 5), ((8,), 8)])
def test_failing_crosscheck_reports_the_first_moment(monkeypatch, bumped, fail_index):
    # The package exports the function ``classify``, which hides the module.
    classify_module = importlib.import_module("meixnerops.classify")

    def perturbed(sj, m_max):
        mu = moments_from_sj(sj, m_max)
        return MomentSeq.from_values(tuple(v + (m in bumped) for m, v in enumerate(mu.values)))

    monkeypatch.setattr(classify_module, "moments_from_sj", perturbed)
    assert crosscheck(MeixnerParams(1, 1, 0, 1), 8).to_json_dict() == {
        "identity": "Poisson moments match recurrence moments",
        "pass": False,
        "max_degree": 8,
        "fail_index": fail_index,
        "residual": None,
    }


@pytest.mark.parametrize("factor", [1, 6])
@pytest.mark.parametrize("bumped", [None, 4])
def test_crosscheck_compares_moments_over_different_scales(monkeypatch, factor, bumped):
    # The oracle's moments, over another scale than the recurrence's (36 against 12),
    # and then over 6 times that; one is bumped by E[X^4] -> E[X^4] + 1/scale^4.
    classify_module = importlib.import_module("meixnerops.classify")
    original = classify_module.distribution_moments
    seen = []

    def rescaled(cls, m_max):
        mu = original(cls, m_max)
        seen.append(mu.scale)
        nums = tuple(a * factor**m + (m == bumped) for m, a in enumerate(mu.nums))
        return MomentSeq(nums, mu.scale * factor)

    monkeypatch.setattr(classify_module, "distribution_moments", rescaled)
    p = MeixnerParams(F(3, 2), F(1, 3), 0, F(5, 4))
    report = crosscheck(p, 8).to_json_dict()
    assert seen == [36] and moments_from_sj(szego_jacobi(p), 8).scale == 12
    if bumped is None:
        assert report["pass"] is True
    else:
        assert report == {
            "identity": "Poisson moments match recurrence moments",
            "pass": False,
            "max_degree": 8,
            "fail_index": bumped,
            "residual": None,
        }


# The Chebyshev squared norms are ratios of consecutive Hankel minors,
# det H_k / det H_(k-1), so the first vanishing norm is the first vanishing minor.


def test_finite_support_hankel_degeneracy():
    p = MeixnerParams(0, 0, -1, 2)
    mu = moments_from_sj(szego_jacobi(p), 8)
    rec = gram_schmidt_from_moments(mu, 4)
    assert rec.support_bound == p.derived().support_bound  # n + 1 points


def test_infinite_support_hankel_positive():
    mu = moments_from_sj(szego_jacobi(MeixnerParams(2, 1, 1, 1)), 8)
    rec = gram_schmidt_from_moments(mu, 4)
    assert rec.support_bound is None
    assert all(rec.omega(n) > 0 for n in range(1, 5))
