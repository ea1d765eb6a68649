"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single pass/fail line (run with -s to see them all) and
asserts exact equality; there are no tolerances anywhere.
"""

import time
from fractions import Fraction as F
from itertools import product
from random import Random

import pytest

from meixnerops.characterize import (
    beta0_combo,
    bound_cert,
    ensure_valid,
    laplace_series,
    moments_via_cumulants,
    moments_via_recursion,
)
from meixnerops.classify import Unsupported, class_predicates, classify, crosscheck
from meixnerops.exact import Poly, X, rational_sqrt
from meixnerops.meixner import (
    MeixnerParams,
    TranslationCombo,
    recurrence_polys,
    series_decomposition,
    szego_jacobi,
)
from meixnerops.operators import quantum_ops, semi_ops, verify_universal
from meixnerops.orthopoly import gram_schmidt_from_moments, moments_from_sj
from meixnerops.pmd import XDWord, normal_order
from meixnerops.sampling import sample_combo, sample_params, sample_params_delta0
from meixnerops.suites import extraction_agreement

import support
from support import commutator

TRUNC = 12

REPRESENTATIVES = (
    MeixnerParams(0, 0, 0, 1),  # Gaussian
    MeixnerParams(1, 1, 0, 1),  # Poisson
    MeixnerParams(3, 0, 2, 2),  # Pascal
    MeixnerParams(2, 1, 1, 1),  # Gamma
    MeixnerParams(0, 0, 1, 1),  # hyperbolic secant type
    MeixnerParams(0, 0, -1, 2),  # Binomial
)


def _line(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}", flush=True)


@pytest.fixture(scope="module")
def param_sets():
    rng = Random(20260815)
    # support dimension >= 13 so truncation at N = 12 is honest for all draws
    return [sample_params(rng, min_dim=TRUNC + 1) for _ in range(25)]


@pytest.fixture(scope="module")
def combos():
    rng = Random(55)
    named = [
        TranslationCombo.parse("1:1,-1:0"),
        TranslationCombo.parse("2:1,-2:0"),
        TranslationCombo.parse("1:1,-1:-1"),  # the symmetric example
    ]
    return named + [sample_combo(rng) for _ in range(10)]


def test_criterion_1_universal_commutators(param_sets):
    start = time.perf_counter()
    ok = True
    for p in param_sets:
        sj = szego_jacobi(p)
        reports = verify_universal(sj, TRUNC, *recurrence_polys(sj))
        ok = ok and len(reports) == 6
        for rep in reports:
            ok = ok and rep.passed and rep.max_degree >= 10
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _line(1, f"universal commutators, {elapsed:.2f}s", ok)
    assert ok


def test_criterion_2_step1_commutator(param_sets):
    ok = True
    for p in param_sets:
        d = p.derived()
        sj = szego_jacobi(p)
        aplus, azero, aminus = quantum_ops(sj, TRUNC)
        u, _ = semi_ops(aplus, azero, aminus)
        x = aminus + azero + aplus
        step1 = commutator(u, x)
        closed1 = support.comm_ux_closed_form(p, x)
        for n in range(11):
            ok = ok and step1.column(n) == closed1.column(n)
        step2 = commutator(step1, x)
        closed2 = support.difference(x, u.scale(2)).scale(-d.delta / 2)
        for n in range(10):
            ok = ok and step2.column(n) == closed2.column(n)
        if not ok:
            break
    _line(2, "step-1 commutator closed forms", ok)
    assert ok


def test_criterion_3_pmd_closed_forms(param_sets):
    ok = True
    for p in param_sets:
        for op in ("U", "V", "N", "a0", "a-", "a+"):
            report = extraction_agreement(p, op, 10, series_decomposition(p, op, 10))
            ok = ok and report.max_degree == 10 and report.passed
        if not ok:
            break
    # on the Delta = 0 locus U keeps only the two leading terms
    rng = Random(31)
    for p in [sample_params_delta0(rng) for _ in range(10)] + [MeixnerParams(2, 1, 1, 1)]:
        u = series_decomposition(p, "U", 10)
        ok = ok and u.coeff(0) == Poly.of(p.alpha0 / 2)
        ok = ok and u.coeff(1) == (p.alpha / 2) * Poly.of(-p.alpha0, 1) + Poly.of(p.t)
        ok = ok and not u.coeff(1).is_zero
        ok = ok and all(u.coeff(n).is_zero for n in range(2, 11))
    _line(3, "position-momentum closed forms", ok)
    assert ok


def test_criterion_4_gram_schmidt_round_trip():
    ok = True
    for p in REPRESENTATIVES:
        sj = szego_jacobi(p)
        mu = moments_from_sj(sj, 16)
        rec = gram_schmidt_from_moments(mu, 8)
        if sj.support_bound is None:
            ok = ok and rec.support_bound is None
            ok = ok and all(support.alpha(rec, n) == support.alpha(sj, n) for n in range(8))
            ok = ok and all(rec.omega(n) == sj.omega(n) for n in range(1, 9))
        else:
            bound = sj.support_bound
            ok = ok and rec.support_bound == bound
            ok = ok and all(support.alpha(rec, n) == support.alpha(sj, n) for n in range(bound))
            ok = ok and all(rec.omega(n) == sj.omega(n) for n in range(1, bound + 1))
    _line(4, "moments -> Gram-Schmidt round trip", ok)
    assert ok


def test_criterion_5_characterization_oracles(combos):
    ok = True
    verdicts = [ensure_valid(combo) for combo in combos]
    for verdict in verdicts:
        mu = moments_via_recursion(verdict, 12)
        ok = ok and moments_via_cumulants(verdict, 12).values == mu.values
        ok = ok and laplace_series(verdict, 12).values == mu.values
    step_mu = moments_via_recursion(verdicts[0], 4)
    ok = ok and step_mu.values == (F(1), F(0), F(1), F(1), F(4))
    sym_mu = moments_via_recursion(verdicts[2], 12)
    ok = ok and all(sym_mu[m] == 0 for m in range(1, 13, 2))
    _line(5, "three characterization oracles agree", ok)
    assert ok


def test_criterion_6_beta0_bridge():
    ok = True
    for lam in (F(1), F(2), F(1, 2)):
        combo = beta0_combo(MeixnerParams(1, lam, 0, lam))
        ok = ok and set(combo.terms) == {(lam, F(1)), (-lam, F(0))}
        centered = moments_from_sj(szego_jacobi(MeixnerParams(1, 0, 0, lam)), 10)
        ok = ok and moments_via_recursion(ensure_valid(combo), 10).values == centered.values
    _line(6, "beta = 0 translation bridge", ok)
    assert ok


def test_criterion_7_growth_bounds(combos):
    ok = True
    for verdict in map(ensure_valid, combos):
        cert = bound_cert(verdict, moments_via_recursion(verdict, 20))
        ok = ok and cert.passed and cert.even_passed and cert.checked_up_to == 20
    _line(7, "factorial growth bound certificates", ok)
    assert ok


def test_criterion_8_classification():
    rng = Random(8)
    ok = True
    for _ in range(500):
        p = sample_params(rng)
        preds = class_predicates(p)
        ok = ok and sum(preds.values()) == 1
        cls = classify(p)
        tag = cls.to_json_dict()["class"]
        ok = ok and preds[tag]
        if tag in ("Gaussian", "Poisson", "Gamma", "Binomial"):
            ok = ok and crosscheck(p, cls, 8).passed
        elif tag == "Pascal" and rational_sqrt(p.derived().delta) is not None:
            ok = ok and crosscheck(p, cls, 8).passed
        else:
            with pytest.raises(Unsupported):
                crosscheck(p, cls, 8)
        if tag == "Binomial":
            points = p.derived().support_bound  # n + 1
            mu = moments_from_sj(szego_jacobi(p), 2 * points)
            ok = ok and gram_schmidt_from_moments(mu, points).support_bound == points
        if not ok:
            break
    _line(8, "six-way classification over 500 draws", ok)
    assert ok


def test_criterion_9_normal_ordering():
    ok = True
    count = 0
    monomials = [support.monomial(m) for m in range(13)]
    for length in range(7):
        for letters in product("XD", repeat=length):
            word = XDWord(tuple(letters))
            decomp = normal_order(word)
            count += 1
            for f in monomials:
                brute = f
                for letter in reversed(letters):
                    brute = X * brute if letter == "X" else brute.derivative()
                ok = ok and support.apply_expansion(decomp, f) == brute
    ok = ok and count == 127
    _line(9, "normal ordering of X/D words", ok)
    assert ok
