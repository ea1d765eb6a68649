from dataclasses import replace
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meixnerops.exact import Poly, X, ZERO, rational_sqrt
from meixnerops.meixner import (
    _check_against_series,
    OPS,
    InvalidParams,
    MeixnerParams,
    NotASquare,
    TranslationCombo,
    one_meixner_limit_check,
    recurrence_polys,
    series_decomposition,
    szego_jacobi,
    translation_exprs,
    translation_form,
)
from meixnerops.operators import (
    VerifyReport,
    poly_diagonals,
    quantum_ops,
    semi_ops,
)
from meixnerops.pmd import PMDecomp
from meixnerops.suites import extraction_agreement
from meixnerops.surd import Quadratic

import support
from support import commutator, number_op

GAUSSIAN = MeixnerParams(0, 0, 0, 1)
POISSON = MeixnerParams(1, 1, 0, 1)
PASCAL = MeixnerParams(3, 0, 2, 2)
GAMMA = MeixnerParams(2, 1, 1, 1)
SECH = MeixnerParams(0, 0, 1, 1)
COIN = MeixnerParams(0, 0, -1, 2)
ALL = (GAUSSIAN, POISSON, PASCAL, GAMMA, SECH, COIN)


def test_params_validation():
    with pytest.raises(InvalidParams):
        MeixnerParams(1, 0, 0, 0)  # t must be positive
    with pytest.raises(InvalidParams):
        MeixnerParams(-1, 0, 0, 1)  # alpha must be nonnegative
    with pytest.raises(InvalidParams):
        MeixnerParams(0, 0, -1, F(3, 2))  # t/(-beta) must be a positive integer
    MeixnerParams(0, 0, F(-1, 2), F(3, 2))  # t/(-beta) = 3 is fine


def test_from_strings():
    p = MeixnerParams.from_strings("3/2", "-1", "0", "2")
    assert p.alpha == F(3, 2) and p.alpha0 == -1 and p.beta == 0 and p.t == 2
    with pytest.raises(ValueError):
        MeixnerParams.from_strings("x", "0", "0", "1")


def test_derived_quantities():
    assert PASCAL.delta == 1 and PASCAL.tau == 4 and PASCAL.support_bound is None
    assert COIN.delta == 4 and COIN.tau == 4 and COIN.support_bound == 3


def test_derived_fields_are_set_once_and_ignored_by_identity():
    p = MeixnerParams(F(1, 2), F(1, 3), 0, 1)
    assert repr(p) == (
        "MeixnerParams(alpha=Fraction(1, 2), alpha0=Fraction(1, 3), "
        "beta=Fraction(0, 1), t=Fraction(1, 1))"
    )
    assert hash(p) == hash((p.alpha, p.alpha0, p.beta, p.t))
    # A twin whose derived fields are overwritten still equals p, hashes and
    # prints alike: only the four parameters make up the value.
    twin = MeixnerParams(F(1, 2), F(1, 3), 0, 1)
    for name, value in (("delta", F(-7)), ("tau", F(0)), ("support_bound", 5)):
        object.__setattr__(twin, name, value)
    assert twin == p and hash(twin) == hash(p) and repr(twin) == repr(p)
    with pytest.raises(TypeError):
        MeixnerParams(0, 0, 0, 1, delta=0)
    # Python 3.13 raises TypeError where earlier versions raise ValueError.
    with pytest.raises((TypeError, ValueError), match="init=False"):
        replace(p, support_bound=4)
    # replace rebuilds the value, so the derived fields follow the new beta.
    q = replace(p, beta=-p.t / 3)
    assert (q.delta, q.tau, q.support_bound) == (F(1, 4) + F(4, 3), 2 - F(1, 6), 4)
    assert (p.delta, p.tau, p.support_bound) == (F(1, 4), 2 - F(1, 6), None)
    assert replace(q, beta=0) == p and replace(q, beta=0).support_bound is None


def test_szego_jacobi_coefficients():
    sj = szego_jacobi(POISSON)
    assert [support.alpha(sj, n) for n in range(4)] == [1, 2, 3, 4]
    assert [sj.omega(n) for n in range(1, 5)] == [1, 2, 3, 4]
    sj2 = szego_jacobi(COIN)
    assert sj2.support_bound == 3
    assert [sj2.omega(n) for n in range(1, 4)] == [2, 2, 0]


def _fracs(lo, hi):
    return st.fractions(lo, hi, max_denominator=12)


@st.composite
def meixner_params(draw):
    """Every class; beta < 0 puts the law on 2 .. 41 points."""
    alpha, alpha0, t = draw(_fracs(0, 3)), draw(_fracs(-2, 2)), draw(_fracs(F(1, 12), 3))
    beta = -t / draw(st.integers(1, 40)) if draw(st.booleans()) else draw(_fracs(0, 3))
    return MeixnerParams(alpha, alpha0, beta, t)


@settings(deadline=None, max_examples=200)
@given(meixner_params(), st.integers(3, 40))
# D = 3 though D^2 beta = 9/2 is not an integer: D^2 omega_n = 9 n (n + 1) / 2.
@example(MeixnerParams(0, F(1, 3), F(1, 2), 1), 3)
def test_szego_jacobi_is_the_recurrence_over_its_least_scale(p, top):
    sj = szego_jacobi(p)
    bound = sj.support_bound
    alphas = [p.alpha * n + p.alpha0 for n in range(41)]
    omegas = [p.beta * n * n + (p.t - p.beta) * n for n in range(41)]
    inside = 41 if bound is None else min(41, bound)
    assert [support.alpha(sj, n) for n in range(inside)] == alphas[:inside]
    assert [sj.omega(n) for n in range(min(41, inside + 1))] == omegas[:inside + 1]
    assert sj.scale == lcm(*(v.denominator for v in alphas[:top + 1] + omegas[1:top + 1]))
    # The support bound is the first n >= 1 with omega_n = 0, from the definition.
    first_zero = next((n for n in range(1, 42) if p.beta * n * n + (p.t - p.beta) * n == 0), None)
    assert bound == p.support_bound == first_zero
    # The polynomials in n hold past the support too.
    alpha, omega = recurrence_polys(p)
    assert [support.evaluate(alpha, n) for n in range(41)] == alphas
    assert [support.evaluate(omega, n) for n in range(41)] == omegas


def test_step1_commutator_closed_form():
    for p in (POISSON, PASCAL, GAMMA, SECH):
        sj = szego_jacobi(p)
        aplus, azero, aminus = quantum_ops(sj, 12)
        u, _ = semi_ops(aplus, azero, aminus)
        x = aminus + azero + aplus
        lhs = commutator(u, x)
        rhs = support.comm_ux_closed_form(p, x)
        assert lhs.valid_degree >= 10
        for n in range(11):
            assert lhs.column(n) == rhs.column(n), (p, n)


def test_double_commutator_closed_form():
    for p in (POISSON, PASCAL, COIN):
        sj = szego_jacobi(p)
        trunc = 12 if p.support_bound is None else p.support_bound - 1
        aplus, azero, aminus = quantum_ops(sj, trunc)
        u, _ = semi_ops(aplus, azero, aminus)
        x = aminus + azero + aplus
        lhs = commutator(commutator(u, x), x)
        rhs = support.difference(x, u.scale(2)).scale(-p.delta / 2)
        top = min(lhs.valid_degree, rhs.valid_degree)
        assert top >= (9 if p.support_bound is None else 0)
        for n in range(top + 1):
            assert lhs.column(n) == rhs.column(n), (p, n)


def test_pmd_u_gaussian_is_pure_momentum():
    u = series_decomposition(GAUSSIAN, "U", 6)
    assert u.coeff(0) == ZERO
    assert u.coeff(1) == Poly.of(1)
    assert all(u.coeff(n) == ZERO for n in range(2, 7))


def test_pmd_u_coin_frozen_coefficients():
    u = series_decomposition(COIN, "U", 4)
    assert u.coeff(0) == ZERO
    assert u.coeff(1) == Poly.of(2)  # (alpha/2)(X - alpha0) + t with alpha = 0
    assert u.coeff(2) == -X  # -(1/2) Delta/2! X with Delta = 4
    assert u.coeff(3) == Poly.of(F(4, 3))  # Delta/3! * t
    assert u.coeff(4) == F(-1, 3) * X  # -(1/2) Delta^2/4! X


def test_pmd_a0_poisson():
    a0 = series_decomposition(POISSON, "a0", 4)
    assert a0.coeff(0) == Poly.of(1)  # alpha0
    assert a0.coeff(1) == Poly.of(-1, 1)  # alpha (X - alpha0)
    assert a0.coeff(2) == Poly.of(F(-1, 2), F(-1, 2))  # -(alpha/2)(alpha X + tau)
    assert a0.k == 0


def test_pmd_partitions_of_x():
    for p in ALL:
        u = series_decomposition(p, "U", 8)
        v = series_decomposition(p, "V", 8)
        assert (u.coeff(0) + v.coeff(0)) == X
        for n in range(1, 9):
            assert u.coeff(n) + v.coeff(n) == ZERO
        am = series_decomposition(p, "a-", 8)
        a0 = series_decomposition(p, "a0", 8)
        ap = series_decomposition(p, "a+", 8)
        assert am.coeff(0) + a0.coeff(0) + ap.coeff(0) == X
        for n in range(1, 9):
            assert am.coeff(n) + a0.coeff(n) + ap.coeff(n) == ZERO


def test_pmd_recursion_invariant():
    # A_{n+2} = Delta/((n+2)(n+1)) * (A_n - (1/2) X delta_{n0}) for the U series
    for p in ALL:
        delta = p.delta
        u = series_decomposition(p, "U", 9)
        for n in range(8):
            base = u.coeff(n) - (F(1, 2) * X if n == 0 else ZERO)
            assert u.coeff(n + 2) == delta * base * F(1, (n + 2) * (n + 1)), (p, n)


def test_closed_form_grade_is_the_matrix_band():
    # The grade k of each closed form is the top diagonal of the operator's
    # matrix, and no polynomial diagonal of the operator lies above it.
    for p in ALL:
        sj = szego_jacobi(p)
        aplus, azero, aminus = quantum_ops(sj, 2)
        u, v = semi_ops(aplus, azero, aminus)
        matrices = {"U": u, "V": v, "N": number_op(2), "a0": azero, "a-": aminus, "a+": aplus}
        alpha, omega = recurrence_polys(p)
        for op in OPS:
            k = series_decomposition(p, op, 0).k
            assert k == matrices[op].band[1], (p, op)
            assert all(d <= k for d in support.poly_form(poly_diagonals(op, alpha, omega))), (p, op)


def test_series_decomposition_dispatch():
    assert series_decomposition(POISSON, "U", 3).coeff(0) == Poly.of(F(1, 2))
    with pytest.raises(ValueError):
        series_decomposition(POISSON, "Q", 3)


def test_passing_extraction_builds_no_coefficient_fraction(monkeypatch):
    # Closed forms, peel and comparison all stay on integer polynomials.
    def forbidden(*args):
        raise AssertionError("a Fraction coefficient was built")

    monkeypatch.setattr(Poly, "coeffs", property(forbidden))
    monkeypatch.setattr(Poly, "coeff", forbidden)
    for p in ALL + (MeixnerParams(F(5, 7), F(-3, 11), F(2, 13), F(7, 5)),):
        for op in OPS:
            closed = series_decomposition(p, op, 12)
            assert extraction_agreement(p, op, 12, closed).passed, (p, op)


def test_one_meixner_limit():
    report = one_meixner_limit_check(GAMMA, order=10)
    assert report.passed
    gauss = one_meixner_limit_check(GAUSSIAN, order=10)
    assert gauss.passed
    with pytest.raises(InvalidParams):
        one_meixner_limit_check(PASCAL)


def test_translation_form_exact_square():
    rep = translation_form(PASCAL)
    assert rep.delta == 1
    assert rep.passed is True
    assert set(rep.forms) == {"U", "N", "a0", "a-"}
    u = rep.forms["U"]
    assert u.to_json_dict() == [
        {"coeff": ["1", "1/2"], "shift": "1"},
        {"coeff": ["-1", "-1"], "shift": "-1"},
        {"coeff": ["0", "1/2"], "shift": "0"},
    ]
    assert str(u) == "(1/2*X + 1) T[1] + (-X - 1) T[-1] + (1/2*X) I"
    assert all(check.passed for check in rep.checks)


def test_translation_form_apply_matches_operator_series():
    # the translation expression, as an operator series, acts on monomials as the closed form
    rep = translation_form(COIN)
    am = series_decomposition(COIN, "a-", 12)
    form = PMDecomp(am.k, rep.forms["a-"].series(12))
    assert form == am
    for m in range(8):
        mono = support.monomial(m)
        assert support.apply_expansion(form, mono) == support.apply_expansion(am, mono)


def test_translation_form_collapses_at_delta_zero():
    rep = translation_form(GAMMA)
    assert rep.delta == 0
    assert rep.forms == {}
    assert set(rep.limit_forms) == {"U", "N", "a0", "a-"}
    assert rep.passed is True
    assert rep.limit_forms["U"].coeff(1) == F(1, 2) * Poly.of(GAMMA.tau, GAMMA.alpha)


SURD = MeixnerParams(1, 0, F(-1, 2), 1)  # Delta = 3


def test_translation_form_irrational_delta_exact():
    rep = translation_form(SURD)
    assert rep.delta_squared == 3 and rep.delta is None
    assert rep.passed is True
    assert [(c.passed, c.max_degree) for c in rep.checks] == [(True, 12)] * 4
    shift = rep.forms["U"].to_json_dict()[0]["shift"]
    assert (shift["rational_part"], shift["root_coefficient"], shift["radicand"]) == ("0", "1", "3")
    assert shift["decimal"].startswith("1.7320508")


def test_translation_form_irrational_rendering():
    u = translation_form(SURD).forms["U"]
    assert str(u) == (
        "(-1/4*X + sqrt(3)*(1/12*X + 1/6)) T[sqrt(3)]"
        " + (-1/4*X + sqrt(3)*(-1/12*X - 1/6)) T[-sqrt(3)] + (1/2*X) I"
    )
    plus, minus, ident = u.to_json_dict()
    assert [c["root_coefficient"] for c in plus["coeff"]] == ["1/6", "1/12"]
    assert plus["coeff"][1]["rational_part"] == "-1/4"
    assert minus["shift"]["root_coefficient"] == "-1"
    assert ident == {"coeff": ["0", "1/2"], "shift": "0"}
    for expr in translation_exprs(SURD).values():
        # the -delta coefficients are the Galois conjugates of the +delta ones
        assert expr.coefficients(-1) == tuple(
            Quadratic(c.a, -c.b, c.s) for c in expr.coefficients(1)
        )


def test_translation_form_rejects_negative_delta():
    with pytest.raises(NotASquare):
        translation_form(SECH)


def test_translation_form_check_reports_perturbation():
    for p in (PASCAL, SURD):
        form = translation_exprs(p)["U"]
        bad = replace(form, odd=form.odd + F(1, 7))
        report = _check_against_series(p, "U", bad.series(12), 12)
        # S annihilates constants and maps X to 1, so the check fails at X^1
        assert report.passed is False
        assert report.fail_index == 1
        assert report.residual == Poly.of(F(1, 7))


def test_passing_translation_form_acts_on_no_polynomial(monkeypatch):
    # The check compares coefficients: it differentiates nothing and applies no expansion.
    def forbidden(*args):
        raise AssertionError("the translation check acted on a polynomial")

    monkeypatch.setattr(Poly, "derivative", forbidden)
    for p in (PASCAL, SURD, COIN, GAMMA, GAUSSIAN):
        assert translation_form(p, max_degree=24).passed


def _perturb_series(monkeypatch, op, index, delta):
    """Make ``series_decomposition`` add ``delta`` to A_index of ``op``."""
    import meixnerops.meixner as meixner

    original = meixner.series_decomposition

    def perturbed(p, name, order):
        decomp = original(p, name, order)
        if name != op:
            return decomp
        coeffs = [decomp.coeff(n) for n in range(max(len(decomp.coeffs), index + 1))]
        coeffs[index] = coeffs[index] + delta
        return PMDecomp(decomp.k, tuple(coeffs))

    monkeypatch.setattr(meixner, "series_decomposition", perturbed)


@pytest.mark.parametrize("p", [PASCAL, SURD], ids=["rational", "irrational"])
def test_failing_translation_form_reports_index_and_residual(monkeypatch, p):
    _perturb_series(monkeypatch, "N", 3, Poly.of(F(1, 3), F(-2, 5)))
    report = translation_form(p, max_degree=6)
    assert report.passed is False
    # The series gains A_3 D^3, which first acts on X^3, as 6 A_3.
    assert [c.to_json_dict() for c in report.checks] == [
        {"identity": f"{name} translation form", "pass": name != "N", "max_degree": 6,
         "fail_index": 3 if name == "N" else None,
         "residual": ["-2", "12/5"] if name == "N" else None}
        for name in ("U", "N", "a0", "a-")
    ]


@pytest.mark.parametrize(
    "index,delta",
    [
        (0, Poly.of(F(2, 3))),
        (1, Poly.of(0, F(-1, 5))),
        (4, Poly.of(1, 0, 0, F(3, 4))),
        (10, Poly.of(0, F(5, 2))),  # the last coefficient checked at order 10
    ],
)
def test_failing_limit_check_reports_index_and_residual(monkeypatch, index, delta):
    # A_0 and A_1 are compared with their closed forms, A_n (n >= 2) with zero.
    _perturb_series(monkeypatch, "U", index, delta)
    report = one_meixner_limit_check(GAMMA, order=10)
    assert report == VerifyReport("Delta=0 limit of U", False, 10, index, delta)
    assert report.to_json_dict()["residual"] == delta.to_json()


def test_combo_parse_format_roundtrip():
    combo = TranslationCombo.parse("1:1,-1/2:0, 3/2:-2")
    assert combo.terms == ((F(1), F(1)), (F(-1, 2), F(0)), (F(3, 2), F(-2)))
    assert TranslationCombo.parse(combo.format()).terms == combo.terms
    with pytest.raises(ValueError):
        TranslationCombo.parse("")
    with pytest.raises(ValueError):
        TranslationCombo.parse("1;2")


def test_combo_apply():
    combo = TranslationCombo.parse("1:1,-1:0")
    f = Poly.of(0, 0, 1)
    assert support.apply_combo(combo, f) == Poly.of(1, 2)  # (X+1)^2 - X^2


rat_alpha = st.fractions(min_value=0, max_value=3, max_denominator=4)
rat_alpha0 = st.fractions(min_value=-2, max_value=2, max_denominator=4)
rat_beta = st.fractions(min_value=0, max_value=2, max_denominator=4)
rat_t = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)


@settings(deadline=None, max_examples=30)
@given(rat_alpha, rat_alpha0, rat_beta, rat_t)
def test_extraction_matches_closed_forms_random(alpha, alpha0, beta, t):
    from meixnerops.operators import to_monomial_basis
    from meixnerops.pmd import extract_pmd

    p = MeixnerParams(alpha, alpha0, beta, t)
    sj = szego_jacobi(p)
    trunc = 9
    aplus, azero, aminus = quantum_ops(sj, trunc)
    u, v = semi_ops(aplus, azero, aminus)
    for name, graded, k in (
        ("U", u, 0),
        ("V", v, 1),
        ("N", number_op(trunc), 0),
        ("a0", azero, 0),
        ("a-", aminus, -1),
        ("a+", aplus, 1),
    ):
        order = 6
        extracted = extract_pmd(to_monomial_basis(graded, sj), k, order)
        closed = series_decomposition(p, name, order)
        for n in range(order + 1):
            assert extracted.coeff(n) == closed.coeff(n), (name, n)


@st.composite
def any_params(draw):
    """Admissible parameters with Delta of every sign, Delta = 0 included."""
    alpha, alpha0 = draw(rat_alpha), draw(rat_alpha0)
    kind = draw(st.sampled_from(["free", "flat", "finite"]))
    if kind == "flat":
        return MeixnerParams(alpha, alpha0, alpha**2 / 4, draw(rat_t))
    if kind == "finite":
        beta = -draw(st.fractions(min_value=F(1, 4), max_value=2, max_denominator=4))
        return MeixnerParams(alpha, alpha0, beta, -beta * draw(st.integers(1, 4)))
    return MeixnerParams(alpha, alpha0, draw(rat_beta), draw(rat_t))


@st.composite
def square_delta_params(draw):
    """Admissible parameters whose Delta is the square of a positive rational."""
    alpha, alpha0 = draw(rat_alpha), draw(rat_alpha0)
    delta = draw(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4))
    beta = (alpha**2 - delta**2) / 4
    t = -beta * draw(st.integers(1, 4)) if beta < 0 else draw(rat_t)
    return MeixnerParams(alpha, alpha0, beta, t)


@settings(deadline=None, max_examples=40)
@given(any_params())
def test_translation_form_every_delta(p):
    delta_sq = p.delta
    if delta_sq < 0:
        with pytest.raises(NotASquare):
            translation_form(p, max_degree=8)
        return
    rep = translation_form(p, max_degree=8)
    assert rep.passed is True
    assert [c.passed for c in rep.checks] == [True] * 4
    assert rep.delta == rational_sqrt(delta_sq)
    if delta_sq == 0:
        assert rep.forms == {}
        assert set(rep.limit_forms) == {"U", "N", "a0", "a-"}
    else:
        assert rep.limit_forms == {}
        assert set(rep.forms) == {"U", "N", "a0", "a-"}


def _apply_rows(expr, f: Poly) -> Poly:
    """Reference action of the rendered terms: sum_i p_i(X) f(X + c_i) over Q."""
    out = ZERO
    for coeffs, shift in expr.terms:
        weight = Poly.of(*(c.as_rational() for c in coeffs))
        out = out + weight * support.shifted(f, shift.as_rational())
    return out


@settings(deadline=None, max_examples=30)
@given(square_delta_params())
def test_translation_rows_match_apply_for_square_delta(p):
    for expr in translation_exprs(p).values():
        series = PMDecomp(0, expr.series(8))
        for m in range(9):
            mono = support.monomial(m)
            assert _apply_rows(expr, mono) == support.apply_expansion(series, mono)


@settings(deadline=None, max_examples=30)
@given(any_params(), st.integers(0, 6), st.integers(0, 6))
def test_series_coefficients_do_not_depend_on_order(p, low, extra):
    # decompose computes the closed form once, at --order, and compares its
    # first coefficients with an extraction capped at a lower order.
    for op in ("U", "V", "N", "a0", "a-", "a+"):
        short = series_decomposition(p, op, low)
        long = series_decomposition(p, op, low + extra)
        assert [long.coeff(n) for n in range(low + 1)] == [short.coeff(n) for n in range(low + 1)]


@pytest.mark.parametrize("name", ["U", "N", "a0", "a-"])
@pytest.mark.parametrize(
    "index,factorial,delta",
    [
        (1, 1, Poly.of(F(-2, 5))),  # a- has k = -1, so A_1 of degree 0
        (2, 2, Poly.of(F(1, 3), F(-2, 5))),
        (5, 120, Poly.of(F(1, 3), F(-2, 5))),
    ],
)
def test_failing_limit_form_check_at_delta_zero(monkeypatch, name, index, factorial, delta):
    # The limit forms are written out from the parameters, so a closed form
    # that moves makes exactly that form's check fail, at X^index by index! delta.
    _perturb_series(monkeypatch, name, index, delta)
    for p in (GAMMA, GAUSSIAN, MeixnerParams(F(7, 4), 0, F(49, 64), F(1, 2))):
        report = translation_form(p, max_degree=6)
        assert report.passed is False
        assert [c.to_json_dict() for c in report.checks] == [
            {"identity": f"{other} translation form", "pass": other != name, "max_degree": 6,
             "fail_index": index if other == name else None,
             "residual": (-factorial * delta).to_json() if other == name else None}
            for other in ("U", "N", "a0", "a-")
        ]
