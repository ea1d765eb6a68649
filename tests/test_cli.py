import contextlib
import importlib
import io
import json
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meixnerops.cli as cli
import meixnerops.suites as suites
from meixnerops.cli import main
from meixnerops.exact import Poly
from meixnerops.meixner import MeixnerParams, series_decomposition
from meixnerops.operators import VerifyReport
from meixnerops.orthopoly import MomentSeq
from meixnerops.pmd import PMDecomp


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_poisson_example(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--alpha", "1", "--alpha0", "1", "--beta", "0", "--t", "1"
    )
    assert code == 0
    assert "class: Poisson" in out
    assert "moment crosscheck: pass" in out


def test_classify_op_classifies_the_law_once(capsys, monkeypatch):
    # The report and the moment crosscheck share the one law the command built.
    classify_module = importlib.import_module("meixnerops.classify")
    original, laws = classify_module.classify, []

    def counted(p):
        laws.append(original(p))
        return laws[-1]

    monkeypatch.setattr(cli, "classify", counted)
    monkeypatch.setattr(classify_module, "classify", counted)
    code, out, _ = run_cli(capsys, "classify", "--alpha=1", "--alpha0=1", "--beta=0", "--t=1")
    assert code == 0 and "moment crosscheck: pass" in out
    assert len(laws) == 1


def test_classify_rejects_bad_support(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--alpha", "0", "--alpha0", "0", "--beta", "-1", "--t", "3/2"
    )
    assert code == 2
    assert "invalid parameters" in err


def test_classify_rejects_unparsable_rational(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--alpha", "zebra", "--alpha0", "0", "--beta", "0", "--t", "1"
    )
    assert code == 2
    assert "invalid parameters" in err


def test_classify_json_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify", "--alpha", "1", "--alpha0", "1", "--beta", "0", "--t", "1", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"config", "classification", "derived", "crosscheck"}
    assert report["classification"]["class"] == "Poisson"
    assert report["derived"]["delta"] == "1"
    assert report["crosscheck"]["pass"] is True
    assert report["config"]["command"] == "classify"


def test_classify_binomial_on_a_million_points(capsys):
    # The oracle's cost does not depend on n = t / -beta, so no cap is needed.
    code, out, _ = run_cli(
        capsys,
        "classify", "--json", "--max-moment=24",
        "--alpha=1", "--alpha0=1/3", "--beta=-1/1000000", "--t=1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["classification"]["n"] == 10**6
    assert report["crosscheck"]["pass"] is True


def test_classify_unsupported_crosscheck_is_not_a_failure(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify", "--alpha", "0", "--alpha0", "0", "--beta", "1", "--t", "1", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["classification"]["class"] == "HyperbolicSecant"
    assert isinstance(report["crosscheck"], str)
    assert report["crosscheck"].startswith("unsupported")


def test_decompose_number_operator(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose", "--alpha", "0", "--alpha0", "0", "--beta", "0", "--t", "1",
        "--op", "N", "--order", "2",
    )
    assert code == 0
    assert "A_0 = 0" in out
    assert "A_1 = X" in out
    assert "A_2 = -1" in out
    assert "matrix extraction agrees" in out


def test_decompose_aplus_carries_note(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose", "--alpha", "1", "--alpha0", "1", "--beta", "0", "--t", "1",
        "--op", "a+", "--order", "3", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert "complement identity" in report["note"]
    assert report["extraction_agreement"]["pass"] is True
    assert report["decomposition"]["k"] == 1


def test_decompose_rejects_unknown_op(capsys):
    code, _, err = run_cli(
        capsys,
        "decompose", "--alpha", "0", "--alpha0", "0", "--beta", "0", "--t", "1",
        "--op", "Q", "--order", "2",
    )
    assert code == 2


def test_decompose_rejects_negative_order(capsys):
    code, _, err = run_cli(
        capsys,
        "decompose", "--alpha", "0", "--alpha0", "0", "--beta", "0", "--t", "1",
        "--op", "N", "--order", "-1",
    )
    assert code == 2
    assert err == "invalid input: --order must be nonnegative\n"


def test_decompose_order_cap_checked_before_any_work(capsys, monkeypatch):
    import meixnerops.cli as cli

    def forbidden(*args):
        raise AssertionError("work started above the order cap")

    monkeypatch.setattr(cli, "series_decomposition", forbidden)
    monkeypatch.setattr(suites, "szego_jacobi", forbidden)
    code, out, err = run_cli(
        capsys,
        "decompose", "--alpha=0", "--alpha0=0", "--beta=0", "--t=1",
        "--op=N", f"--order={cli.MAX_ORDER + 1}", "--json",
    )
    assert code == 2
    assert out == ""
    assert err == f"invalid input: --order must be at most {cli.MAX_ORDER}\n"


def test_decompose_computes_the_closed_form_once(capsys, monkeypatch):
    import meixnerops.cli as cli

    calls = []
    original = cli.series_decomposition

    def counted(p, op, order):
        calls.append(order)
        return original(p, op, order)

    for module in (cli, suites):  # decompose, and the pmd suite
        monkeypatch.setattr(module, "series_decomposition", counted)
    for op, expected in (("V", 1), ("N", 2)):  # capped below --order 6 by the support
        calls.clear()
        code, out, _ = run_cli(
            capsys,
            "decompose", "--alpha=0", "--alpha0=0", "--beta=-1", "--t=2",
            f"--op={op}", "--order=6", "--json",
        )
        assert code == 0
        assert calls == [6]
        assert json.loads(out)["extraction_agreement"]["checked_order"] == expected
    calls.clear()
    code, _, _ = run_cli(capsys, "verify", "--suite=pmd", "--degree=4", "--trials=2", "--seed=3")
    assert code == 0
    assert calls == [4] * 12  # once per operator and trial


def test_decompose_derives_the_parameter_constants_once(capsys, monkeypatch):
    # Delta, tau and the support bound are set when the one MeixnerParams of a
    # run is built, and the recurrence integers are computed once, for the
    # closed form and the extraction alike.
    meixner = importlib.import_module("meixnerops.meixner")
    calls = []

    def counted(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    monkeypatch.setattr(
        MeixnerParams, "__post_init__", counted("params", MeixnerParams.__post_init__)
    )
    sj = counted("szego_jacobi", meixner.szego_jacobi)
    monkeypatch.setattr(meixner, "szego_jacobi", sj)
    monkeypatch.setattr(suites, "szego_jacobi", sj)
    for params in (("5/7", "-3/11", "2/13", "7/5"), ("0", "0", "-1", "2")):
        for op in ("U", "a+"):
            calls.clear()
            argv = [f"--{k}={v}" for k, v in zip(("alpha", "alpha0", "beta", "t"), params)]
            code, _, _ = run_cli(capsys, "decompose", *argv, f"--op={op}", "--order=24", "--json")
            assert code == 0
            assert sorted(calls) == ["params", "szego_jacobi"], (params, op)


def _perturbed(decomp, index, delta):
    """``decomp`` with ``delta`` added to its coefficient A_index."""
    coeffs = [decomp.coeff(n) for n in range(max(len(decomp.coeffs), index + 1))]
    coeffs[index] = coeffs[index] + delta
    return PMDecomp(decomp.k, tuple(coeffs))


def test_failing_extraction_agreement_carries_the_residual(capsys, monkeypatch):
    p = MeixnerParams(Fraction(3, 2), Fraction(1, 3), Fraction(1, 2), Fraction(5, 4))
    closed = _perturbed(series_decomposition(p, "U", 6), 3, Poly.of(Fraction(1, 7), 0, 2))
    assert suites.extraction_agreement(p, "U", 6, closed) == VerifyReport(
        "extraction matches closed form for U", False, 6, 3, Poly.of(Fraction(-1, 7), 0, -2)
    )
    monkeypatch.setattr(cli, "series_decomposition", lambda p, op, order: closed)
    code, out, _ = run_cli(
        capsys,
        "decompose", "--alpha=3/2", "--alpha0=1/3", "--beta=1/2", "--t=5/4",
        "--op=U", "--order=6", "--json",
    )
    assert code == 1
    assert json.loads(out)["extraction_agreement"] == {
        "checked_order": 6,
        "pass": False,
        "fail_index": 3,
        "residual": ["-1/7", "0", "-2"],
    }


def test_failing_pmd_suite_check_carries_the_residual(capsys, monkeypatch):
    original = suites.series_decomposition

    def perturbed(p, op, order):
        closed = original(p, op, order)
        return _perturbed(closed, 2, Poly.of(0, Fraction(-5, 3))) if op == "a-" else closed

    argv = ("verify", "--suite=pmd", "--degree=8", "--trials=1", "--seed=3", "--json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    passing = json.loads(out)["trials_detail"][0]["checks"]
    monkeypatch.setattr(suites, "series_decomposition", perturbed)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    checks = json.loads(out)["trials_detail"][0]["checks"]
    for op, check, before in zip(cli.OPS, checks, passing):
        if op == "a-":
            assert check == dict(before, fail_index=2, residual=["0", "5/3"], **{"pass": False})
        else:
            assert check == before and check["residual"] is None


def _gramschmidt_suite(capsys, monkeypatch, perturb):
    """Run the suite with ``perturb`` applied to the recurrence Gram-Schmidt recovers."""
    original = suites.gram_schmidt_from_moments
    monkeypatch.setattr(suites, "gram_schmidt_from_moments", lambda mu, n: perturb(original(mu, n)))
    # Seed 1 draws a Poisson law, so the checks run through degree 8.
    argv = ("verify", "--suite=gramschmidt", "--degree=8", "--trials=1", "--seed=1", "--json")
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)["trials_detail"][0]["checks"]


def _bumped(fn, *indices):
    return lambda n: fn(n) + (n in indices)


@pytest.mark.parametrize(
    "perturb,fail_index",
    [
        # A support mismatch is reported first, at index -1.
        (lambda rec: replace(rec, support_bound=3, shift=_bumped(rec.shift, 0)), -1),
        # Then the first alpha_n, n < 8, before any omega_n.
        (lambda rec: replace(rec, shift=_bumped(rec.shift, 7), link=_bumped(rec.link, 2)), 7),
        # Then the first omega_n, 1 <= n <= 8.
        (lambda rec: replace(rec, link=_bumped(rec.link, 8, 5)), 5),
        (lambda rec: replace(rec, shift=_bumped(rec.shift, 8), link=_bumped(rec.link, 8)), 8),
    ],
)
def test_failing_gramschmidt_check_reports_its_first_index(capsys, monkeypatch, perturb, fail_index):
    code, checks = _gramschmidt_suite(capsys, monkeypatch, perturb)
    assert code == 1
    assert checks == [{
        "identity": "moments -> Gram-Schmidt recovers the recurrence",
        "pass": False,
        "max_degree": 8,
        "fail_index": fail_index,
        "residual": None,
    }]


def test_gramschmidt_check_reads_alpha_below_the_degree_only(capsys, monkeypatch):
    # alpha_8 and omega_0 lie outside the recovered recurrence of degree 8.
    code, checks = _gramschmidt_suite(
        capsys, monkeypatch,
        lambda rec: replace(rec, shift=_bumped(rec.shift, 8), link=_bumped(rec.link, 0)),
    )
    assert code == 0 and checks[0]["fail_index"] is None


def test_decompose_order_cap_is_inclusive(capsys):
    from meixnerops.cli import MAX_ORDER

    assert MAX_ORDER >= 100  # well above the benchmark's order 24
    # Three support points keep the matrix 3x3, so the capped order runs fast.
    code, out, _ = run_cli(
        capsys,
        "decompose", "--alpha=0", "--alpha0=0", "--beta=-1", "--t=2",
        "--op=N", f"--order={MAX_ORDER}", "--json",
    )
    assert code == 0
    assert json.loads(out)["extraction_agreement"] == {"checked_order": 2, "pass": True}


@pytest.mark.parametrize(
    "op,line",
    [
        ("N", "checked below order 6: the support has 3 points, so the matrix stops at degree 2"),
        (
            "V",
            "checked below order 6: the support has 3 points, so the matrix stops at degree 2,"
            " and a raising operator (k = 1) needs k spare degrees at the top",
        ),
    ],
)
def test_decompose_text_says_why_checked_order_is_lower(capsys, op, line):
    argv = ["decompose", "--alpha=0", "--alpha0=0", "--beta=-1", "--t=2", f"--op={op}", "--order=6"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1] == line
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert "checked below" not in out


def test_decompose_text_silent_when_fully_checked(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose", "--alpha=1", "--alpha0=1", "--beta=0", "--t=1", "--op=V", "--order=6",
    )
    assert code == 0
    assert out.splitlines()[-1] == "matrix extraction agrees through order 6"


def test_verify_universal_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "universal", "--degree", "6", "--trials", "3", "--seed", "5"
    )
    assert code == 0
    assert "all identities hold" in out


def test_verify_rejects_small_degree(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--suite", "universal", "--degree", "3", "--trials", "1"
    )
    assert code == 2
    assert "--degree" in err


def test_verify_rejects_bad_trials(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--suite", "universal", "--degree", "6", "--trials", "0"
    )
    assert code == 2


def test_verify_json_deterministic(capsys):
    args = ("verify", "--suite", "doublecomm", "--degree", "6", "--trials", "2",
            "--seed", "9", "--json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_suites_build_no_truncated_operator(capsys, monkeypatch):
    # The universal and doublecomm identities are checked on polynomial diagonals only.
    runs = [
        ("verify", f"--suite={suite}", "--degree=24", "--trials=3", "--seed=5", "--json")
        for suite in ("universal", "doublecomm")
    ]
    expected = [run_cli(capsys, *args) for args in runs]
    operators = importlib.import_module("meixnerops.operators")

    def finite(*args, **kwargs):
        raise AssertionError("the finite engine ran")

    for name in ("quantum_ops", "semi_ops"):
        monkeypatch.setattr(operators, name, finite)
    for name, member in list(vars(operators.GradedOp).items()):
        if isinstance(member, property):
            monkeypatch.setattr(operators.GradedOp, name, property(finite))
        elif callable(member):
            monkeypatch.setattr(operators.GradedOp, name, finite)
    with pytest.raises(AssertionError, match="finite engine"):
        operators.quantum_ops(None, 4)
    with pytest.raises(AssertionError, match="finite engine"):
        operators.GradedOp(4, (0, 0), 0, ((0,) * 5,))
    assert [run_cli(capsys, *args) for args in runs] == expected
    assert [code for code, _, _ in expected] == [0, 0]


@pytest.mark.parametrize("suite", ["universal", "pmd", "gramschmidt", "limit", "doublecomm"])
def test_all_suites_pass_briefly(capsys, suite):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", suite, "--degree", "5", "--trials", "2", "--seed", "1"
    )
    assert code == 0


def test_characterize_step_combo(capsys):
    code, out, _ = run_cli(
        capsys, "characterize", "--combo", "1:1,-1:0", "--max-moment", "6", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["moments_recursion"] == ["1", "0", "1", "1", "4", "11", "41"]
    assert report["routes_agree"] is True
    assert report["bound_certificate"]["k"] == "2"
    assert report["poisson_decomposition"] == [{"scale": "1", "mean": "1"}]


def test_characterize_renders_disagreeing_routes_separately(capsys, monkeypatch):
    # E[X^3] of the Laplace route, over the scale 6, moves by 1/6^3.
    original = cli.laplace_series

    def perturbed(combo, m_max):
        mu = original(combo, m_max)
        assert mu.scale == 6
        return MomentSeq(tuple(a + (m == 3) for m, a in enumerate(mu.nums)), mu.scale)

    monkeypatch.setattr(cli, "laplace_series", perturbed)
    argv = ("characterize", "--combo=1/2:1/3,-1/2:0", "--max-moment=6")
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 1
    report = json.loads(out)
    assert report["routes_agree"] is False
    recursion, laplace = report["moments_recursion"], report["moments_laplace"]
    assert report["moments_cumulant"] == recursion
    assert laplace == [
        str(Fraction(v) + Fraction(1, 216)) if m == 3 else v for m, v in enumerate(recursion)
    ]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert "three oracle routes agree: NO" in out


def test_characterize_op_validates_once(capsys, monkeypatch):
    # The command validates the combination once and hands the verdict to the
    # three routes and the certificate, none of which validates; the cumulant
    # and Laplace routes each run one pass of power sums.
    characterize_module = importlib.import_module("meixnerops.characterize")
    calls = {"ensure_valid": 0, "_power_sums": 0}

    def counting(name, *owners):
        original = getattr(characterize_module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        for owner in owners:
            monkeypatch.setattr(owner, name, counted)

    counting("ensure_valid", characterize_module, cli)
    counting("_power_sums", characterize_module)
    code, out, _ = run_cli(
        capsys, "characterize", "--combo=1/2:1/3,-1/2:0", "--max-moment=40", "--json"
    )
    assert code == 0 and json.loads(out)["routes_agree"] is True
    assert calls == {"ensure_valid": 1, "_power_sums": 2}


def test_json_output_builds_no_text(capsys, monkeypatch):
    def forbidden(self):
        raise AssertionError("text rendered under --json")

    monkeypatch.setattr(Poly, "__str__", forbidden)
    rendered = []
    to_json = MomentSeq.to_json
    monkeypatch.setattr(MomentSeq, "to_json", lambda mu: rendered.append(mu) or to_json(mu))
    for argv in (
        [
            "decompose", "--alpha=3/2", "--alpha0=1/3", "--beta=1/2", "--t=5/4",
            "--op=U", "--order=24",
        ],
        ["characterize", "--combo=1/2:1/3,-1/2:0", "--max-moment=12"],
        ["classify", "--alpha=1", "--alpha0=1/3", "--beta=-1/7", "--t=1"],
    ):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out)["config"]["command"] == argv[0]
    # The three characterize routes agree, so their moments are rendered once.
    assert len(rendered) == 1


def test_classify_renders_values_beyond_float_range(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--alpha=3", f"--alpha0={10**400}", "--beta=1", "--t=1", "--json"
    )
    assert code == 0
    assert "Traceback" not in err
    report = json.loads(out)
    assert report["classification"]["class"] == "Pascal"
    assert report["classification"]["shift"]["decimal"] == "1e+400"


def test_classify_renders_nearly_cancelling_surds_exactly(capsys):
    # p = 0.999999999999... and shift = -1.000000000001...; summed in floats,
    # they printed 0.999938964844 and -1.00006103516.
    code, out, _ = run_cli(
        capsys, "classify", "--alpha=1", "--alpha0=0", "--beta=1/1000000000000", "--t=1", "--json"
    )
    assert code == 0
    law = json.loads(out)["classification"]
    assert (law["p"]["decimal"], law["shift"]["decimal"]) == ("0.999999999999", "-1")


def test_decompose_renders_integers_past_the_digit_limit(capsys):
    # The coefficients outgrow the 4300 digits str() writes for an int by default:
    # A_12 carries alpha^12, about 4800 digits.
    code, out, err = run_cli(
        capsys, "decompose", f"--alpha={10**400 + 7}", "--alpha0=0", "--beta=0", "--t=1",
        "--op=U", "--order=12", "--json",
    )
    assert code == 0
    assert "Traceback" not in err
    report = json.loads(out)
    assert report["extraction_agreement"] == {"checked_order": 12, "pass": True}
    digits = max(len(c) for coeff in report["decomposition"]["coeffs"] for c in coeff)
    assert digits > 4300


@pytest.mark.parametrize("digits,bits", [(41, 138), (101, 338)])
def test_decompose_caps_parameter_size_by_order(capsys, monkeypatch, digits, bits):
    # At order 200 these ran for 79 s and 340 s before the cap.
    _forbid(monkeypatch, "series_decomposition")
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "decompose", f"--alpha={10**(digits - 1) + 7}", "--alpha0=0", "--beta=0",
        "--t=1", "--op=U", "--order=200", "--json",
    )
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == (
        "invalid input: at --order=200 the parameters may have at most 30 bits in all, "
        f"got {bits}\n"
    )


BIG = 10**20 + 7  # 67 bits
HUGE = 10**600 + 7  # 1994 bits
MOMENT_KERNELS = {
    "classify": ("classify", "crosscheck"),
    "characterize": (
        "moments_via_recursion", "moments_via_cumulants", "laplace_series", "bound_cert",
    ),
}


@pytest.mark.parametrize("argv,holder,bits", [
    # Without the caps these ran for 8.5 s and 109 s.
    (
        ["classify", f"--alpha={BIG}", f"--alpha0=1/{BIG}", f"--beta=-1/{BIG}", "--t=1"],
        "parameters", 206,
    ),
    (["characterize", f"--combo={HUGE}:1/{HUGE},-{HUGE}:0"], "combination", 5986),
])
def test_moment_commands_cap_parameter_size_by_max_moment(capsys, monkeypatch, argv, holder, bits):
    _forbid(monkeypatch, *MOMENT_KERNELS[argv[0]])
    allowed = {"parameters": 150, "combination": 400}[holder]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--max-moment=200", "--json")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == (
        f"invalid input: at --max-moment=200 the {holder} may have at most {allowed} bits "
        f"in all, got {bits}\n"
    )


def test_characterize_caps_the_growth_certificate(capsys, monkeypatch):
    # A shift of 10^9 has 31 bits and passes the bit cap, but the certificate
    # raises it to the power 10^9.
    _forbid(monkeypatch, *MOMENT_KERNELS["characterize"])
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "characterize", "--combo=1000000000:1000000000,-1000000000:0", "--max-moment=4"
    )
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == (
        "invalid input: at --max-moment=4 the growth certificate may have at most "
        "142857 bits, got 31000000000\n"
    )


@pytest.mark.parametrize("shift,refused", [(865, False), (866, True)])
def test_certificate_cap_is_inclusive(capsys, monkeypatch, shift, refused):
    # At --max-moment=200 the certificate may have 2000000 // 210 = 9523 bits;
    # a shift r of 10 bits counts r * (10 + 1): 9515 for 865, 9526 for 866.
    _forbid(monkeypatch, *MOMENT_KERNELS["characterize"])
    argv = ["characterize", f"--combo={shift}:{shift},-{shift}:0", "--max-moment=200"]
    if refused:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.endswith("may have at most 9523 bits, got 9526\n")
    else:
        with pytest.raises(AssertionError, match="above a size cap"):
            main(argv)


@pytest.mark.parametrize("t,refused", [("2", False), ("4", True)])
def test_classify_parameter_cap_is_inclusive(capsys, monkeypatch, t, refused):
    # alpha = 2^48 - 1 takes 48 bits, so the four parameters take 147 + bits(t) + 1.
    c = 2**48 - 1
    _forbid(monkeypatch, *MOMENT_KERNELS["classify"])
    argv = ["classify", f"--alpha={c}", f"--alpha0=1/{c}", f"--beta=-1/{c}", f"--t={t}",
            "--max-moment=200"]
    if refused:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.endswith("may have at most 150 bits in all, got 151\n")
    else:
        with pytest.raises(AssertionError, match="above a size cap"):
            main(argv)


def test_characterize_rejects_nonpositive_mean(capsys):
    code, _, err = run_cli(capsys, "characterize", "--combo", "1:1,-1:2")
    assert code == 2
    assert "NegativeMean" in err


def test_characterize_rejects_sum(capsys):
    code, _, err = run_cli(capsys, "characterize", "--combo", "1:1")
    assert code == 2
    assert "SumNotZero" in err


def test_characterize_rejects_malformed(capsys):
    code, _, err = run_cli(capsys, "characterize", "--combo", "1;1")
    assert code == 2
    assert "invalid input" in err


def test_characterize_rejects_negative_max_moment(capsys):
    code, out, err = run_cli(capsys, "characterize", "--combo=1:1,-1:0", "--max-moment=-1")
    assert code == 2
    assert out == ""
    assert "invalid input:" in err and "Traceback" not in err


def test_classify_rejects_negative_max_moment(capsys):
    code, out, err = run_cli(
        capsys,
        "classify", "--alpha=1", "--alpha0=1", "--beta=0", "--t=1", "--max-moment=-3",
    )
    assert code == 2
    assert out == ""
    assert "invalid input:" in err and "Traceback" not in err


@pytest.mark.parametrize("alpha", ["1e30000", "1e3000"])
def test_exponent_form_rational_is_refused_at_once(capsys, alpha):
    # Fraction would read these as integers of 30001 and 3001 digits; decompose
    # then ran for over a minute, or failed with a traceback.
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "decompose", f"--alpha={alpha}", "--alpha0=0", "--beta=0", "--t=1",
        "--op=U", "--order=24",
    )
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "invalid parameters: not a rational number" in err and "Traceback" not in err


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_help_exits_zero(capsys):
    code, _, _ = run_cli(capsys, "--help")
    assert code == 0


def _forbid(monkeypatch, *names):
    """Make the named ``cli`` kernels, ``szego_jacobi`` and every suite runner raise."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work started above a size cap")

    for name in names:
        monkeypatch.setattr(cli, name, forbidden)
    monkeypatch.setattr(suites, "szego_jacobi", forbidden)
    for suite in suites.SUITE_RUNNERS:
        monkeypatch.setitem(suites.SUITE_RUNNERS, suite, forbidden)


def test_forbid_intercepts_every_suite(monkeypatch):
    # The runner table _forbid patches is the one ``verify`` reads.
    _forbid(monkeypatch)
    for suite in suites.SUITE_RUNNERS:
        with pytest.raises(AssertionError, match="above a size cap"):
            main(["verify", f"--suite={suite}", "--degree=4", "--trials=1", "--json"])


WORK_FAULTS = [
    (cli, "series_decomposition",
     ["decompose", "--alpha=0", "--alpha0=0", "--beta=0", "--t=1", "--op=U", "--order=2"]),
    (cli, "classify", ["classify", "--alpha=1", "--alpha0=1", "--beta=0", "--t=1"]),
    (cli, "moments_via_recursion", ["characterize", "--combo=1:1,-1:0"]),
    (suites.SUITE_RUNNERS, "limit", ["verify", "--suite=limit", "--degree=4", "--trials=1"]),
]


@pytest.mark.parametrize("owner,name,argv", WORK_FAULTS, ids=[name for _, name, _ in WORK_FAULTS])
def test_a_fault_in_the_work_is_never_read_as_invalid_input(monkeypatch, owner, name, argv):
    # Only refusals of the input exit 2; a ValueError raised once the work
    # has begun is a bug, and it propagates.
    def faulty(*args, **kwargs):
        raise ValueError("fault in the work")

    if isinstance(owner, dict):
        monkeypatch.setitem(owner, name, faulty)
    else:
        monkeypatch.setattr(owner, name, faulty)
    with pytest.raises(ValueError, match="fault in the work"):
        _run_quietly(argv)


SIZE_CAPS = [
    (
        ["classify", "--alpha=0", "--alpha0=0", "--beta=0", "--t=1"],
        "max-moment", cli.MAX_MOMENT, ("classify", "crosscheck"),
    ),
    (
        ["characterize", "--combo=1:1,-1:0"],
        "max-moment", cli.MAX_MOMENT,
        ("moments_via_recursion", "moments_via_cumulants", "laplace_series", "bound_cert"),
    ),
    (["verify", "--suite=limit", "--trials=1", "--seed=1"], "degree", cli.MAX_DEGREE, ()),
    (["verify", "--suite=gramschmidt", "--degree=4", "--seed=1"], "trials", cli.MAX_TRIALS, ()),
]


@pytest.mark.parametrize("argv,flag,cap,kernels", SIZE_CAPS, ids=lambda v: str(v))
def test_size_cap_checked_before_any_work(capsys, monkeypatch, argv, flag, cap, kernels):
    _forbid(monkeypatch, *kernels)
    code, out, err = run_cli(capsys, *argv, f"--{flag}={cap + 1}", "--json")
    assert code == 2
    assert out == ""
    assert err == f"invalid input: --{flag} must be at most {cap}\n"


@pytest.mark.parametrize("argv,flag,cap,kernels", SIZE_CAPS, ids=lambda v: str(v))
def test_size_cap_is_inclusive(capsys, argv, flag, cap, kernels):
    # The benchmark runs --max-moment 24 and 40, --degree 16 and 48, --trials 1.
    assert cap >= 100
    code, out, _ = run_cli(capsys, *argv, f"--{flag}={cap}", "--json")
    assert code == 0
    assert json.loads(out)["config"][flag.replace("-", "_")] == cap


# Characters that JSON escapes, then any code point: ASCII, non-ASCII, non-BMP.
JSON_STRINGS = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600'),
                       st.characters()),
)
JSON_INTS = st.one_of(st.integers(), st.integers(min_value=2**64), st.integers(max_value=-(2**64)))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), JSON_INTS, JSON_STRINGS),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(JSON_STRINGS, inner, max_size=4)),
    max_leaves=30,
)


@settings(deadline=None, max_examples=300)
@given(JSON_VALUES)
def test_json_text_writes_the_bytes_of_json_dumps(value):
    assert cli.json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_json_text_writes_empty_containers_at_every_depth():
    value = {"": [], "a": {}, "b": [[], {}, [[{}]], {"c": {"d": []}}], "e": [None, True, 0]}
    assert cli.json_text(value) == json.dumps(value, sort_keys=True, indent=2)
    assert cli.json_text([]) == "[]" and cli.json_text({}) == "{}"


@pytest.mark.parametrize("value", [0.5, (1, 2), Fraction(1, 2), {1}, {1: "a"}, {"a": 1, 2: 3}],
                         ids=["float", "tuple", "Fraction", "set", "int key", "mixed keys"])
def test_json_text_refuses_any_other_type(value):
    for where in (value, [value], {"k": [0, value]}):
        with pytest.raises(TypeError):
            cli.json_text(where)


RATIONALS = st.sampled_from(["0", "1", "-1", "2", "1/2", "-1/2", "3/2", "-2/3", "5", "x"])
# (alpha, alpha0, beta, t) of every class, two of them with an irrational sqrt(Delta)
VALID_PARAMS = st.sampled_from([
    ("0", "0", "0", "1"), ("1", "1", "0", "1"), ("3", "0", "2", "2"), ("2", "1/3", "1/2", "5/4"),
    ("2", "1", "1", "1"), ("0", "0", "1", "1"), ("0", "0", "-1", "2"), ("1", "-1/2", "-1/3", "2"),
])


@st.composite
def small_argv(draw):
    command = draw(st.sampled_from(["classify", "decompose", "verify", "characterize"]))
    argv = [command]
    if command in ("classify", "decompose"):
        params = draw(st.one_of(VALID_PARAMS, st.tuples(*[RATIONALS] * 4)))
        if command == "classify" and draw(st.booleans()):  # a Binomial law on up to 10^6 + 1 points
            params = (*params[:2], f"-1/{draw(st.integers(1, 10**6))}", "1")
        for name, value in zip(("alpha", "alpha0", "beta", "t"), params):
            argv.append(f"--{name}={value}")
    if command == "decompose":
        argv.append(f"--op={draw(st.sampled_from(cli.OPS + ('b',)))}")
        argv.append(f"--order={draw(st.integers(-1, 6))}")
    if command in ("classify", "characterize"):
        argv.append(f"--max-moment={draw(st.integers(-1, 10))}")
    if command == "verify":
        argv.append(f"--suite={draw(st.sampled_from(tuple(suites.SUITE_RUNNERS)))}")
        argv.append(f"--degree={draw(st.integers(3, 6))}")
        argv.append(f"--trials={draw(st.integers(0, 2))}")
        argv.append(f"--seed={draw(st.integers(0, 99))}")
    if command == "characterize":
        terms = draw(st.lists(st.tuples(RATIONALS, RATIONALS), min_size=1, max_size=3))
        combo = ",".join(f"{c}:{d}" for c, d in terms)
        if draw(st.booleans()) and "x" not in combo:  # make the coefficients sum to zero
            combo += f",{-sum(Fraction(c) for c, _ in terms)}:0"
        argv.append(f"--combo={combo}")
    # Now and then drop a flag, which argparse must reject cleanly.
    if len(argv) > 2 and draw(st.booleans()) and draw(st.booleans()):
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv + ["--json"]


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=60)
@given(small_argv())
def test_every_small_argv_keeps_the_exit_code_contract(argv):
    code, out, err = _run_quietly(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 2:
        assert out == "", argv
    else:
        json.loads(out)
    assert _run_quietly(argv) == (code, out, err), argv
