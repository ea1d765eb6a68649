import json

import pytest

from meixnerops.cli import main


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
    assert "order must be nonnegative" in err


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


def test_verify_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("MEIXNER_SEED", "17")
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "limit", "--degree", "6", "--trials", "2", "--json"
    )
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 17


def test_verify_rejects_bad_environment_seed(capsys, monkeypatch):
    monkeypatch.setenv("MEIXNER_SEED", "not-a-number")
    code, _, err = run_cli(
        capsys, "verify", "--suite", "limit", "--degree", "6", "--trials", "1"
    )
    assert code == 2
    assert "MEIXNER_SEED" in err


def test_verify_json_deterministic(capsys):
    args = ("verify", "--suite", "doublecomm", "--degree", "6", "--trials", "2",
            "--seed", "9", "--json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


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


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_help_exits_zero(capsys):
    code, _, _ = run_cli(capsys, "--help")
    assert code == 0
