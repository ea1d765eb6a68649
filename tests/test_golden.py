"""Golden digests of the JSON reports, one test each, and a byte-identical rerun of each.

The command pins (``GOLDEN_*`` in ``tests/corpus.py``, which says when each
was taken) are checked here one argv at a time: exit 0, the stdout's sha256,
and the same bytes on a rerun in the same process.  The ``golden`` sweep of
the corpus runs the same argv, bar three that other sweeps run, so the
script run, which needs no pytest, checks them too.  ``translation_form``
has no command, so its digests at degree 48, pinned while it still applied
each form to every X^m, live here.
"""

import contextlib
import hashlib
import io
import json
from random import Random

import pytest

from meixnerops.cli import main
from meixnerops.exact import rational_sqrt
from meixnerops.meixner import OPS, MeixnerParams, translation_form
from meixnerops.sampling import sample_params, sample_params_delta0

from corpus import (
    GOLDEN_COMBOS,
    GOLDEN_DECOMPOSE,
    GOLDEN_LAWS,
    GOLDEN_SUITES,
    GOLDEN_VERIFY,
    REPRESENTATIVES,
    golden_characterize,
    golden_classify,
    golden_decompose,
    golden_verify,
)


def _json_run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _assert_golden(argv: list[str], digest: str) -> None:
    code, out = _json_run(argv)
    assert code == 0, argv
    assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    assert _json_run(argv) == (code, out), argv


def _law_id(law: str) -> str:
    return law.replace(" ", "/")


def test_golden_covers_every_class_and_operator():
    assert set(GOLDEN_DECOMPOSE) == {(label, op) for label, _ in REPRESENTATIVES for op in OPS}


@pytest.mark.parametrize("label,p", REPRESENTATIVES, ids=[label for label, _ in REPRESENTATIVES])
def test_decompose_json_golden_and_deterministic(label, p):
    for op in OPS:
        _assert_golden(golden_decompose(p, op), GOLDEN_DECOMPOSE[label, op])


@pytest.mark.parametrize("law", list(GOLDEN_LAWS[24]), ids=_law_id)
def test_classify_json_golden_and_deterministic(law):
    _assert_golden(golden_classify(law, 24), GOLDEN_LAWS[24][law])


@pytest.mark.parametrize("law", list(GOLDEN_LAWS[60]), ids=_law_id)
def test_classify_json_golden_at_60_moments(law):
    _assert_golden(golden_classify(law, 60), GOLDEN_LAWS[60][law])


@pytest.mark.parametrize("law", list(GOLDEN_LAWS[200]), ids=_law_id)
def test_classify_json_golden_at_200_moments(law):
    _assert_golden(golden_classify(law, 200), GOLDEN_LAWS[200][law])


@pytest.mark.parametrize("combo", list(GOLDEN_COMBOS[40]))
def test_characterize_json_golden_and_deterministic(combo):
    _assert_golden(golden_characterize(combo, 40), GOLDEN_COMBOS[40][combo])


@pytest.mark.parametrize("combo", list(GOLDEN_COMBOS[200]))
def test_characterize_json_golden_at_200_moments(combo):
    _assert_golden(golden_characterize(combo, 200), GOLDEN_COMBOS[200][combo])


@pytest.mark.parametrize("seed", (1, 2))
def test_gramschmidt_json_golden_and_deterministic(seed):
    key = ("gramschmidt", 16, 3, seed)
    _assert_golden(golden_verify(*key), GOLDEN_VERIFY[key])


def test_gramschmidt_json_golden_at_degree_64():
    key = ("gramschmidt", 64, 3, 1)
    _assert_golden(golden_verify(*key), GOLDEN_VERIFY[key])


def test_pmd_suite_json_golden_and_deterministic():
    key = ("pmd", 48, 2, 1)
    _assert_golden(golden_verify(*key), GOLDEN_VERIFY[key])


@pytest.mark.parametrize("suite", list(GOLDEN_SUITES))
def test_suite_json_golden_and_deterministic(suite):
    _assert_golden(golden_verify(suite, 12, 3, 1), GOLDEN_SUITES[suite])


# ``translation_form(p, 48).to_json_dict()``, dumped with sorted keys: the first
# five Delta > 0 draws of ``sample_params(Random(1))`` (all with a rational
# sqrt(Delta)), its first draw with an irrational one, and the first two draws
# of ``sample_params_delta0(Random(1))``.
TRANSLATION_GOLDEN = {
    ("2/3", "-8/5", "0", "2"): "64460f258eab385b1483052e63c2d3de1854e87d06b4c4f7a0687cc1d3159f53",
    ("4/5", "-2", "0", "2"): "d01c5a3e80bc6fcc24773093dc1754ed42788f43ddb562a4fcd05027b689a858",
    ("11/4", "0", "0", "3/2"): "10dd169e87fbe55da09202c672f9eed79bd05eac2ae9cfa532e2458ab8c0ef66",
    ("1", "-3/5", "0", "3"): "8ee5fb06089b976b03f6359cf4187d18f1551e5862b042105e58144b78200351",
    ("1/3", "2", "0", "1/2"): "294924615934d7530b320c11fbae10123249cef5480197d9ac2ccd79de263989",
    ("7/6", "0", "49/576", "1/2"): "64e3bee7be4bfd5a3e4de105c18ef0028c6192c4407cde8219bc721746cb4f46",
    ("2", "0", "1", "2"): "dd5c63f2f473589a98bf1cb56d37a60259cbe94b2ae35c59a63d51722e77d8da",
    ("7/4", "0", "49/64", "1/2"): "a821ab8698d1031df8b25d68577da0d464460e48063b5af1201b49db5c23ed36",
}


def _fields(p: MeixnerParams) -> tuple[str, ...]:
    return tuple(str(v) for v in (p.alpha, p.alpha0, p.beta, p.t))


def test_translation_golden_holds_the_sampled_draws():
    rng = Random(1)
    positive = [p for p in (sample_params(rng) for _ in range(26)) if p.delta > 0]
    irrational = [p for p in positive if rational_sqrt(p.delta) is None]
    rng = Random(1)
    flat = [sample_params_delta0(rng) for _ in range(2)]
    draws = positive[:5] + irrational[:1] + flat
    assert [_fields(p) for p in draws] == list(TRANSLATION_GOLDEN)


@pytest.mark.parametrize("params", list(TRANSLATION_GOLDEN), ids="/".join)
def test_translation_form_json_golden_at_degree_48(params):
    p = MeixnerParams.from_strings(*params)
    out = json.dumps(translation_form(p, 48).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(out.encode()).hexdigest() == TRANSLATION_GOLDEN[params]
    assert json.dumps(translation_form(p, 48).to_json_dict(), sort_keys=True) == out
