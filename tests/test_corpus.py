"""The command corpus of ``corpus`` is byte-identical, and its rule breaks hold.

Each test compares the sha256 of one sweep with its pinned digest in
``corpus.DIGESTS``; ``corpus`` describes the sweeps.  The ``golden`` digest
is taken twice, so a rerun in the same process is checked to give the same
bytes.  The same check runs without pytest as ``PYTHONPATH=src python
tests/corpus.py``.
"""

from random import Random

import pytest

from meixnerops.characterize import ensure_valid
from meixnerops.sampling import sample_combo

from corpus import DIGESTS, RULE_BREAK_ERRORS, rule_breaks, sweep_digest

COMMAND_SWEEPS = ("decompose_text", "classify", "characterize", "refusals", "text", "failing")


def test_each_rule_break_raises_its_own_error_on_every_draw():
    for seed in range(60):
        for combo, error in zip(rule_breaks(sample_combo(Random(seed))), RULE_BREAK_ERRORS):
            if error is None:
                ensure_valid(combo)
                continue
            with pytest.raises(error) as caught:
                ensure_valid(combo)
            assert type(caught.value) is error, (seed, combo.format())


@pytest.mark.parametrize("suite", sorted(set(DIGESTS) - {"decompose", "golden", *COMMAND_SWEEPS}))
def test_verify_corpus_is_byte_identical(suite):
    assert sweep_digest(suite) == DIGESTS[suite]


def test_decompose_corpus_is_byte_identical():
    assert sweep_digest("decompose") == DIGESTS["decompose"]


@pytest.mark.parametrize("sweep", COMMAND_SWEEPS)
def test_command_corpus_is_byte_identical(sweep):
    assert sweep_digest(sweep) == DIGESTS[sweep]


def test_golden_corpus_is_byte_identical_on_a_rerun():
    assert sweep_digest("golden") == sweep_digest("golden") == DIGESTS["golden"]
