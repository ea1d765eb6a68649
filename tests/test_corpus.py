"""Byte-identity corpus of the ``verify`` suites that run on polynomial diagonals.

Every argv ``verify --suite=S --degree=D --trials=3 --seed=s --json`` with D
in ``DEGREES`` and s in 0 .. 59 runs in process.  Its stdout and then its
exit code, as text, feed one sha256 per suite.  The digests were taken while
``universal`` still ran on truncated ``GradedOp`` operators, and after
``doublecomm`` had left them with its reports unchanged.  A change of engine
that alters one byte of one report, failing ones included, fails here.
"""

import contextlib
import hashlib
import io

import pytest

from meixnerops.cli import main

DEGREES = (4, 5, 6, 8, 12, 24, 48, 96, 200)
SEEDS = range(60)
DIGESTS = {
    "universal": "33876f5011894eb60a63d7c8ab0dd108bc18be18811b30009c58399689826c1b",
    "doublecomm": "1ad5e956afe691b6737d83bb65d5067e97e8edaafdb9fb8857dc819ba5ea2bd2",
}


@pytest.mark.parametrize("suite", sorted(DIGESTS))
def test_verify_corpus_is_byte_identical(suite):
    digest = hashlib.sha256()
    for degree in DEGREES:
        for seed in SEEDS:
            argv = [f"--suite={suite}", f"--degree={degree}", "--trials=3", f"--seed={seed}"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["verify", *argv, "--json"])
            digest.update(out.getvalue().encode())
            digest.update(str(code).encode())
    assert digest.hexdigest() == DIGESTS[suite]
