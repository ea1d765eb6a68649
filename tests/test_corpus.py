"""Byte-identity corpus of the reports of the commands on polynomial diagonals.

Each sweep runs its argv in process, in the order its generator yields
them.  The stdout of each argv and then its exit code, as text, feed one
sha256 per sweep.  A change of engine that alters one byte of one report,
failing ones included, fails here.

- ``universal`` and ``doublecomm``: ``verify --suite=S --degree=D --trials=3
  --seed=s --json`` with D in ``DEGREES`` and s in 0 .. 59.  Their digests
  were taken while ``universal`` still ran on truncated ``GradedOp``
  operators, and after ``doublecomm`` had left them with its reports
  unchanged.
- ``pmd``: the same argv with D in ``SHORT_DEGREES`` and s in 0 .. 29.
- ``limit`` and ``gramschmidt``: D in ``SHORT_DEGREES`` and s in 0 .. 59.
- ``decompose``: ``decompose --json`` on Binomial laws with t/(-beta) = n for
  n = 1 .. 12, so on n + 1 support points, with t in 1 and 5/2, alpha in 0
  and 2/3, alpha0 = 1/3, every ``--op``, and ``--order`` of 0, n - 1, n,
  n + 1 and 2n + 3.  Those orders reach every branch of
  ``suites.checked_order``: below the support's last degree, at it for a
  raising operator and for the rest, and past it.

The five new sweeps were pinned while the operators on polynomial diagonals
were still held as ``Poly`` diagonals.  ``PYTHONPATH=src python
tests/test_corpus.py`` prints ``sweep digest`` for every sweep, from the
same generators, so a change that alters output on purpose re-pins only
the sweeps it names.
"""

import contextlib
import hashlib
import io
from fractions import Fraction

import pytest

from meixnerops.cli import main
from meixnerops.exact import format_rat
from meixnerops.meixner import OPS

DEGREES = (4, 5, 6, 8, 12, 24, 48, 96, 200)
SHORT_DEGREES = (4, 5, 6, 8, 12, 24, 48)


def verify_argv(suite, degrees, seeds):
    for degree in degrees:
        for seed in seeds:
            yield ["verify", f"--suite={suite}", f"--degree={degree}", "--trials=3",
                   f"--seed={seed}", "--json"]


def decompose_argv():
    for points in range(1, 13):
        for t in (Fraction(1), Fraction(5, 2)):
            beta = format_rat(-t / points)
            for alpha in ("0", "2/3"):
                for op in OPS:
                    for order in (0, points - 1, points, points + 1, 2 * points + 3):
                        yield ["decompose", f"--alpha={alpha}", "--alpha0=1/3",
                               f"--beta={beta}", f"--t={format_rat(t)}", f"--op={op}",
                               f"--order={order}", "--json"]


SWEEPS = {
    "universal": lambda: verify_argv("universal", DEGREES, range(60)),
    "doublecomm": lambda: verify_argv("doublecomm", DEGREES, range(60)),
    "pmd": lambda: verify_argv("pmd", SHORT_DEGREES, range(30)),
    "limit": lambda: verify_argv("limit", SHORT_DEGREES, range(60)),
    "gramschmidt": lambda: verify_argv("gramschmidt", SHORT_DEGREES, range(60)),
    "decompose": decompose_argv,
}
DIGESTS = {
    "universal": "33876f5011894eb60a63d7c8ab0dd108bc18be18811b30009c58399689826c1b",
    "doublecomm": "1ad5e956afe691b6737d83bb65d5067e97e8edaafdb9fb8857dc819ba5ea2bd2",
    "pmd": "e71ad4fba076eb83e46a355143380508bd362007c6cab4f647eaf0b975870145",
    "limit": "068543cf94fd74de578fb0482dee1624e66646996f65a1175d7aa3934a495239",
    "gramschmidt": "14605db135d9dd8c82a9f62987dfa6cde6213f29dce8f2c7a3b68f88a2d9560e",
    "decompose": "581263cbdeef81e5e136187e145c51a617b49514db4569e0e1ca597420a460f7",
}


def sweep_digest(name):
    """sha256 over the stdout and then the exit code of every argv of the sweep."""
    digest = hashlib.sha256()
    for argv in SWEEPS[name]():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        digest.update(out.getvalue().encode())
        digest.update(str(code).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("suite", sorted(set(DIGESTS) - {"decompose"}))
def test_verify_corpus_is_byte_identical(suite):
    assert sweep_digest(suite) == DIGESTS[suite]


def test_decompose_corpus_is_byte_identical():
    assert sweep_digest("decompose") == DIGESTS["decompose"]


if __name__ == "__main__":
    for name in SWEEPS:
        print(name, sweep_digest(name))
