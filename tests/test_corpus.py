"""Byte-identity corpus of the reports of the commands.

Each sweep runs its argv in process, in the order its generator yields
them.  The stdout, the stderr and then the exit code of each argv, as text,
feed one sha256 per sweep.  A change of engine that alters one byte of one
report, failing ones included, fails here.  The sweeps of ``verify`` and
JSON ``decompose`` write nothing to stderr, so their digests, taken over
stdout and exit code alone, are unchanged by it.

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
- ``decompose_text``: the same grid in text at ``--order`` n - 1, n and
  n + 1, which reach every branch of ``cli._cap_reason``.
- ``classify``: ``classify`` with and without ``--json`` on
  ``sample_params(Random(s), kind=k)`` for every kind k, s in 0 .. 29 and
  ``--max-moment`` of 0, 1, 2, 8 and 24; then ``--json`` at 8 on four
  invalid quadruples beside each draw, which exit 2.
- ``characterize``: ``characterize --json`` on ``sample_combo(Random(s))``
  for s in 0 .. 59 and on four rule breaks of each draw (the sum off by 1,
  a duplicate shift, the coefficients negated and an added ``0:0``), at
  ``--max-moment`` of 0, 1, 12 and 40.  The breaks exit 2, so their stderr
  is pinned.

The ``pmd``, ``limit``, ``gramschmidt`` and ``decompose`` sweeps were
pinned while the operators on polynomial diagonals were still held as
``Poly`` diagonals; the ``COMMAND_SWEEPS`` while ``Delta``, ``tau`` and the
support bound were still recomputed from the parameters on every use.
``PYTHONPATH=src python
tests/test_corpus.py`` prints ``sweep digest`` for every sweep, from the
same generators, so a change that alters output on purpose re-pins only
the sweeps it names.
"""

import contextlib
import hashlib
import io
from fractions import Fraction
from random import Random

import pytest

from meixnerops.cli import main
from meixnerops.exact import format_rat
from meixnerops.meixner import OPS, TranslationCombo
from meixnerops.sampling import KINDS, sample_combo, sample_params

DEGREES = (4, 5, 6, 8, 12, 24, 48, 96, 200)
SHORT_DEGREES = (4, 5, 6, 8, 12, 24, 48)


def verify_argv(suite, degrees, seeds):
    for degree in degrees:
        for seed in seeds:
            yield ["verify", f"--suite={suite}", f"--degree={degree}", "--trials=3",
                   f"--seed={seed}", "--json"]


def decompose_argv(orders, flags):
    for points in range(1, 13):
        for t in (Fraction(1), Fraction(5, 2)):
            beta = format_rat(-t / points)
            for alpha in ("0", "2/3"):
                for op in OPS:
                    for order in orders(points):
                        yield ["decompose", f"--alpha={alpha}", "--alpha0=1/3",
                               f"--beta={beta}", f"--t={format_rat(t)}", f"--op={op}",
                               f"--order={order}", *flags]


def param_flags(fields):
    return [f"--{name}={value}" for name, value in fields.items()]


def param_breaks(p):
    """Four invalid quadruples beside ``p``: t negated, alpha below 0,
    t/(-beta) = 3/2, and alpha0 over a zero denominator."""
    fields = p.to_json_dict()
    yield {**fields, "t": format_rat(-p.t)}
    yield {**fields, "alpha": format_rat(-p.alpha - 1)}
    yield {**fields, "beta": format_rat(-2 * p.t / 3)}
    yield {**fields, "alpha0": f"{p.alpha0.numerator}/0"}


def classify_argv():
    for kind in KINDS:
        for seed in range(30):
            p = sample_params(Random(seed), kind=kind)
            for max_moment in (0, 1, 2, 8, 24):
                for json_flag in (["--json"], []):
                    yield ["classify", *param_flags(p.to_json_dict()),
                           f"--max-moment={max_moment}", *json_flag]
            for fields in param_breaks(p):
                yield ["classify", *param_flags(fields), "--max-moment=8", "--json"]


def rule_breaks(combo):
    """The draw, then the draw with its sum off by 1, a duplicate shift,
    its coefficients negated, and an added useless term at shift 0."""
    (c, d), *rest = terms = combo.terms
    yield combo
    yield TranslationCombo(((c + 1, d), *rest))
    yield TranslationCombo((*terms, (0, d)))
    yield TranslationCombo(tuple((-c, d) for c, d in terms))
    yield TranslationCombo((*terms, (0, 0)))


def characterize_argv():
    for seed in range(60):
        for combo in rule_breaks(sample_combo(Random(seed))):
            for max_moment in (0, 1, 12, 40):
                yield ["characterize", f"--combo={combo.format()}",
                       f"--max-moment={max_moment}", "--json"]


SWEEPS = {
    "universal": lambda: verify_argv("universal", DEGREES, range(60)),
    "doublecomm": lambda: verify_argv("doublecomm", DEGREES, range(60)),
    "pmd": lambda: verify_argv("pmd", SHORT_DEGREES, range(30)),
    "limit": lambda: verify_argv("limit", SHORT_DEGREES, range(60)),
    "gramschmidt": lambda: verify_argv("gramschmidt", SHORT_DEGREES, range(60)),
    "decompose": lambda: decompose_argv(lambda n: (0, n - 1, n, n + 1, 2 * n + 3), ["--json"]),
    "decompose_text": lambda: decompose_argv(lambda n: (n - 1, n, n + 1), []),
    "classify": classify_argv,
    "characterize": characterize_argv,
}
COMMAND_SWEEPS = ("decompose_text", "classify", "characterize")
DIGESTS = {
    "universal": "33876f5011894eb60a63d7c8ab0dd108bc18be18811b30009c58399689826c1b",
    "doublecomm": "1ad5e956afe691b6737d83bb65d5067e97e8edaafdb9fb8857dc819ba5ea2bd2",
    "pmd": "e71ad4fba076eb83e46a355143380508bd362007c6cab4f647eaf0b975870145",
    "limit": "068543cf94fd74de578fb0482dee1624e66646996f65a1175d7aa3934a495239",
    "gramschmidt": "14605db135d9dd8c82a9f62987dfa6cde6213f29dce8f2c7a3b68f88a2d9560e",
    "decompose": "581263cbdeef81e5e136187e145c51a617b49514db4569e0e1ca597420a460f7",
    "decompose_text": "3a74e5d1018c7e3f60ba6a88d062c973bea47bc7e11a4ada6710c61829f84ef8",
    "classify": "b070d534c0f371570ba948ea948509c15ae2e45076f3d45aeba8b8ad737e3a19",
    "characterize": "df2ac2d854b8b8fc02f6cccd4d4ca9b636501ee6d811aa29ad406593cba4af71",
}


def sweep_digest(name):
    """sha256 over the stdout, the stderr and then the exit code of every argv of the sweep."""
    digest = hashlib.sha256()
    for argv in SWEEPS[name]():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        digest.update(out.getvalue().encode())
        digest.update(err.getvalue().encode())
        digest.update(str(code).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("suite", sorted(set(DIGESTS) - {"decompose", *COMMAND_SWEEPS}))
def test_verify_corpus_is_byte_identical(suite):
    assert sweep_digest(suite) == DIGESTS[suite]


def test_decompose_corpus_is_byte_identical():
    assert sweep_digest("decompose") == DIGESTS["decompose"]


@pytest.mark.parametrize("sweep", COMMAND_SWEEPS)
def test_command_corpus_is_byte_identical(sweep):
    assert sweep_digest(sweep) == DIGESTS[sweep]


if __name__ == "__main__":
    for name in SWEEPS:
        print(name, sweep_digest(name))
