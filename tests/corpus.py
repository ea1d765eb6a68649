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
  a duplicate shift, the coefficients negated, and the first term ``c:d``
  with ``-c:-d`` and ``0:0``), at
  ``--max-moment`` of 0, 1, 12 and 40.  The breaks exit 2, so their stderr
  is pinned.
- ``refusals``: ``--json`` runs on both sides of every size flag's bounds
  and caps, which mostly exit 2.  ``decompose`` at ``--order`` -1, 0, 200
  and 201 on a Pascal law, a Binomial law and six quadruples that every
  command refuses, and on both sides of the ``order^3 * bits`` cap at
  orders 50 and 200; ``verify --suite=limit`` at ``--degree`` 3, 4 and 201
  and ``--trials`` -1, 0 and 1001; ``classify`` at ``--max-moment`` -1 and
  201 on the same eight laws, and one bit above the cap at 200;
  ``characterize`` at ``--max-moment`` -1, 0, 12 and 201 on a valid, five
  malformed and four rule-breaking combinations, and past the growth
  certificate's cap.  Argparse's own rejections are left out: their text
  belongs to argparse.

The ``pmd``, ``limit``, ``gramschmidt`` and ``decompose`` sweeps were
pinned while the operators on polynomial diagonals were still held as
``Poly`` diagonals; ``decompose_text`` and ``classify`` while ``Delta``,
``tau`` and the support bound were still recomputed from the parameters on
every use; ``characterize`` once its last break reached ``ZeroCoefficient``
on every draw; ``refusals`` once ``decompose`` refused a
malformed or inadmissible quadruple as ``invalid parameters``, as
``classify`` does.

``tests/test_corpus.py`` checks every digest under pytest.  This module
needs only the package, so it also runs as a script on an interpreter
without pytest: ``PYTHONPATH=src python tests/corpus.py`` prints ``sweep
digest ok`` (or ``MISMATCH``) for every sweep, from the same generators,
and exits 1 on any mismatch.  A change that alters output on purpose
re-pins only the sweeps it names.
"""

import contextlib
import hashlib
import io
import sys
from fractions import Fraction
from random import Random

from meixnerops.characterize import (
    DuplicateShift,
    NegativeMean,
    SumNotZero,
    ZeroCoefficient,
)
from meixnerops.cli import main
from meixnerops.exact import format_rat
from meixnerops.meixner import OPS, MeixnerParams, TranslationCombo
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
    """The draw, then the draw with its sum off by 1, a duplicate shift and
    its coefficients negated, then its first term c:d with -c:-d and a
    useless 0:0.  Each raises its class in ``RULE_BREAK_ERRORS``."""
    (c, d), *rest = terms = combo.terms
    yield combo
    yield TranslationCombo(((c + 1, d), *rest))
    yield TranslationCombo((*terms, (0, d)))
    yield TranslationCombo(tuple((-c, d) for c, d in terms))
    yield TranslationCombo(((c, d), (-c, -d), (0, 0)))


RULE_BREAK_ERRORS = (None, SumNotZero, DuplicateShift, NegativeMean, ZeroCoefficient)


def characterize_argv():
    for seed in range(60):
        for combo in rule_breaks(sample_combo(Random(seed))):
            for max_moment in (0, 1, 12, 40):
                yield ["characterize", f"--combo={combo.format()}",
                       f"--max-moment={max_moment}", "--json"]


PASCAL = {"alpha": "3", "alpha0": "1", "beta": "2", "t": "1"}
BINOMIAL = {"alpha": "0", "alpha0": "1/3", "beta": "-1/4", "t": "1"}


def refused_params():
    """Six quadruples beside the Pascal law that every command refuses: the
    four of ``param_breaks``, then a decimal and an exponent form."""
    yield from param_breaks(MeixnerParams.from_strings(*PASCAL.values()))
    yield {**PASCAL, "alpha0": "0.5"}
    yield {**PASCAL, "t": "1e3"}


# A valid combination, five malformed ones, then one break of each rule.
REFUSAL_COMBOS = ("1:1,-1:0", "1;1", "", ":", "1:", "x:1",
                  "1:1", "1:1,-1:1", "1:1,-1:2", "1:1,-1:-1,0:0")


def refusals_argv():
    laws = [PASCAL, BINOMIAL, *refused_params()]
    for fields in laws:
        for order in (-1, 0, 200, 201):
            yield ["decompose", *param_flags(fields), "--op=U", f"--order={order}", "--json"]
    # Four parameters 0, 0, 0 and t take 4 + bits(t) bits; order^3 * bits may
    # reach 240000000, so 1920 bits at order 50 and 30 at order 200.
    for order, allowed in ((50, 1920), (200, 30)):
        for t in (2 ** (allowed - 4) - 1, 2 ** (allowed - 4)):
            yield ["decompose", "--alpha=0", "--alpha0=0", "--beta=0", f"--t={t}", "--op=U",
                   f"--order={order}", "--json"]
    for degree in (3, 4, 201):
        for trials in (-1, 0, 1001):
            yield ["verify", "--suite=limit", f"--degree={degree}", f"--trials={trials}", "--json"]
    for fields in laws:
        for max_moment in (-1, 201):
            yield ["classify", *param_flags(fields), f"--max-moment={max_moment}", "--json"]
    # 151 bits, one above the cap at --max-moment=200.
    c = 2**48 - 1
    yield ["classify", f"--alpha={c}", f"--alpha0=1/{c}", f"--beta=-1/{c}", "--t=4",
           "--max-moment=200", "--json"]
    for combo in REFUSAL_COMBOS:
        for max_moment in (-1, 0, 12, 201):
            yield ["characterize", f"--combo={combo}", f"--max-moment={max_moment}", "--json"]
    yield ["characterize", "--combo=1000000000:1000000000,-1000000000:0", "--max-moment=4",
           "--json"]


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
    "refusals": refusals_argv,
}
DIGESTS = {
    "universal": "33876f5011894eb60a63d7c8ab0dd108bc18be18811b30009c58399689826c1b",
    "doublecomm": "1ad5e956afe691b6737d83bb65d5067e97e8edaafdb9fb8857dc819ba5ea2bd2",
    "pmd": "e71ad4fba076eb83e46a355143380508bd362007c6cab4f647eaf0b975870145",
    "limit": "068543cf94fd74de578fb0482dee1624e66646996f65a1175d7aa3934a495239",
    "gramschmidt": "14605db135d9dd8c82a9f62987dfa6cde6213f29dce8f2c7a3b68f88a2d9560e",
    "decompose": "581263cbdeef81e5e136187e145c51a617b49514db4569e0e1ca597420a460f7",
    "decompose_text": "3a74e5d1018c7e3f60ba6a88d062c973bea47bc7e11a4ada6710c61829f84ef8",
    "classify": "b070d534c0f371570ba948ea948509c15ae2e45076f3d45aeba8b8ad737e3a19",
    "characterize": "11b61fc55637368c15b3bac673751d1ff3d4576704e7ce28203d4159fa22fff2",
    "refusals": "40a5e958e078c929dbdfc6d05f1275d8d742a16b219710f3af28fb0b00665306",
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


def check():
    """Print each sweep's digest against ``DIGESTS``; 1 if any differs, else 0."""
    mismatched = 0
    for name in SWEEPS:
        digest = sweep_digest(name)
        print(name, digest, "ok" if digest == DIGESTS[name] else "MISMATCH")
        mismatched += digest != DIGESTS[name]
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(check())
