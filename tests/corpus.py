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
- ``ladder``: the same ``verify --json`` argv at large degrees: ``pmd`` and
  ``limit`` at D of 96 and 200, and ``gramschmidt`` at 96, each with
  ``--trials=2`` and s in 0 .. 4, then ``gramschmidt`` at 200 with
  ``--trials=1`` and s = 0.  It reaches the column expansions of the
  commutator series at orders no other sweep does.
- ``golden``: the 65 argv of the golden pins that no other sweep runs,
  in the order they were pinned: ``decompose --order=24 --json`` for every
  operator on the six ``REPRESENTATIVES`` of
  ``scripts/show_class_decompositions.py``; ``classify --json`` on the
  laws of ``GOLDEN_LAWS`` and ``characterize --json`` on the combinations
  of ``GOLDEN_COMBOS``, at the ``--max-moment`` they are keyed by;
  ``verify --json`` for ``gramschmidt`` at degree 16 (seeds 1 and 2) and 64
  (seed 1), and ``pmd`` at 48 (seed 1, ``--trials=2``).  The ``GOLDEN_*``
  tables hold each argv's own stdout digest, taken before the moment
  kernels, the basis change and the extraction moved to integers, which
  ``tests/test_golden.py`` checks one test each; the sweep brings the same
  bytes to the script run, which needs no pytest.
- ``text``: ``verify`` without ``--json`` for every suite at degree 6 and s
  in 0 .. 2, and ``characterize`` without ``--json`` on
  ``sample_combo(Random(s))``, s in 0 .. 9, at ``--max-moment=12``.
- ``failing``: failing reports, which no Meixner input reaches.  Each
  perturbation (built by ``perturbed``, ``bumped`` and ``bumped_moments``,
  which ``tests/test_cli.py`` shares) is live, through ``perturbing``, only
  while its own argv run, and the sweep runs last: ``[U,X]``'s closed
  form off by (1/7) n(n-1)...(n-D+1) on diagonals 0 and +1 for
  ``doublecomm`` at D of 4 and 6 and s of 84 and 158, which draw Binomial
  laws on D + 1 points, so the residual column at ``fail_index`` D reads
  the whole basis; a bumped closed-form coefficient for ``verify
  --suite=pmd`` and for ``decompose`` in JSON and text; a bumped recovered
  recurrence for ``gramschmidt``; bumped moments for the ``classify``
  crosscheck and for ``characterize``'s Laplace route, in JSON and text.

The ``pmd``, ``limit``, ``gramschmidt`` and ``decompose`` sweeps were
pinned while the operators on polynomial diagonals were still held as
``Poly`` diagonals; ``decompose_text`` and ``classify`` while ``Delta``,
``tau`` and the support bound were still recomputed from the parameters on
every use; ``characterize`` once its last break reached ``ZeroCoefficient``
on every draw; ``refusals`` once ``decompose`` refused a
malformed or inadmissible quadruple as ``invalid parameters``, as
``classify`` does; ``ladder`` before one integer helper took over the column
expansions of ``series_by_commutators`` and ``diagonal_report``;
``golden`` and ``text`` while ``PMDecomp`` and ``TranslationExpr`` still
trimmed their zeros by loops of their own; ``failing`` once its text reports
named where they fail: ``decompose`` its first differing A_n and the
residual, and ``characterize`` each route that differs from the recursion
route and the first m where it does.

``tests/test_corpus.py`` checks every digest under pytest.  This module
needs only the package, so it also runs as a script on an interpreter
without pytest: ``PYTHONPATH=src python tests/corpus.py`` prints ``sweep
digest ok`` (or ``MISMATCH``) for every sweep, from the same generators,
and exits 1 on any mismatch.  A change that alters output on purpose
re-pins only the sweeps it names.
"""

import contextlib
import hashlib
import importlib
import io
import runpy
import sys
from dataclasses import replace
from fractions import Fraction
from math import prod
from pathlib import Path
from random import Random

import meixnerops.cli as cli
import meixnerops.suites as suites
from meixnerops.characterize import (
    DuplicateShift,
    NegativeMean,
    SumNotZero,
    ZeroCoefficient,
)
from meixnerops.cli import main
from meixnerops.exact import ONE, Poly, format_rat
from meixnerops.meixner import OPS, MeixnerParams, TranslationCombo
from meixnerops.operators import linear_combination
from meixnerops.orthopoly import MomentSeq
from meixnerops.pmd import PMDecomp
from meixnerops.sampling import KINDS, sample_combo, sample_params
from meixnerops.suites import SUITE_RUNNERS

# The package exports the function ``classify``, which hides the module.
classify_module = importlib.import_module("meixnerops.classify")
SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "show_class_decompositions.py"
REPRESENTATIVES = runpy.run_path(str(SCRIPT))["REPRESENTATIVES"]

DEGREES = (4, 5, 6, 8, 12, 24, 48, 96, 200)
SHORT_DEGREES = (4, 5, 6, 8, 12, 24, 48)


def verify_argv(suite, degrees, seeds, trials=3, flags=("--json",)):
    for degree in degrees:
        for seed in seeds:
            yield ["verify", f"--suite={suite}", f"--degree={degree}", f"--trials={trials}",
                   f"--seed={seed}", *flags]


def ladder_argv():
    for suite in ("pmd", "limit"):
        yield from verify_argv(suite, (96, 200), range(5), trials=2)
    yield from verify_argv("gramschmidt", (96,), range(5), trials=2)
    yield from verify_argv("gramschmidt", (200,), range(1), trials=1)


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


# The golden pins: the stdout sha256 of each argv, one test each in
# ``tests/test_golden.py``.  ``decompose --order=24 --json`` on every
# operator of the script's representatives, taken before the basis change and
# the extraction moved to integer kernels.
GOLDEN_DECOMPOSE = {
    ("Gaussian", "U"): "952fc849d5a8bf39c9e7f3dd8f558d58e705467129ee28aa1b18b85ed90bb72f",
    ("Gaussian", "V"): "411897c5e64b908b92c56844b07588b748dfa99cf4da4799903acf6e46186971",
    ("Gaussian", "N"): "7b060c8a0172da0165eb856eb9c4da4fcd082c52d63372a6621029597ff3d97e",
    ("Gaussian", "a0"): "ef3f34a369fb7be3442c7a7790d1d334d6d529a11821678392fddb249b7fcb23",
    ("Gaussian", "a-"): "ed861ecc2087bb49c3a1275722719b84d740c069eb6e6393506197d122366132",
    ("Gaussian", "a+"): "5caba4a2c00b5d050d8f0c8cd9ebde33daa9fffe766abb4463902e7f8e9acb2f",
    ("Poisson", "U"): "83a488feb8e980ed470bbe4c9a7a7f59326a62332e643009ceebf4aa95920192",
    ("Poisson", "V"): "91db8ce29c45bf1d08130c1c07debd0429ad13a5a45e5de503e37d6173479c21",
    ("Poisson", "N"): "69154e866e6cbd8778b59ff45658e4705c15ec83f2cfc0afed6d32a1ef70a5c4",
    ("Poisson", "a0"): "9512f777ff98651aadc570d0e6eb6ba58e2256aa121d684fdff03ba83880f619",
    ("Poisson", "a-"): "e5e3dba2a5db70fcbcc1b1fdd6a2ab5dafff456aafca3873c4714dcd0183a43a",
    ("Poisson", "a+"): "d97ec5d4d2ad8b57c0918adc1ba5dfc3b0134e6f045423b978a4e4c9cb7b720e",
    ("Pascal", "U"): "9a009557c2ef3d49d87a516c73047aa02049eaf8dd7ca4a6ad59f63d97fb272b",
    ("Pascal", "V"): "9629b2189b8cd3ea374f35f7ce1c29052cfc99ae90fadd4c00d892f79edec3b4",
    ("Pascal", "N"): "31c27e97fa8129de3c90f60d6d0f0e3c63aa8bbeee1b26943b266b0814895477",
    ("Pascal", "a0"): "3ed2644798d7a1f8054b9b3f87fe64577255701efbfccc79cf5ce7539f79f7b4",
    ("Pascal", "a-"): "8d599b8e625d7993e284c360d7f3444fad3bb21ce5462b82bca21f882fd8ac16",
    ("Pascal", "a+"): "651e8270071d124939cbf6f4182b156f403b4b28620b0001c2d796ed859093c6",
    ("Gamma", "U"): "edf4265b32137c208e36e51f5367b2c9eddc48c466caf0da7b00f7f8e54a5111",
    ("Gamma", "V"): "02ff122fb5439afa1603fc6480111a43d92f382ae1fd3da8408c7932f64b242f",
    ("Gamma", "N"): "163a70ea37a0bb8f9c4403c17d2467fea0be2a6a6e24646a677a6d750360380c",
    ("Gamma", "a0"): "9352f4d947d3200047e077cdde3b5e9b61bcc5d388ed4c2a3bfcb398f499eb67",
    ("Gamma", "a-"): "e82242c13033d43ae60250f16429386a6c2de20f42f380545b75bfca9b1ac98a",
    ("Gamma", "a+"): "a914bd88677bafd70467fdf1b59ceeea6bca12f86c43c68347fc13a4ce2fd938",
    ("hyperbolic secant", "U"): "7cd5d60adfb32110959ec11cd2b852414757b1867885d74adf86494b1c893456",
    ("hyperbolic secant", "V"): "79932bc52c9e1cbdb70f9bd2630c962aa43dd737c71c6da4f189f6484b9b4f90",
    ("hyperbolic secant", "N"): "56ad84e02092effa1a0036fe61e472014975e531d587847aac7b73483b690c04",
    ("hyperbolic secant", "a0"): "8afe0b15bd1f7054cd47e48b7c426c5ff4c6faf9a2936e7785c5ebc23941a3ae",
    ("hyperbolic secant", "a-"): "8a2056707f69f83f0567e156fff48a28e181ed6f7eafcdf8c1e8d83bb395e66e",
    ("hyperbolic secant", "a+"): "b46b034ae18807c2207c3efcfff1121cc254e6947a5089125b5c03fe2c30e0ca",
    ("Binomial", "U"): "697be259311dd83f11279c3cefe3929cae6ea44451b7fe76bbb3219d88b124b8",
    ("Binomial", "V"): "08dc3aa510154cd4d4d7a92cb0d6f1ce964cdefc1527ce9c475b3136a9332e37",
    ("Binomial", "N"): "32b7b39d7cdfb24b6e29610bd27eb0ee14bdfe07496ad189377e600b1f7fd170",
    ("Binomial", "a0"): "babb78762aad1f944eff0d90e9dee8e257fc6fcd4bdffe73030930f5b5cacf1c",
    ("Binomial", "a-"): "8217e8857f60ba1d5a63f303b2fb287da5a0401f0798a7386a4f70c525e77854",
    ("Binomial", "a+"): "fd353dec52e835d4847bf8ffb75ca3308d96c64259575e8da39c6ea3b5fd0056",
}
# ``classify --json`` on (alpha, alpha0, beta, t), by --max-moment.  At 24
# (pinned before the moment kernels moved to integers): Pascal with a rational
# and an irrational sqrt(Delta), Binomial with Delta = 4 and with Delta = 7/3
# (surds that must cancel).  At 60 (before the oracles moved to integer pairs):
# Binomial laws on 201 and on 2 points, both with an irrational sqrt(Delta),
# Poisson, Gamma, Pascal with sqrt(Delta) = 3/2, and Gaussian.  At 200 (before
# the moment kernels moved to Pascal's rule and small divisors): a Binomial law
# on 7 points with Delta = 7/3, a Pascal law with sqrt(Delta) = 3/2, a Gamma law.
GOLDEN_LAWS = {
    24: {
        "0 1/2 0 3/2": "943ad7bde4a7002eb0bbf2570fd832a1463f1ee0329ec4d40ff3c140644e47e0",
        "1 1 0 1": "ea49481068e87a7d7fa6ea510dea9a8a7570281801b1e17103943ec8f25e0277",
        "3 0 2 2": "2f277a6af061941e6a1b4d7dda63a58616915afe638116bee3acb7270a519952",
        "2 1/3 1/2 5/4": "4a7f9facc15724e8b1ecd9cbe1764944494bc21eee2904f81dbf111ab1637189",
        "2 1 1 1": "8cc27bb8ab1e19ffcb5d78da5fddba65f5e2f4eaf7f168735b70087cea31c21f",
        "0 0 1 1": "627bd4135ef10224b9af811bebcf392245227e048a9a8a7497c3c6f2372ca194",
        "0 0 -1 2": "2a9938614009ea0c6bc25ceef20e555a12b183081ed084fe1726951a962c526c",
        "1 -1/2 -1/3 2": "42890dfebea77e95c04b69504b2e0daf57309af4c4995afa4a2ce5e3b226b4dd",
    },
    60: {
        "1 1/3 -1/200 1": "6a47ea72fef330c7024d3d36b3b2169d70fce95ed78d1e2d30912a7553d14c2c",
        "1 1/3 -1 1": "1ba2f6d22342ef6ae348f6effab4de8548589b7ce75cb66b76cabbd3906af6cb",
        "2/3 1/5 0 3/7": "7e71e0a5f1b8830baa2592a7537299cbff68a227853ab01a04bf5a1b294fbe69",
        "1 -1/2 1/4 3/2": "3f271028a23e776328bf4e1803848b68d8dae58bd2e51bb5b9a2bbde60af0105",
        "5/2 1/7 1 2/3": "d1b0fa5aaf576cc61b71d9342a895291bfc03f1afc85d61f34b8d080beb8c5d9",
        "0 -2/3 0 5/3": "2c81c4b9dd04bf7508c5c19283731323acc89fd48a90e483f745b4e2dd3b0ccd",
    },
    200: {
        "1 -1/2 -1/3 2": "bbbf0e7a1c2982b429c2a251eae7e80c7913f1da58444d85101dc360cbfa592f",
        "5/2 1/7 1 2/3": "b922cac8d1343b02948bf10f086e609be28277429f1de263c4909f0a5e2a75f9",
        "1 -1/2 1/4 3/2": "8495e8a828160ea737bea64de570eb6b432063ab3fd12680cb0849ac554f2a1c",
    },
}
# ``characterize --json``, by --max-moment.  At 40 (pinned before the moment
# kernels moved to integers): mixed denominators, a zero-shift term in three
# combinations, none in two.  At 200 (before Pascal's rule and small divisors):
# a zero-shift pair, three terms with mixed denominators and a zero shift, two
# nonzero shifts.
GOLDEN_COMBOS = {
    40: {
        "1:1,-1:0": "52ea2db482f0bbc153912e515a19366186fbb52e2581ec6cd2cae0e9e9bbf869",
        "1:1,-1:-1": "cb40028d3177ae65b178911e2bbe635d83424e584f04f9f81734bb9762c95b60",
        "3/2:1/2,-1/3:-2/3,-7/6:0": "cddbbedd11eb2e67b24279fde31197c2798452d7671f545c992187e7e2b805dc",
        "5/4:5/2,-3/4:-3/4,-1/2:0": "9b5662fde79aaf19ddcf530153a018931e790b08e679764ab89b8c841b288f87",
        "2:3/2,-2:-5/3": "0dc6e9b71224a065aac07aa078caa37ac068f454378ca97295c4b7a4260358f8",
    },
    200: {
        "1:1,-1:0": "93a717f9b0e025447963f7539161f34bf3e6d8cad6efdd0dfaccf8ac303af16c",
        "3/2:1/2,-1/3:-2/3,-7/6:0": "352140d220f648794b506a4e00877fa16c4179326338519547a8f0a8fe669a3d",
        "2:3/2,-2:-5/3": "a85d0dde0adb0c0708a8fb8c6968b25bcd416d11b0f5b5362f3f23194a7a2103",
    },
}
# ``verify --json`` by (suite, degree, trials, seed): ``gramschmidt`` at 16
# before the moment kernels moved to integers (seed 2 draws a Binomial law on 6
# points, so the finite-support branch runs); ``pmd`` at 48 before
# ``decompose`` moved to one integer pipeline, six operators on a Poisson and a
# Gamma draw, each extracted at truncation 51; ``gramschmidt`` at 64 before
# Pascal's rule and small divisors.
GOLDEN_VERIFY = {
    ("gramschmidt", 16, 3, 1): "5bb574bd770bc1150d326f6c933296098ecd7148864ac773aab6b27cb34827a8",
    ("gramschmidt", 16, 3, 2): "3a0fd019eaa3a41da15032493021fd44823754e6fc0d29566c327ce7be3104bb",
    ("pmd", 48, 2, 1): "4bbeb18b95ccc3bb3958ac478eaf9edb531d88412677ebadb53a90c15cb4124f",
    ("gramschmidt", 64, 3, 1): "bcaa0cf5a0ff85fe14e160e2e772bc6f3f84fb0bfb5ccfa2373dd1ac5e534b00",
}
# ``verify --suite=S --degree=12 --trials=3 --seed=1 --json``, pinned before the
# suite runners moved into ``meixnerops.suites``.  The ``universal``,
# ``doublecomm`` and ``limit`` sweeps run these argv too, so ``golden`` leaves
# them out.
GOLDEN_SUITES = {
    "universal": "017686ce4adf7dc817ec45ce5d4fd96df6c230e2d564d8b4495f0521e03d6d7c",
    "doublecomm": "cad688fe323462dc74aaf851e90150aef6fd0b59fc73b04396a43357051ed109",
    "limit": "3cc24ca3e994f3c1ce1d2a63fe31586a556739775586f521ea49562a045b0503",
}


def golden_decompose(p, op):
    return ["decompose", *param_flags(p.to_json_dict()), f"--op={op}", "--order=24", "--json"]


def golden_classify(law, max_moment):
    fields = dict(zip(("alpha", "alpha0", "beta", "t"), law.split()))
    return ["classify", *param_flags(fields), f"--max-moment={max_moment}", "--json"]


def golden_characterize(combo, max_moment):
    return ["characterize", f"--combo={combo}", f"--max-moment={max_moment}", "--json"]


def golden_verify(suite, degree, trials, seed):
    return next(verify_argv(suite, (degree,), (seed,), trials))


def golden_argv():
    for _, p in REPRESENTATIVES:
        for op in OPS:
            yield golden_decompose(p, op)
    for max_moment in (24, 60):
        yield from (golden_classify(law, max_moment) for law in GOLDEN_LAWS[max_moment])
    yield from (golden_characterize(combo, 40) for combo in GOLDEN_COMBOS[40])
    *early, last = (golden_verify(*key) for key in GOLDEN_VERIFY)
    yield from early
    yield from (golden_characterize(combo, 200) for combo in GOLDEN_COMBOS[200])
    yield from (golden_classify(law, 200) for law in GOLDEN_LAWS[200])
    yield last


def text_argv():
    for suite in SUITE_RUNNERS:
        yield from verify_argv(suite, (6,), range(3), flags=())
    for seed in range(10):
        yield ["characterize", f"--combo={sample_combo(Random(seed)).format()}", "--max-moment=12"]


def perturbed(decomp, index, delta):
    """``decomp`` with ``delta`` added to its coefficient A_index."""
    coeffs = [decomp.coeff(n) for n in range(max(len(decomp.coeffs), index + 1))]
    coeffs[index] = coeffs[index] + delta
    return PMDecomp(decomp.k, tuple(coeffs))


def bumped(fn, *indices):
    """``fn`` with 1 added at each of ``indices``."""
    return lambda n: fn(n) + (n in indices)


def bumped_moments(mu, *indices):
    """``mu`` with E[X^m] moved by 1/scale^m at each m of ``indices``."""
    return MomentSeq(tuple(a + (m in indices) for m, a in enumerate(mu.nums)), mu.scale)


@contextlib.contextmanager
def perturbing(owner, name, change):
    """Make ``owner.name`` return ``change(result, *args)`` of its own result, until exit."""
    original = getattr(owner, name)
    setattr(owner, name, lambda *args: change(original(*args), *args))
    try:
        yield
    finally:
        setattr(owner, name, original)


def failing_argv():
    """Each perturbation is live only while its own argv run, inside ``sweep_digest``."""
    # On Binomial laws on exactly degree + 1 points, [U,X] first fails at n = degree.
    for degree in (4, 6):
        falling = prod((Poly.of(-i, 1) for i in range(degree)), start=ONE).nums
        bump = (7, {0: falling, 1: falling})
        with perturbing(suites, "comm_ux_closed_form",
                        lambda closed, *_: linear_combination((1, closed), (1, bump))):
            yield from verify_argv("doublecomm", (degree,), (84, 158), trials=1)
    with perturbing(suites, "series_decomposition", lambda closed, p, op, order: (
            perturbed(closed, 2, Poly.of(0, Fraction(-5, 3))) if op == "a-" else closed)):
        yield from verify_argv("pmd", (8,), (3,), trials=1)
    with perturbing(cli, "series_decomposition",
                    lambda closed, *_: perturbed(closed, 3, Poly.of(Fraction(1, 7), 0, 2))):
        for flags in (["--json"], []):
            yield ["decompose", "--alpha=3/2", "--alpha0=1/3", "--beta=1/2", "--t=5/4", "--op=U",
                   "--order=6", *flags]
    with perturbing(suites, "gram_schmidt_from_moments", lambda rec, *_: replace(
            rec, shift=bumped(rec.shift, 7), link=bumped(rec.link, 2))):
        yield from verify_argv("gramschmidt", (8,), (1,), trials=1)
    with perturbing(classify_module, "moments_from_sj", lambda mu, *_: bumped_moments(mu, 5, 7)):
        yield ["classify", "--alpha=1", "--alpha0=1", "--beta=0", "--t=1", "--max-moment=8",
               "--json"]
    with perturbing(cli, "laplace_series", lambda mu, *_: bumped_moments(mu, 3)):
        for flags in (["--json"], []):
            yield ["characterize", "--combo=1/2:1/3,-1/2:0", "--max-moment=6", *flags]


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
    "ladder": ladder_argv,
    "golden": golden_argv,
    "text": text_argv,
    # Last: its perturbations are live only while its own argv run.
    "failing": failing_argv,
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
    "ladder": "fcd8e967bf94ec50aa1d3e1a5c7eb6bc9e0f8faa164c1ceb65bffcabbd06239c",
    "golden": "62197d3c1351445ab8219b86803c14ecfcbe3bdee4a92b103a883972dbb03ff9",
    "text": "f59d13309a7cfe2c7d72dd67607f5dcccf58ea373ec4168f60395c62b324bba2",
    "failing": "1eab76422343e8cbd23ddc813d75507bb480df50100519aee0b6da115c02c6b4",
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
