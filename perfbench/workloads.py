"""Seeded inputs for the three benchmark workloads.

Every workload is a fixed-size pool of CLI argv lists.  The pool is built
from the benchmark seed alone, with the benchmark's own random draws: it
never calls ``meixnerops.sampling``, so a change to the library's sampler
cannot silently change a workload.  (The ``verify`` suites still draw their
parameters inside the program from the ``--seed`` passed to them.)

Each pool is stratified: every class, operator or command appears a fixed
number of times, and only the rationals depend on the seed.  That keeps the
cost of one pass over the pool close from seed to seed.

Every rational is passed as ``--flag=value``.  Argparse reads a separate
argument with a leading ``-`` (``-1/2``) as an option and rejects the call.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from random import Random

CLASSES = ("Gaussian", "Poisson", "Pascal", "Gamma", "HyperbolicSecant", "Binomial")
OPS = ("U", "V", "N", "a0", "a-", "a+")

PMD_ORDER = 24
# decompose truncates at order + 3, which a finite support must exceed.
PMD_MIN_SUPPORT = PMD_ORDER + 4
COMM_DEGREE = 48
COMM_SEEDS_PER_SUITE = 12
CLASSIFY_MAX_MOMENT = 24
CHARACTERIZE_MAX_MOMENT = 40
GRAMSCHMIDT_DEGREE = 16
MOMENT_OPS_PER_COMMAND = 24


def _rat(rng: Random, lo: Fraction, hi: Fraction, max_den: int = 6) -> Fraction:
    """A rational in the open interval (lo, hi).

    Its denominator is drawn from 1 .. max_den, and raised while the interval
    holds no multiple of 1/den.
    """
    den = rng.randint(1, max_den)
    lo_num = math.floor(lo * den) + 1
    hi_num = math.ceil(hi * den) - 1
    while hi_num < lo_num:
        den += 1
        lo_num = math.floor(lo * den) + 1
        hi_num = math.ceil(hi * den) - 1
    return Fraction(rng.randint(lo_num, hi_num), den)


def draw_params(rng: Random, kind: str, min_support: int = 1) -> dict[str, Fraction]:
    """Admissible (alpha, alpha0, beta, t) of the named class.

    Binomial draws have ``n + 1 >= min_support`` support points.  Half of
    the Pascal draws, at random, have a rational sqrt(Delta), so the classify
    oracle sees both its exact and its unsupported route.
    """
    zero, two, three = Fraction(0), Fraction(2), Fraction(3)
    alpha0 = _rat(rng, -two, two)
    t = _rat(rng, zero, three)
    if kind == "Gaussian":
        alpha, beta = zero, zero
    elif kind == "Poisson":
        alpha, beta = _rat(rng, zero, three), zero
    elif kind == "Pascal":
        alpha = _rat(rng, zero, three)
        if rng.random() < 0.5:
            ratio = Fraction(rng.randint(1, 4), 5)
            beta = alpha**2 * (1 - ratio**2) / 4
        else:
            beta = alpha**2 * _rat(rng, zero, Fraction(1)) / 4
    elif kind == "Gamma":
        alpha = _rat(rng, zero, three)
        beta = alpha**2 / 4
    elif kind == "HyperbolicSecant":
        alpha = _rat(rng, zero, two)
        beta = _rat(rng, alpha**2 / 4, alpha**2 / 4 + two, max_den=8)
    elif kind == "Binomial":
        n = rng.randint(max(min_support - 1, 1), max(min_support - 1, 1) + 8)
        alpha = _rat(rng, zero, three)
        beta = -t / n
    else:
        raise ValueError(f"unknown class {kind!r}")
    return {"alpha": alpha, "alpha0": alpha0, "beta": beta, "t": t}


def draw_combo(rng: Random, max_terms: int = 3) -> list[tuple[Fraction, Fraction]]:
    """Valid translation combination: positive Poisson rates on distinct nonzero
    shifts, plus a zero-shift term that brings the coefficients to sum zero."""
    count = rng.randint(1, max_terms)
    shifts: list[Fraction] = []
    while len(shifts) < count:
        d = _rat(rng, Fraction(-3), Fraction(3), max_den=4)
        if d != 0 and d not in shifts:
            shifts.append(d)
    terms = [(_rat(rng, Fraction(0), Fraction(3), max_den=4) * d, d) for d in shifts]
    balance = -sum(c for c, _ in terms)
    if balance != 0:
        terms.append((balance, Fraction(0)))
    return terms


def _param_flags(params: dict[str, Fraction]) -> list[str]:
    return [f"--{name}={params[name]}" for name in ("alpha", "alpha0", "beta", "t")]


def pmd_extraction(rng: Random) -> list[list[str]]:
    """One decompose call per (class, operator) pair, each with fresh parameters."""
    pool = []
    for kind in CLASSES:
        for op in OPS:
            params = draw_params(rng, kind, min_support=PMD_MIN_SUPPORT)
            pool.append(
                ["decompose", *_param_flags(params), f"--op={op}", f"--order={PMD_ORDER}", "--json"]
            )
    return pool


def commutator_identities(rng: Random) -> list[list[str]]:
    """Alternating universal and doublecomm suites, each with its own seed."""
    pool = []
    for _ in range(COMM_SEEDS_PER_SUITE):
        for suite in ("universal", "doublecomm"):
            pool.append(
                [
                    "verify", f"--suite={suite}", f"--degree={COMM_DEGREE}", "--trials=1",
                    f"--seed={rng.randrange(2**31)}", "--json",
                ]
            )
    return pool


def moment_oracles(rng: Random) -> list[list[str]]:
    """Equal numbers of classify, characterize and gramschmidt calls, interleaved."""
    pool = []
    for i in range(MOMENT_OPS_PER_COMMAND):
        params = draw_params(rng, CLASSES[i % len(CLASSES)])
        combo = ",".join(f"{c}:{d}" for c, d in draw_combo(rng))
        pool.append(
            ["classify", *_param_flags(params), f"--max-moment={CLASSIFY_MAX_MOMENT}", "--json"]
        )
        pool.append(
            ["characterize", f"--combo={combo}", f"--max-moment={CHARACTERIZE_MAX_MOMENT}", "--json"]
        )
        pool.append(
            [
                "verify", "--suite=gramschmidt", f"--degree={GRAMSCHMIDT_DEGREE}", "--trials=1",
                f"--seed={rng.randrange(2**31)}", "--json",
            ]
        )
    return pool


WORKLOADS = {
    "pmd_extraction": pmd_extraction,
    "commutator_identities": commutator_identities,
    "moment_oracles": moment_oracles,
}


def build_pool(workload: str, seed: int) -> list[list[str]]:
    """The argv pool of one workload; the same seed always gives the same pool."""
    # Mixing the name in keeps the workloads' draws independent of each other.
    return WORKLOADS[workload](Random(f"{workload}:{seed}"))


def argv_digest(pool: list[list[str]]) -> str:
    return hashlib.sha256(json.dumps(pool).encode()).hexdigest()
