"""Command-line surface: classify, decompose, verify, characterize.

All mathematics is exact; JSON output is the stable machine interface and is
byte-identical for identical invocations (including the seed).  Text output
is for humans and may change.  Exit codes: 0 all checks passed, 1 a
mathematical verification failed, 2 invalid input.

``main`` alone turns an outcome into output and an exit code.  Each
command returns its report, its text lines (built only when asked for) and
whether every check passed, and refuses input by raising ``Refused``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii
from math import isqrt
from random import Random
from typing import Callable

from .characterize import (
    InvalidCombo,
    bound_cert,
    ensure_valid,
    laplace_series,
    moments_via_cumulants,
    moments_via_recursion,
)
from .classify import Unsupported, classify, crosscheck
from .exact import format_rat
from .meixner import OPS, MeixnerParams, TranslationCombo, series_decomposition
# perfbench/test_perfbench.py checks that its tracer rebinds this name here.
from .operators import to_monomial_basis  # noqa: F401
from .suites import SUITE_RUNNERS, extraction_agreement

# Caps on the size flags, checked before any work; on a 2-core x86-64 host
# with Python 3.11.  The decompose caps stay where they are, since raising
# them would change exit codes.
# decompose reads the expansion off iterated commutators with X, which
# repeat within four steps, so the closed form and its rendering dominate:
# --op=U with alpha = 5/7, alpha0 = -3/11, beta = 2/13, t = 7/5 takes
# 0.007 s at order 128 and 0.008 s at 200.
MAX_ORDER = 200
# decompose also grows with the parameters, mostly in writing their large
# coefficients: --op=U, N or a+ with seven random numerators and denominators
# of equal size takes 0.02 s at order 200 (28 bits in all), 0.03 s at 100
# (238 bits), 0.15 s at 50 (1918 bits), 1.2 s at 24 (17360 bits) and 4.9 s
# at 12 (98000 bits, each number near the 4300 digits int() reads).  The cap
# is on order^3 * bits.
MAX_ORDER_CUBED_BITS = 240_000_000
# --max-moment 200, whole runs: classify takes 0.5 s on a Binomial law on 1008
# points with an irrational sqrt(Delta) (alpha = 1007, alpha0 = 1/1007,
# beta = -1/1007, t = 1; 1.5 s at 10^6 + 7 points: the oracle's integers grow
# with the digits of n), under 0.2 s on a Pascal, Gamma or Poisson law;
# characterize takes 0.1 s on four small terms and 0.3 s on 24.
MAX_MOMENT = 200
# classify and characterize also grow with the parameters, about as
# max_moment^3 * bits^1.6 to bits^1.8, with bits the total bit length of the
# numerators and denominators (of the four parameters, or of every c_i and
# d_i).  The cap is on max_moment^3 * bits^2, set by the bits allowed at the
# largest --max-moment, and was timed at the cap on the costliest inputs found.
# classify: Binomial laws with alpha = 2^k - 1, alpha0 = 1/alpha,
# beta = -1/alpha, t = 1 take 5.3 s at 200 (150 bits), 4.3 s at 100, 4.0 s
# at 50 and 2.8 s at 24; 206 bits took 8.8 s at 200.  characterize: one to
# ten random shifts p/q with p and q of equal size, coefficients 1 to 3 times
# the shift and a zero-shift balance take 2.5 to 4.8 s at 200 (400 bits),
# 1.7 to 3.2 s at 100 and 1.0 to 1.9 s at 50; 1141 bits took 23 s at 200.
CLASSIFY_BITS_AT_MAX_MOMENT = 150
CHARACTERIZE_BITS_AT_MAX_MOMENT = 400
# characterize's growth certificate raises each shift d = u/v to the power
# floor(|d|), so its integers have about floor(|d|) * (bits(u) + bits(v))
# bits, summed over the shifts: a shift of 10^9 has 31 bits, but its
# certificate would need gigabytes.  The bounds it checks grow with
# --max-moment, so the cap is on (max_moment + 10) times those bits, and was
# timed at the cap, whole runs: one shift 73 + 1/(2^61 - 1) (388 bits in all)
# takes 7.3 s at 200, of which the certificate 1.7 s and the moment routes
# most of the rest; the same family takes 5.3 s at 100 and 2.7 s at 50.
# Integer shifts take 2.2 s at 200 (865), 0.7 s at 50 and 0.3 s at 0 (13333).
CERTIFICATE_BITS_BUDGET = 2_000_000
# verify --degree 200, one trial, slowest of seeds 0-4: gramschmidt 1.0 s
# (0.12 s at 100), pmd 0.04 s, universal, doublecomm and limit under 0.002 s.
MAX_DEGREE = 200
MAX_TRIALS = 1000
APLUS_NOTE = (
    "a+ coefficients come from the complement identity a+ = X - a0 - a-; "
    "the raising side has no independent closed form here"
)

# A command's report, its text lines and whether every check passed.
Outcome = tuple[dict, Callable[[], list[str]], bool]


class Refused(ValueError):
    """Input a command refuses before any work: ``invalid <what>: <reason>``, exit 2."""

    def __init__(self, what: str, reason: str) -> None:
        super().__init__(reason)
        self.what = what


def json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, in one pass over ``value``.

    Only ``dict`` with ``str`` keys, ``list``, ``str``, ``int``, ``bool`` and
    ``None`` are written, matched on their exact type; anything else raises
    ``TypeError``.  ``indent`` is the newline and indentation that start a
    line at the depth of ``value``.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = [encode_basestring_ascii(k) + ": " + json_text(v, inner)
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([json_text(v, inner) for v in value]) + indent + "]"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    raise TypeError(f"{kind.__name__} is not written as JSON")


def _config(command: str, **fields) -> dict:
    """Everything that determines a run's output, for reproducibility."""
    return {"command": command, **fields}


def _params(args: argparse.Namespace) -> MeixnerParams:
    """The law of the parameter flags; a malformed or inadmissible one is refused."""
    try:
        return MeixnerParams.from_strings(args.alpha, args.alpha0, args.beta, args.t)
    except ValueError as exc:
        raise Refused("parameters", str(exc)) from exc


def _in_range(flag: str, value: int, lo: int, hi: int) -> None:
    """Refuse ``flag`` outside ``lo .. hi``."""
    if value < lo:
        least = {0: "nonnegative", 1: "positive"}.get(lo, f"at least {lo}")
        raise Refused("input", f"{flag} must be {least}")
    if value > hi:
        raise Refused("input", f"{flag} must be at most {hi}")


def _cap_reason(bound: int, k: int, order: int) -> str:
    """Why the check stops below ``order`` (text output only), as ``checked_order`` decides.

    Only a finite support caps it; the text keeps the words of the retired
    matrix route, whose last degree was ``bound - 1``.
    """
    reason = (
        f"checked below order {order}: the support has {bound} points, "
        f"so the matrix stops at degree {bound - 1}"
    )
    if k > 0:
        reason += f", and a raising operator (k = {k}) needs k spare degrees at the top"
    return reason


def _check_max_moment(m: int, bits: int, bits_at_max: int, holder: str) -> None:
    """Refuse --max-moment=m, or inputs of ``bits`` bits in all at it."""
    _in_range("--max-moment", m, 0, MAX_MOMENT)
    budget = MAX_MOMENT**3 * bits_at_max**2
    if m**3 * bits**2 > budget:
        raise Refused(
            "input",
            f"at --max-moment={m} the {holder} may have at most "
            f"{isqrt(budget // m**3)} bits in all, got {bits}",
        )


def _check_certificate(m: int, combo: TranslationCombo) -> None:
    """Refuse the growth certificate of ``combo`` at --max-moment=m if it is too large.

    Each shift d = u/v is raised to the power floor(|d|); the certificate's
    bits are counted as floor(|d|) * (bits(u) + bits(v)), summed over the shifts.
    """
    bits = sum(
        int(abs(d)) * (d.numerator.bit_length() + d.denominator.bit_length())
        for _, d in combo.terms
    )
    allowed = CERTIFICATE_BITS_BUDGET // (m + 10)
    if bits > allowed:
        raise Refused(
            "input",
            f"at --max-moment={m} the growth certificate may have at most "
            f"{allowed} bits, got {bits}",
        )


def _bits(values) -> int:
    """Total bit length of the numerators and denominators of exact values."""
    return sum(v.numerator.bit_length() + v.denominator.bit_length() for v in values)


def cmd_classify(args: argparse.Namespace) -> Outcome:
    p = _params(args)
    bits = _bits((p.alpha, p.alpha0, p.beta, p.t))
    _check_max_moment(args.max_moment, bits, CLASSIFY_BITS_AT_MAX_MOMENT, "parameters")
    cls = classify(p)
    try:
        check = crosscheck(p, cls, args.max_moment)
        check_json: dict | str = check.to_json_dict()
        check_ok = check.passed
    except Unsupported as exc:
        check_json = f"unsupported: {exc}"
        check_ok = True
    classification = cls.to_json_dict()
    report = {
        "config": _config("classify", params=p.to_json_dict(), max_moment=args.max_moment),
        "classification": classification,
        "derived": {
            "delta": format_rat(p.delta),
            "tau": format_rat(p.tau),
            "support_bound": p.support_bound,
        },
        "crosscheck": check_json,
    }

    def text() -> list[str]:
        return [
            f"class: {classification['class']}",
            f"parameters: {classification}",
            f"delta = {format_rat(p.delta)}, tau = {format_rat(p.tau)}"
            + (f", support points = {p.support_bound}" if p.support_bound else ""),
            f"moment crosscheck: {'pass' if check_ok else 'FAIL'}"
            if not isinstance(check_json, str)
            else f"moment crosscheck: {check_json}",
        ]

    return report, text, check_ok


def cmd_decompose(args: argparse.Namespace) -> Outcome:
    p = _params(args)
    _in_range("--order", args.order, 0, MAX_ORDER)
    bits = _bits((p.alpha, p.alpha0, p.beta, p.t))
    if args.order**3 * bits > MAX_ORDER_CUBED_BITS:
        raise Refused(
            "input",
            f"at --order={args.order} the parameters may have at most "
            f"{MAX_ORDER_CUBED_BITS // args.order**3} bits in all, got {bits}",
        )
    decomp = series_decomposition(p, args.op, args.order)
    check = extraction_agreement(p, args.op, args.order, decomp)
    agreement = {"checked_order": check.max_degree, "pass": check.passed}
    if not check.passed:
        agreement.update(fail_index=check.fail_index, residual=check.residual.to_json())
    report = {
        "config": _config("decompose", params=p.to_json_dict(), op=args.op, order=args.order),
        "decomposition": decomp.to_json_dict(),
        "extraction_agreement": agreement,
    }
    if args.op == "a+":
        report["note"] = APLUS_NOTE

    def text() -> list[str]:
        lines = [f"{args.op} = sum_n A_n(X) D^n with deg A_n <= n + ({decomp.k}):"]
        for n in range(args.order + 1):
            lines.append(f"  A_{n} = {decomp.coeff(n)}")
        verdict = "agrees" if check.passed else "DISAGREES"
        lines.append(f"matrix extraction {verdict} through order {check.max_degree}")
        if check.max_degree < args.order:
            lines.append(_cap_reason(p.support_bound, decomp.k, args.order))
        if args.op == "a+":
            lines.append(f"note: {APLUS_NOTE}")
        return lines

    return report, text, check.passed


def cmd_verify(args: argparse.Namespace) -> Outcome:
    _in_range("--degree", args.degree, 4, MAX_DEGREE)
    _in_range("--trials", args.trials, 1, MAX_TRIALS)
    rng = Random(args.seed)
    runner = SUITE_RUNNERS[args.suite]
    detail = []
    all_pass = True
    for trial in range(args.trials):
        p, checks = runner(rng, args.degree)
        ok = all(c.passed for c in checks)
        all_pass = all_pass and ok
        detail.append(
            {
                "trial": trial,
                "params": p.to_json_dict(),
                "checks": [c.to_json_dict() for c in checks],
            }
        )
    report = {
        "config": _config("verify", degree=args.degree, trials=args.trials, seed=args.seed),
        "suite": args.suite,
        "trials_detail": detail,
        "pass": all_pass,
    }

    def text() -> list[str]:
        lines = [
            f"suite {args.suite}: degree {args.degree}, {args.trials} trials, seed {args.seed}"
        ]
        for entry in detail:
            for check in entry["checks"]:
                mark = "ok " if check["pass"] else "FAIL"
                lines.append(f"  trial {entry['trial']:3d} {mark} {check['identity']}")
        lines.append("all identities hold" if all_pass else "FAILURES found")
        return lines

    return report, text, all_pass


def cmd_characterize(args: argparse.Namespace) -> Outcome:
    try:
        combo = TranslationCombo.parse(args.combo)
        verdict = ensure_valid(combo)
    except InvalidCombo as exc:
        raise Refused(f"combination ({type(exc).__name__})", str(exc)) from exc
    except ValueError as exc:
        raise Refused("input", str(exc)) from exc
    m = args.max_moment
    bits = _bits(v for term in combo.terms for v in term)
    _check_max_moment(m, bits, CHARACTERIZE_BITS_AT_MAX_MOMENT, "combination")
    _check_certificate(m, combo)
    recursion = moments_via_recursion(verdict, m)
    cumulant = moments_via_cumulants(verdict, m)
    laplace = laplace_series(verdict, m)
    agree = recursion == cumulant == laplace
    cert = bound_cert(verdict, recursion)
    decomposition = verdict.to_json_dict()["poisson_terms"]
    # Routes that agree have the same rendering.
    moments = recursion.to_json()
    report = {
        "config": _config("characterize", combo=combo.format(), max_moment=m),
        "valid": True,
        "moments_recursion": moments,
        "moments_cumulant": moments if agree else cumulant.to_json(),
        "moments_laplace": moments if agree else laplace.to_json(),
        "routes_agree": agree,
        "bound_certificate": cert.to_json_dict(),
        "poisson_decomposition": decomposition,
    }

    def text() -> list[str]:
        statement = " + ".join(f"{d['scale']}*Y({d['mean']})" for d in decomposition)
        return [
            f"combination {combo.format()} is a valid annihilation operator",
            f"moments through m = {m}: {moments}",
            f"three oracle routes agree: {'yes' if agree else 'NO'}",
            f"growth bound |E[X^m]| <= k^m m! with k = {format_rat(cert.k)}: "
            + ("holds" if cert.passed and cert.even_passed else "FAILS"),
            f"X = {statement} with independent Poisson Y(mean)",
        ]

    return report, text, agree and cert.passed and cert.even_passed


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", required=True, help="rational, e.g. 3/2")
    sub.add_argument("--alpha0", required=True, help="rational")
    sub.add_argument("--beta", required=True, help="rational")
    sub.add_argument("--t", required=True, help="positive rational")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meixnerops",
        description="exact quantum decompositions of Meixner-class random variables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="name the distribution class of a parameter set")
    _add_param_flags(p_classify)
    p_classify.add_argument(
        "--max-moment", type=int, default=8, help=f"0 .. {MAX_MOMENT}"
    )
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(func=cmd_classify)

    p_dec = sub.add_parser("decompose", help="position-momentum decomposition of an operator")
    _add_param_flags(p_dec)
    p_dec.add_argument("--op", choices=OPS, required=True)
    p_dec.add_argument("--order", type=int, default=6, help=f"0 .. {MAX_ORDER}")
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(func=cmd_decompose)

    p_ver = sub.add_parser("verify", help="randomized exact verification suites")
    p_ver.add_argument("--suite", choices=tuple(SUITE_RUNNERS), required=True)
    p_ver.add_argument("--degree", type=int, default=12, help=f"4 .. {MAX_DEGREE}")
    p_ver.add_argument("--trials", type=int, default=25, help=f"1 .. {MAX_TRIALS}")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_char = sub.add_parser("characterize", help="analyze a translation combination")
    p_char.add_argument("--combo", required=True, help='e.g. "1:1,-1:0" for c:d pairs')
    p_char.add_argument(
        "--max-moment", type=int, default=12, help=f"0 .. {MAX_MOMENT}"
    )
    p_char.add_argument("--json", action="store_true")
    p_char.set_defaults(func=cmd_characterize)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use; parsing never mutates it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command, print its outcome and return its exit code.

    Only argparse's exit and ``Refused`` are caught: an error inside the
    work propagates.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report, text, ok = args.func(args)
    except Refused as exc:
        print(f"invalid {exc.what}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json_text(report))
    else:
        for line in text():
            print(line)
    return 0 if ok else 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
