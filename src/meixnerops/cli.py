"""Command-line surface: classify, decompose, verify, characterize.

All mathematics is exact; JSON output is the stable machine interface and is
byte-identical for identical invocations (including the seed).  Text output
is for humans and may change.  Exit codes: 0 all checks passed, 1 a
mathematical verification failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from random import Random

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
from .meixner import OPS, InvalidParams, MeixnerParams, TranslationCombo, series_decomposition
# perfbench/test_perfbench.py checks that its tracer rebinds this name here.
from .operators import to_monomial_basis  # noqa: F401
from .suites import SUITE_RUNNERS, extraction_agreement

# Caps on the size flags, checked before any work; on a 2-core x86-64 host
# with Python 3.11:
# decompose costs about order^4.5, almost all of it the integer basis change:
# --op=U with alpha = 5/7, alpha0 = -3/11, beta = 2/13, t = 7/5 takes 0.37 s
# at order 128, 2.7 s at 200 and about 8 s at 256.
MAX_ORDER = 200
# --max-moment 200, whole runs: classify takes 0.5 s on a Binomial law on 10
# points with an irrational sqrt(Delta) (0.8 s at 100 points, 4.3 s at 10^6:
# the oracle's integers grow with the digits of n, its steps do not), 0.3 s
# on a Pascal or a Poisson law; characterize on four terms takes 0.2 s (2.8 s
# at 400).
MAX_MOMENT = 200
# verify --degree 200, one trial: pmd about 9.6 s (0.57 s at 100), gramschmidt
# 1.0 s, universal, doublecomm and limit under 0.1 s.
MAX_DEGREE = 200
MAX_TRIALS = 1000
APLUS_NOTE = (
    "a+ coefficients come from the complement identity a+ = X - a0 - a-; "
    "the raising side has no independent closed form here"
)


def _config(command: str, **fields) -> dict:
    """Everything that determines a run's output, for reproducibility."""
    return {"command": command, **{k: v for k, v in fields.items() if v is not None}}


def _emit(report: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _params_from_args(args: argparse.Namespace) -> MeixnerParams:
    return MeixnerParams.from_strings(args.alpha, args.alpha0, args.beta, args.t)


def _cap_reason(bound: int, k: int, order: int) -> str:
    """Why matrix extraction stops below ``order`` (text output only).

    With infinite support the truncation order + 3 leaves room for every
    operator, so only a finite support caps the check.
    """
    reason = (
        f"checked below order {order}: the support has {bound} points, "
        f"so the matrix stops at degree {bound - 1}"
    )
    if k > 0:
        reason += f", and a raising operator (k = {k}) needs k spare degrees at the top"
    return reason


def _max_moment_problem(m: int) -> str | None:
    if m < 0:
        return "--max-moment must be nonnegative"
    if m > MAX_MOMENT:
        return f"--max-moment must be at most {MAX_MOMENT}"
    return None


def cmd_classify(args: argparse.Namespace) -> int:
    try:
        p = _params_from_args(args)
    except (InvalidParams, ValueError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    problem = _max_moment_problem(args.max_moment)
    if problem:
        print(f"invalid input: {problem}", file=sys.stderr)
        return 2
    cls = classify(p)
    derived = p.derived()
    try:
        check = crosscheck(p, args.max_moment)
        check_json: dict | str = check.to_json_dict()
        check_ok = check.passed
    except Unsupported as exc:
        check_json = f"unsupported: {exc}"
        check_ok = True
    report = {
        "config": _config("classify", params=p.to_json_dict(), max_moment=args.max_moment),
        "classification": cls.to_json_dict(),
        "derived": {
            "delta": format_rat(derived.delta),
            "tau": format_rat(derived.tau),
            "support_bound": derived.support_bound,
        },
        "crosscheck": check_json,
    }
    lines = [
        f"class: {cls.to_json_dict()['class']}",
        f"parameters: {cls.to_json_dict()}",
        f"delta = {format_rat(derived.delta)}, tau = {format_rat(derived.tau)}"
        + (f", support points = {derived.support_bound}" if derived.support_bound else ""),
        f"moment crosscheck: {'pass' if check_ok else 'FAIL'}"
        if not isinstance(check_json, str)
        else f"moment crosscheck: {check_json}",
    ]
    _emit(report, lines, args.json)
    return 0 if check_ok else 1


def cmd_decompose(args: argparse.Namespace) -> int:
    try:
        p = _params_from_args(args)
        if args.order < 0:
            raise InvalidParams("--order must be nonnegative")
        if args.order > MAX_ORDER:
            raise InvalidParams(f"--order must be at most {MAX_ORDER}")
    except (InvalidParams, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
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
    lines = [f"{args.op} = sum_n A_n(X) D^n with deg A_n <= n + ({decomp.k}):"]
    for n in range(args.order + 1):
        lines.append(f"  A_{n} = {decomp.coeff(n)}")
    verdict = "agrees" if check.passed else "DISAGREES"
    lines.append(f"matrix extraction {verdict} through order {check.max_degree}")
    if check.max_degree < args.order:
        lines.append(_cap_reason(p.derived().support_bound, decomp.k, args.order))
    if args.op == "a+":
        report["note"] = APLUS_NOTE
        lines.append(f"note: {APLUS_NOTE}")
    _emit(report, lines, args.json)
    return 0 if check.passed else 1


def cmd_verify(args: argparse.Namespace) -> int:
    if args.degree < 4:
        print("invalid input: --degree must be at least 4", file=sys.stderr)
        return 2
    if args.degree > MAX_DEGREE:
        print(f"invalid input: --degree must be at most {MAX_DEGREE}", file=sys.stderr)
        return 2
    if args.trials < 1:
        print("invalid input: --trials must be positive", file=sys.stderr)
        return 2
    if args.trials > MAX_TRIALS:
        print(f"invalid input: --trials must be at most {MAX_TRIALS}", file=sys.stderr)
        return 2
    if args.seed is None:
        try:
            args.seed = int(os.environ.get("MEIXNER_SEED", "0") or "0")
        except ValueError:
            print("invalid input: MEIXNER_SEED must be an integer", file=sys.stderr)
            return 2
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
    lines = [f"suite {args.suite}: degree {args.degree}, {args.trials} trials, seed {args.seed}"]
    for entry in detail:
        for check in entry["checks"]:
            mark = "ok " if check["pass"] else "FAIL"
            lines.append(f"  trial {entry['trial']:3d} {mark} {check['identity']}")
    lines.append("all identities hold" if all_pass else "FAILURES found")
    _emit(report, lines, args.json)
    return 0 if all_pass else 1


def cmd_characterize(args: argparse.Namespace) -> int:
    try:
        combo = TranslationCombo.parse(args.combo)
        verdict = ensure_valid(combo)
    except InvalidCombo as exc:
        print(f"invalid combination ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    m = args.max_moment
    problem = _max_moment_problem(m)
    if problem:
        print(f"invalid input: {problem}", file=sys.stderr)
        return 2
    recursion = moments_via_recursion(combo, m)
    cumulant = moments_via_cumulants(combo, m)
    laplace = laplace_series(combo, m)
    agree = tuple(recursion) == tuple(cumulant) == tuple(laplace)
    cert = bound_cert(combo, recursion)
    decomposition = verdict.to_json_dict()["poisson_terms"]
    report = {
        "config": _config("characterize", combo=combo.format(), max_moment=m),
        "valid": True,
        "moments_recursion": recursion.to_json(),
        "moments_cumulant": cumulant.to_json(),
        "moments_laplace": laplace.to_json(),
        "routes_agree": agree,
        "bound_certificate": cert.to_json_dict(),
        "poisson_decomposition": decomposition,
    }
    statement = " + ".join(f"{d['scale']}*Y({d['mean']})" for d in decomposition)
    lines = [
        f"combination {combo.format()} is a valid annihilation operator",
        f"moments through m = {m}: {recursion.to_json()}",
        f"three oracle routes agree: {'yes' if agree else 'NO'}",
        f"growth bound |E[X^m]| <= k^m m! with k = {format_rat(cert.k)}: "
        + ("holds" if cert.passed and cert.even_passed else "FAILS"),
        f"X = {statement} with independent Poisson Y(mean)",
    ]
    _emit(report, lines, args.json)
    return 0 if agree and cert.passed and cert.even_passed else 1


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
    p_ver.add_argument("--seed", type=int, default=None, help="defaults to $MEIXNER_SEED or 0")
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
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.func(args)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
