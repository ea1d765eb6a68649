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
from dataclasses import dataclass
from random import Random

from .characterize import (
    InvalidCombo,
    bound_cert,
    ensure_valid,
    laplace_series,
    moments_via_cumulants,
    moments_via_recursion,
    validate_combo,
)
from .classify import Unsupported, classify, crosscheck
from .exact import format_rat
from .meixner import (
    InvalidParams,
    MeixnerParams,
    TranslationCombo,
    comm_ux_closed_form,
    one_meixner_limit_check,
    series_decomposition,
    szego_jacobi,
)
from .operators import (
    GradedOp,
    VerifyReport,
    _report,
    commutator,
    number_op,
    position_op,
    quantum_ops,
    semi_ops,
    to_monomial_basis,
    verify_universal,
)
from .orthopoly import gram_schmidt_from_moments, moments_from_sj
from .pmd import extract_pmd
from .sampling import sample_params, sample_params_delta0

OPS = ("U", "V", "N", "a0", "a-", "a+")
OP_GRADE = {"U": 0, "V": 1, "N": 0, "a0": 0, "a-": -1, "a+": 1}
SUITES = ("universal", "pmd", "gramschmidt", "limit", "doublecomm")
APLUS_NOTE = (
    "a+ coefficients come from the complement identity a+ = X - a0 - a-; "
    "the raising side has no independent closed form here"
)


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run's output, for reproducibility."""

    command: str
    params: dict | None
    op: str | None
    order: int | None
    degree: int | None
    trials: int | None
    seed: int | None
    combo: str | None
    max_moment: int | None
    as_json: bool

    def to_json_dict(self) -> dict:
        out = {"command": self.command}
        for key in ("params", "op", "order", "degree", "trials", "seed", "combo", "max_moment"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


def _emit(report: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _params_from_args(args: argparse.Namespace) -> MeixnerParams:
    return MeixnerParams.from_strings(args.alpha, args.alpha0, args.beta, args.t)


def _build_op(name: str, sj, trunc: int) -> GradedOp:
    aplus, azero, aminus = quantum_ops(sj, trunc)
    u, v = semi_ops(aplus, azero, aminus)
    table = {"U": u, "V": v, "N": number_op(trunc), "a0": azero, "a-": aminus, "a+": aplus}
    return table[name]


def _extraction_agreement(p: MeixnerParams, op: str, order: int) -> dict:
    """Compare closed-form coefficients against matrix extraction.

    The checkable order is capped by the truncation: finite-support systems
    only expose their quotient space, and raising operators need one spare
    degree at the top.
    """
    sj = szego_jacobi(p)
    bound = sj.support_bound
    trunc = order + 3 if bound is None else min(order + 3, bound - 1)
    graded = _build_op(op, sj, trunc)
    k = OP_GRADE[op]
    cap = min(order, graded.valid_degree - max(k, 0))
    if cap < 0:
        return {"checked_order": None, "pass": None}
    matrix = to_monomial_basis(graded, sj)
    extracted = extract_pmd(matrix, k, cap)
    closed = series_decomposition(p, op, cap)
    fail = None
    for n in range(cap + 1):
        if extracted.coeff(n) != closed.coeff(n):
            fail = n
            break
    out = {"checked_order": cap, "pass": fail is None}
    if fail is not None:
        out["fail_index"] = fail
    return out


def cmd_classify(args: argparse.Namespace) -> int:
    try:
        p = _params_from_args(args)
    except (InvalidParams, ValueError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    if args.max_moment < 0:
        print("invalid input: --max-moment must be nonnegative", file=sys.stderr)
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
        "config": RunConfig(
            "classify", p.to_json_dict(), None, None, None, None, None, None, args.max_moment,
            args.json,
        ).to_json_dict(),
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
            raise InvalidParams("order must be nonnegative")
    except (InvalidParams, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    decomp = series_decomposition(p, args.op, args.order)
    agreement = _extraction_agreement(p, args.op, args.order)
    report = {
        "config": RunConfig(
            "decompose", p.to_json_dict(), args.op, args.order, None, None, None, None, None,
            args.json,
        ).to_json_dict(),
        "decomposition": decomp.to_json_dict(),
        "extraction_agreement": agreement,
    }
    lines = [f"{args.op} = sum_n A_n(X) D^n with deg A_n <= n + ({decomp.k}):"]
    for n in range(args.order + 1):
        lines.append(f"  A_{n} = {decomp.coeff(n)}")
    if agreement["checked_order"] is None:
        lines.append("matrix extraction: not checkable at this truncation")
    else:
        verdict = "agrees" if agreement["pass"] else "DISAGREES"
        lines.append(
            f"matrix extraction {verdict} through order {agreement['checked_order']}"
        )
    if args.op == "a+":
        report["note"] = APLUS_NOTE
        lines.append(f"note: {APLUS_NOTE}")
    _emit(report, lines, args.json)
    return 0 if agreement["pass"] in (True, None) else 1


def _suite_universal(rng: Random, degree: int) -> tuple[MeixnerParams, list[VerifyReport]]:
    p = sample_params(rng, min_dim=degree + 1)
    return p, verify_universal(szego_jacobi(p), degree)


def _suite_doublecomm(rng: Random, degree: int) -> tuple[MeixnerParams, list[VerifyReport]]:
    p = sample_params(rng, min_dim=degree + 1)
    sj = szego_jacobi(p)
    d = p.derived()
    aplus, azero, aminus = quantum_ops(sj, degree)
    u, _ = semi_ops(aplus, azero, aminus)
    x = position_op(sj, degree)
    step1 = commutator(u, x)
    checks = [
        _report("[U,X] = (alpha/2)X - (delta/2)N + (tau/2)I", step1,
                comm_ux_closed_form(p, degree), sj),
        _report(
            "[[U,X],X] = -(delta/2)(X - 2U)",
            commutator(step1, x),
            (x - u.scale(2)).scale(-d.delta / 2),
            sj,
        ),
    ]
    return p, checks


def _suite_pmd(rng: Random, degree: int) -> tuple[MeixnerParams, list[VerifyReport]]:
    p = sample_params(rng, min_dim=degree + 4)
    checks = []
    for op in OPS:
        agreement = _extraction_agreement(p, op, degree)
        checks.append(
            VerifyReport(
                name=f"extraction matches closed form for {op}",
                passed=bool(agreement["pass"]),
                max_degree=agreement["checked_order"],
                fail_index=agreement.get("fail_index"),
            )
        )
    return p, checks


def _suite_gramschmidt(rng: Random, degree: int) -> tuple[MeixnerParams, list[VerifyReport]]:
    p = sample_params(rng)
    sj = szego_jacobi(p)
    mu = moments_from_sj(sj, 2 * degree)
    _, rec = gram_schmidt_from_moments(mu, degree)
    expected_bound = (
        sj.support_bound
        if sj.support_bound is not None and sj.support_bound <= degree
        else None
    )
    fail = None
    if rec.support_bound != expected_bound:
        fail = -1
    else:
        top = rec.support_bound if rec.support_bound is not None else degree
        for n in range(top):
            if rec.alpha(n) != sj.alpha(n):
                fail = n
                break
        if fail is None:
            for n in range(1, top + 1):
                if rec.omega(n) != sj.omega(n):
                    fail = n
                    break
    return p, [
        VerifyReport(
            name="moments -> Gram-Schmidt recovers the recurrence",
            passed=fail is None,
            max_degree=degree,
            fail_index=fail,
        )
    ]


def _suite_limit(rng: Random, degree: int) -> tuple[MeixnerParams, list[VerifyReport]]:
    p = sample_params_delta0(rng)
    return p, [one_meixner_limit_check(p, order=degree)]


_SUITE_RUNNERS = {
    "universal": _suite_universal,
    "pmd": _suite_pmd,
    "gramschmidt": _suite_gramschmidt,
    "limit": _suite_limit,
    "doublecomm": _suite_doublecomm,
}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.degree < 4:
        print("invalid input: --degree must be at least 4", file=sys.stderr)
        return 2
    if args.trials < 1:
        print("invalid input: --trials must be positive", file=sys.stderr)
        return 2
    if args.seed is None:
        try:
            args.seed = int(os.environ.get("MEIXNER_SEED", "0") or "0")
        except ValueError:
            print("invalid input: MEIXNER_SEED must be an integer", file=sys.stderr)
            return 2
    rng = Random(args.seed)
    runner = _SUITE_RUNNERS[args.suite]
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
        "config": RunConfig(
            "verify", None, None, None, args.degree, args.trials, args.seed, None, None,
            args.json,
        ).to_json_dict(),
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
        ensure_valid(combo)
    except InvalidCombo as exc:
        print(f"invalid combination ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    m = args.max_moment
    if m < 0:
        print("invalid input: --max-moment must be nonnegative", file=sys.stderr)
        return 2
    recursion = moments_via_recursion(combo, m)
    cumulant = moments_via_cumulants(combo, m)
    laplace = laplace_series(combo, m)
    agree = tuple(recursion) == tuple(cumulant) == tuple(laplace)
    cert = bound_cert(combo, m)
    decomposition = [
        {"scale": format_rat(d), "mean": format_rat(lam)}
        for lam, d in validate_combo(combo).poisson_terms
    ]
    report = {
        "config": RunConfig(
            "characterize", None, None, None, None, None, None, combo.format(), m, args.json,
        ).to_json_dict(),
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
    p_classify.add_argument("--max-moment", type=int, default=8)
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(func=cmd_classify)

    p_dec = sub.add_parser("decompose", help="position-momentum decomposition of an operator")
    _add_param_flags(p_dec)
    p_dec.add_argument("--op", choices=OPS, required=True)
    p_dec.add_argument("--order", type=int, default=6)
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(func=cmd_decompose)

    p_ver = sub.add_parser("verify", help="randomized exact verification suites")
    p_ver.add_argument("--suite", choices=SUITES, required=True)
    p_ver.add_argument("--degree", type=int, default=12)
    p_ver.add_argument("--trials", type=int, default=25)
    p_ver.add_argument("--seed", type=int, default=None, help="defaults to $MEIXNER_SEED or 0")
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_char = sub.add_parser("characterize", help="analyze a translation combination")
    p_char.add_argument("--combo", required=True, help='e.g. "1:1,-1:0" for c:d pairs')
    p_char.add_argument("--max-moment", type=int, default=12)
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
