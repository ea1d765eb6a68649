"""Closed-loop benchmark of the meixnerops CLI.

One client on one thread calls ``meixnerops.cli.main(argv)`` in process with
stdout captured, and sends the next argv only after the previous call has
returned.  The argv pool of a workload comes from ``--seed`` (see
``workloads.py``) and is cycled until ``--seconds`` have passed and at
least ``MIN_OPS`` ops ran, so that ten latencies lie beyond the p90.

Every op is checked: exit code 0, no traceback, JSON that parses, no
``pass`` or ``routes_agree`` verdict that is false, and the same bytes as
the first run of the same argv.  The digest of one pass over the pool's
outputs must match ``reference.json`` at the reference seed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
library's layers (see ``tracer.py``) and reports per-layer metrics instead.
Every reported time is scaled to a reference host speed measured alongside
it (see ``hostspeed.py``); the raw times are printed next to them.  A
summary of each run, and the spans of a traced run, are written to
``.perfbench_out/`` in the checkout.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pmd_extraction --seed 1 --seconds 40 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, argv_digest, build_pool  # noqa: E402

MIN_OPS = 100
SETUP_REPEATS = 11
SETUP_KERNEL_CALLS = 30
REFERENCE_SEED = 1
VERDICT_KEYS = ("pass", "routes_agree")
# Times the import and the parser, then the host-speed kernel in the same
# fresh interpreter; the kernel is imported only after the timed part.
SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import meixnerops.cli\n"
    "meixnerops.cli.build_parser()\n"
    "seconds = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hostspeed\n"
    "print(seconds, hostspeed.mean_kernel_s(int(sys.argv[2])), meixnerops.cli.__file__)\n"
)

# Per-layer metrics reported by a traced run, as (layer, stat); see STAT_UNITS.
PER_LAYER = (
    [("operators.to_monomial_basis", s) for s in ("calls", "self_s", "max_bits")]
    + [("operators.change_of_basis", "self_s")]
    + [("pmd.extract_pmd", s) for s in ("calls", "self_s", "max_bits")]
    + [("meixner.series_decomposition", "self_s")]
    + [(f"operators.GradedOp.{m}", s) for m in ("compose", "add", "scale")
       for s in ("calls", "self_s")]
    + [(f"operators.{f}", "self_s")
       for f in ("quantum_ops", "semi_ops", "first_mismatch", "verify_universal")]
    + [("meixner.comm_ux_closed_form", "self_s")]
    + [("orthopoly.monic_polys", s) for s in ("calls", "self_s")]
    + [(f"orthopoly.{f}", s) for f in ("moments_from_sj", "gram_schmidt_from_moments")
       for s in ("calls", "self_s", "max_bits")]
    + [("orthopoly.apply_functional", "calls"), ("classify.classify", "self_s")]
    + [(f"classify.{f}", s) for f in ("distribution_moments", "crosscheck")
       for s in ("calls", "self_s")]
    + [("classify.crosscheck", "unsupported_ratio"), ("surd.Quadratic.init", "calls")]
    + [("surd.Quadratic.mul", s) for s in ("calls", "self_s")]
    + [("exact.rational_sqrt", "calls")]
    + [(f"characterize.{f}", "self_s")
       for f in ("moments_via_recursion", "moments_via_cumulants", "laplace_series", "bound_cert")]
    + [("characterize.ensure_valid", "calls"), ("exact.Poly.init", "calls")]
    + [(f"exact.Poly.{m}", s) for m in ("mul", "add") for s in ("calls", "self_s")]
    + [("cli.main", "self_s")]
)
STAT_UNITS = {"calls": "calls/op", "self_s": "s/op", "max_bits": "bits", "unsupported_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def load_cli():
    """Import ``meixnerops.cli`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "meixnerops" / "cli.py").is_file():
        raise BenchError(f"no meixnerops sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import meixnerops.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "meixnerops":
        raise BenchError(f"imported meixnerops from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup_s() -> tuple[float, float]:
    """Median time for a fresh interpreter to import the CLI and build its parser.

    Returns the median of the scaled times (see ``hostspeed``) and the median
    of the raw ones.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-s", "-c", SETUP_CODE, str(HERE), str(SETUP_KERNEL_CALLS)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=False,
        )
        if done.returncode != 0:
            raise BenchError(f"fresh interpreter failed to import the CLI:\n{done.stderr}")
        seconds, kernel_s, path = done.stdout.split()
        if Path(path).resolve().parent != SRC / "meixnerops":
            raise BenchError(f"fresh interpreter imported meixnerops from {path}")
        times.append(float(seconds))
        scaled.append(float(seconds) * hostspeed.REFERENCE_S / float(kernel_s))
    return statistics.median(scaled), statistics.median(times)


def invoke(cli, argv: list[str]) -> tuple[int | None, str, str]:
    """One op: ``cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the op failed; record the traceback and go on
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def _false_verdicts(node: object) -> int:
    if isinstance(node, dict):
        return sum(
            (key in VERDICT_KEYS and value is False) + _false_verdicts(value)
            for key, value in node.items()
        )
    if isinstance(node, list):
        return sum(_false_verdicts(v) for v in node)
    return 0


def check_output(code: int | None, out: str, err: str) -> str | None:
    """Why an op failed, or None if it passed."""
    if code != 0:
        return f"exit code {code}"
    if "Traceback" in out or "Traceback" in err:
        return "traceback"
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "output is not JSON"
    if _false_verdicts(report):
        return "a verdict is false"
    return None


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)
    first_outputs: list[str | None] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: list[float] = field(default_factory=list)
    layer_stats: dict | None = None
    traced_ops: int = 0

    @property
    def scales(self) -> list[float]:
        """Per op, the factor from raw time to time at the reference host speed."""
        return hostspeed.local_scales(self.kernel_s)

    @property
    def scale(self) -> float:
        """The factor from the run's raw op time to its scaled op time."""
        scaled = sum(t * s for t, s in zip(self.latencies, self.scales))
        return scaled / sum(self.latencies)

    @property
    def output_digest(self) -> str:
        """Digest of the first output of every argv, in pool order."""
        return hashlib.sha256("".join(self.first_outputs).encode()).hexdigest()


def run_loop(cli, pool: list[list[str]], seconds: float, tracer: Tracer | None = None,
             min_ops: int = MIN_OPS) -> LoopResult:
    """Cycle the pool until ``seconds`` passed, ``min_ops`` ran and one pass completed.

    Per-layer statistics are kept as of the last completed pass, so the
    counts of a traced run repeat exactly for a given seed.  The host-speed
    kernel runs after every op, outside the op's wall and CPU time.
    """
    res = LoopResult(first_outputs=[None] * len(pool))
    min_ops = max(min_ops, len(pool))
    wall_start = time.perf_counter()
    deadline = wall_start + seconds
    ops = 0
    while True:
        index = ops % len(pool)
        if tracer is not None:
            tracer.op_id = ops
        cpu_start = time.process_time()
        start = time.perf_counter()
        code, out, err = invoke(cli, pool[index])
        end = time.perf_counter()
        res.cpu_s.append(time.process_time() - cpu_start)
        res.latencies.append(end - start)
        res.kernel_s.append(hostspeed.time_kernel())
        first = res.first_outputs[index]
        if first is None:
            reason = check_output(code, out, err)
            res.first_outputs[index] = out
        else:
            reason = None if out == first and code == 0 else "output differs from the first run"
        if reason is not None:
            res.failures.append((ops, f"{reason}: {' '.join(pool[index])}"))
        ops += 1
        if tracer is not None and ops % len(pool) == 0:
            res.layer_stats, res.traced_ops = tracer.snapshot(), ops
        if end >= deadline and ops >= min_ops:
            break
    res.wall_s = time.perf_counter() - wall_start
    return res


def end_to_end_metrics(res: LoopResult, setup_s: float,
                       scales: list[float]) -> dict[str, tuple[float, str]]:
    """The untraced metrics, with each op's times multiplied by its entry of ``scales``.

    ops_per_s counts op time only, not the checks and the host-speed kernel
    between ops.  op_p50_ms is the median over argvs of each argv's mean.

    On a shared host, an op runs either at full speed or up to 1.7x slower,
    depending on what other tenants do at that instant, and the share of
    slow ops changes from run to run.  A median over all ops, or over each
    argv's repetitions, then jumps between the fast and the slow mode when
    that share is near one half.  The mean over an argv's repetitions moves
    only in proportion to the share, like ops_per_s; the median over argvs of
    those means is the p50 of the op mix.  The p90 needs ten samples beyond
    it, so it is taken over all ops.
    """
    ops, size = len(res.latencies), len(res.first_outputs)
    wall = [t * s for t, s in zip(res.latencies, scales)]
    cpu = [t * s for t, s in zip(res.cpu_s, scales)]
    per_argv = [statistics.fmean(wall[i::size]) for i in range(size)]
    return {
        "ops_per_s": (ops / sum(wall), "1/s"),
        "op_p50_ms": (1000 * statistics.median(per_argv), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(wall, n=10)[8], "ms"),
        "cpu_ms_per_op": (1000 * sum(cpu) / ops, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(res: LoopResult) -> dict[str, tuple[float, str]]:
    stats, ops = res.layer_stats, res.traced_ops
    metrics = {}
    for layer, stat in PER_LAYER:
        s = stats[layer]
        if stat == "calls":
            value = s.calls / ops
        elif stat == "self_s":
            value = s.self_s * res.scale / ops
        elif stat == "max_bits":
            value = s.max_bits
        else:
            value = s.raised.get("Unsupported", 0) / s.calls if s.calls else 0.0
        metrics[f"{layer}.{stat}"] = (value, STAT_UNITS[stat])
    return metrics


def reference_digest(workload: str, seed: int) -> str | None:
    if seed != REFERENCE_SEED:
        return None
    return json.loads((HERE / "reference.json").read_text())["output_digest"][workload]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = load_cli()
        pool = build_pool(args.workload, args.seed)
        setup_s, raw_setup_s = measure_setup_s()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    invoke(cli, pool[0])  # warm-up, untimed and unchecked: the loop checks it again
    hostspeed.mean_kernel_s(10)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        res = run_loop(cli, pool, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    ops, failed = len(res.latencies), len(res.failures)
    digest = res.output_digest
    expected = reference_digest(args.workload, args.seed)
    digest_ok = expected is None or digest == expected
    if tracer is not None:
        metrics, raw = per_layer_metrics(res), {}
    else:
        metrics = end_to_end_metrics(res, setup_s, res.scales)
        raw = end_to_end_metrics(res, raw_setup_s, [1.0] * len(res.latencies))
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    ops_per_s = ops / (res.scale * sum(res.latencies))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: closed loop, one client")
    print(f"argv_digest {argv_digest(pool)} ({len(pool)} argv in the pool)")
    verdict = "no reference at this seed" if expected is None else (
        "matches reference" if digest_ok else f"DIFFERS from reference {expected}")
    print(f"output_digest {digest} ({verdict})")
    for reason in res.failures[:10]:
        print(f"failed op {reason[0]}: {reason[1]}")
    print(f"ops_failed_ratio {failed / ops:.6g} ratio ({failed}/{ops} ops)")
    print(f"host_speed_scale {res.scale:.6g} (reference kernel: mean "
          f"{1000 * statistics.fmean(res.kernel_s):.4g} ms over {ops} calls, reference "
          f"{1000 * hostspeed.REFERENCE_S:.4g} ms); times below are scaled, op by op")
    if tracer is not None:
        print(f"ops_per_s {ops_per_s:.6g} 1/s (traced; {ops} ops; raw "
              f"{ops / sum(res.latencies):.6g})")
        base = res.layer_stats["classify.crosscheck"].calls
        print(f"classify.crosscheck.unsupported_ratio base: {base} calls "
              f"in {res.traced_ops} ops")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_p50_ms":
            note = f" (median over {len(pool)} argv of each one's mean; n={ops})"
        elif name == "op_p90_ms":
            note = f" (n={ops}, {ops - int(0.9 * ops)} beyond)"
        elif name == "setup_s":
            note = f" (median of {SETUP_REPEATS} fresh interpreters)"
        if name in raw and name != "peak_rss_mb":
            note += f" raw {raw[name][0]:.6g}"
        print(f"{name} {value:.6g} {unit}{note}")

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "argv_digest": argv_digest(pool), "output_digest": digest,
        "reference_digest": expected, "ops": ops, "failed": failed,
        "failures": res.failures, "ops_per_s": ops_per_s, "wall_s": res.wall_s,
        "pool_size": len(pool), "latencies_s": res.latencies, "kernel_s": res.kernel_s,
        "scale": res.scale, "metrics": metrics_json,
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
    }
    if tracer is not None:
        summary["layers"] = {
            name: {"calls": s.calls, "self_s": s.self_s, "total_s": s.total_s,
                   "max_bits": s.max_bits, "raised": s.raised}
            for name, s in res.layer_stats.items()
        }
        summary["traced_ops"] = res.traced_ops
        summary["spans"] = tracer.spans
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(summary))

    print(json.dumps({
        "correct": failed == 0 and digest_ok,
        "attempted": ops,
        "failed": failed,
        "metrics": metrics_json,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
