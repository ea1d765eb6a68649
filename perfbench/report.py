"""Run every workload untraced and traced, and print one report.

For each workload it prints every end-to-end metric by name and unit, the
failed-op ratio, the tracing overhead (ops_per_s of the untraced run minus
that of the traced run, as a share of the untraced one), whether both runs
produced the same output digest, and each layer's share of the traced op
time.

Usage, from the root of a checkout:

    python3 perfbench/report.py --seed 1 --seconds 40
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT_DIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=900,
    )
    return json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def layer_shares(traced: dict) -> list[tuple[str, float, float]]:
    """(layer, self-time share, inclusive share) of the traced op time, largest first."""
    layers = traced["layers"]
    op_time = layers["cli.main"]["total_s"]
    shares = [
        (name, s["self_s"] / op_time, s["total_s"] / op_time)
        for name, s in layers.items() if s["calls"]
    ]
    return sorted(shares, key=lambda row: -row[1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)

    for workload in args.workload or list(WORKLOADS):
        plain = run_one(workload, args.seed, args.seconds, 0)
        traced = run_one(workload, args.seed, args.seconds, 1)
        print(f"== {workload} (seed {args.seed}, closed loop, one client)")
        for name, metric in plain["metrics"].items():
            print(f"  {name:<16} {metric['value']:>12.6g} {metric['unit']}")
        print(f"  ops_failed_ratio {plain['failed'] / plain['ops']:>12.6g} "
              f"({plain['failed']}/{plain['ops']} ops; traced {traced['failed']}/{traced['ops']})")
        overhead = (plain["ops_per_s"] - traced["ops_per_s"]) / plain["ops_per_s"]
        print(f"  tracing overhead {overhead:>12.2%} of ops_per_s "
              f"(untraced {plain['ops_per_s']:.4g}/s, traced {traced['ops_per_s']:.4g}/s)")
        same = plain["output_digest"] == traced["output_digest"]
        reference = plain["reference_digest"]
        match = "no reference at this seed" if reference is None else (
            "matches reference" if plain["output_digest"] == reference else "DIFFERS from reference")
        print(f"  output digest    {'same' if same else 'DIFFERENT'} traced and untraced, {match}")
        print("  layer shares of traced op time (self, inclusive):")
        for name, self_share, total_share in layer_shares(traced):
            if self_share >= 0.005 or total_share >= 0.05:
                print(f"    {name:<40} {self_share:>7.1%} {total_share:>7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
