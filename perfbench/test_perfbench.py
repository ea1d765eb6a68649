"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import run  # noqa: E402
from tracer import TARGETS, Tracer, layer_name  # noqa: E402
from workloads import WORKLOADS, argv_digest, build_pool  # noqa: E402

# Cheap ops that together reach every traced layer.
SMALL_POOL = [
    ["decompose", "--alpha=1", "--alpha0=-1/2", "--beta=-1/6", "--t=2", "--op=a+", "--order=4",
     "--json"],
    ["verify", "--suite=universal", "--degree=6", "--trials=1", "--seed=3", "--json"],
    ["verify", "--suite=doublecomm", "--degree=6", "--trials=1", "--seed=4", "--json"],
    ["classify", "--alpha=1", "--alpha0=0", "--beta=-1/3", "--t=1", "--max-moment=6", "--json"],
    ["classify", "--alpha=0", "--alpha0=0", "--beta=1", "--t=1", "--max-moment=6", "--json"],
    ["characterize", "--combo=-3/2:-1,3/2:0", "--max-moment=8", "--json"],
    ["verify", "--suite=gramschmidt", "--degree=4", "--trials=1", "--seed=5", "--json"],
]


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_argv_digest_depends_on_seed_only(workload):
    assert argv_digest(build_pool(workload, 7)) == argv_digest(build_pool(workload, 7))
    assert argv_digest(build_pool(workload, 7)) != argv_digest(build_pool(workload, 8))


def test_every_argv_is_accepted(cli):
    for workload in WORKLOADS:
        for argv in build_pool(workload, 2):
            for arg in argv[1:]:
                assert arg.startswith("--"), argv
            args = cli.build_parser().parse_args(argv)
            assert args.command == argv[0]


def test_negative_rationals_reach_the_program(cli):
    code, out, err = run.invoke(cli, SMALL_POOL[5])
    assert run.check_output(code, out, err) is None, err


def test_check_output_flags_failures():
    assert run.check_output(0, '{"a": [{"pass": true}]}', "") is None
    assert run.check_output(0, '{"a": [{"pass": false}]}', "") == "a verdict is false"
    assert run.check_output(0, '{"routes_agree": false}', "") == "a verdict is false"
    assert run.check_output(0, '{"pass": null}', "") is None
    assert run.check_output(1, "{}", "") == "exit code 1"
    assert run.check_output(0, "{", "") == "output is not JSON"
    assert run.check_output(0, "{}", "Traceback (most recent call last):") == "traceback"


def test_tracer_restores_every_name(cli):
    import meixnerops

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "meixnerops"]
    classes = [meixnerops.Poly, meixnerops.Quadratic, meixnerops.GradedOp]
    before = [dict(vars(owner)) for owner in modules + classes]
    original = cli.to_monomial_basis
    tracer = Tracer()
    tracer.install()
    rebound = tracer.rebound
    try:
        assert cli.to_monomial_basis is not original
        assert cli.to_monomial_basis is sys.modules["meixnerops.operators"].to_monomial_basis
        run.run_loop(cli, SMALL_POOL[:1], 0.0, tracer, min_ops=1)
    finally:
        tracer.uninstall()
    assert len(rebound) >= len(TARGETS)
    for holder, name, original in rebound:
        assert vars(holder)[name] is original
    after = [dict(vars(owner)) for owner in modules + classes]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)


def test_self_times_add_up_to_traced_op_time(cli):
    tracer = Tracer()
    tracer.install()
    try:
        res = run.run_loop(cli, SMALL_POOL, 0.0, tracer, min_ops=2 * len(SMALL_POOL))
    finally:
        tracer.uninstall()
    assert not res.failures
    assert res.traced_ops == 2 * len(SMALL_POOL)
    stats = res.layer_stats
    assert {layer_name(m, p) for m, p, _ in TARGETS} == set(stats)
    assert all(stats[name].calls for name in stats), "a layer was never reached"
    self_total = sum(s.self_s for s in stats.values())
    assert self_total == pytest.approx(stats["cli.main"].total_s, rel=1e-9)
    op_time = sum(res.latencies)
    assert self_total <= op_time
    assert self_total == pytest.approx(op_time, rel=0.05)


def test_traced_run_reports_every_per_layer_metric(cli):
    tracer = Tracer()
    tracer.install()
    try:
        res = run.run_loop(cli, SMALL_POOL, 0.0, tracer, min_ops=len(SMALL_POOL))
    finally:
        tracer.uninstall()
    metrics = run.per_layer_metrics(res)
    assert list(metrics) == [f"{layer}.{stat}" for layer, stat in run.PER_LAYER]
    assert metrics["classify.crosscheck.unsupported_ratio"][0] == pytest.approx(0.5)
    assert metrics["pmd.extract_pmd.max_bits"][0] > 0


def test_repeated_argv_must_repeat_its_output(cli):
    res = run.run_loop(cli, SMALL_POOL[5:6], 0.0, min_ops=3)
    assert not res.failures
    assert len(res.latencies) == 3


def test_local_scales_follow_the_kernel_around_each_op():
    ref = hostspeed.REFERENCE_S
    slow = [2 * ref] * 20 + [ref] * 20
    assert hostspeed.WINDOW == 5
    scales = hostspeed.local_scales(slow)
    assert len(scales) == len(slow)
    assert scales[:15] == pytest.approx([0.5] * 15)
    assert scales[-15:] == pytest.approx([1.0] * 15)
    # Op 19 averages kernel calls 14..24: six slow and five fast ones.
    assert scales[19] == pytest.approx(11 / (6 * 2 + 5))


def test_end_to_end_times_are_scaled_op_by_op(cli):
    res = run.run_loop(cli, SMALL_POOL[5:6], 0.0, min_ops=12)
    raw = run.end_to_end_metrics(res, 1.0, [1.0] * 12)
    doubled = run.end_to_end_metrics(res, 1.0, [2.0] * 12)
    assert len(res.kernel_s) == 12
    assert doubled["ops_per_s"][0] == pytest.approx(raw["ops_per_s"][0] / 2)
    for name in ("op_p50_ms", "op_p90_ms", "cpu_ms_per_op"):
        assert doubled[name][0] == pytest.approx(2 * raw[name][0])
