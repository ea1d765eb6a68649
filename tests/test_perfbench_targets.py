"""The benchmark can still run everything it names in the package.

``perfbench/tracer.py`` names its targets as (module, attribute path)
pairs; a rename in ``src/`` would make the tracer fail at install time.
``perfbench/workloads.py`` builds the argv pools; a size cap that refused one
of them would drop that op from its workload.  Both files are loaded by
path, without adding ``perfbench`` to ``sys.path``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import meixnerops.cli as cli
import meixnerops.suites as suites

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the file runs.
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, path, _ in tracer.TARGETS:
        owner = importlib.import_module(f"meixnerops.{module}")
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), (module, path)


WORKLOADS = TRACER.parent / "workloads.py"


class Reached(Exception):
    """The CLI passed every size check and started the command's work."""


def test_no_benchmark_argv_is_refused(monkeypatch):
    # Every argv of the three pools at seeds 1 and 2 must pass the CLI's size
    # checks, so that no cap can silently empty a benchmark workload.  The
    # first kernel of each command raises instead of running.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    def reached(*args, **kwargs):
        raise Reached

    for name in ("classify", "series_decomposition", "moments_via_recursion"):
        monkeypatch.setattr(cli, name, reached)
    for suite in suites.SUITE_RUNNERS:
        monkeypatch.setitem(suites.SUITE_RUNNERS, suite, reached)
    runs = 0
    for workload in workloads.WORKLOADS:
        for seed in (1, 2):
            for argv in workloads.build_pool(workload, seed):
                with pytest.raises(Reached):
                    cli.main(argv)
                runs += 1
    assert runs == 2 * (36 + 24 + 72)
