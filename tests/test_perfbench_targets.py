"""Every layer the benchmark's tracer wraps still exists in the package.

``perfbench/tracer.py`` names its targets as (module, attribute path)
pairs; a rename in ``src/`` would make the tracer fail at install time.
The file is loaded by path, without adding ``perfbench`` to ``sys.path``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
