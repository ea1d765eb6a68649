"""Per-layer tracing installed from outside the program.

``Tracer.install`` replaces the public functions and methods listed in
``TARGETS`` with timing wrappers, rebinding every name under which a
``meixnerops`` module or class holds the original (``cli`` imports
``to_monomial_basis`` by name, the package re-exports most functions).
``Tracer.uninstall`` puts every original object back.

Every wrapped call pushes a frame, so a layer's self time is its duration
minus the time of the wrapped calls it made.  Calls to unwrapped code count
toward the nearest wrapped caller; ``cli.main`` is the root of every op, so
the self times of all layers add up to the traced op time.

Most wrapped functions record a span ``(name, start, end, parent, op_id)``
in memory.  The hot arithmetic methods (``Poly``, ``Quadratic``,
``GradedOp``), ``rational_sqrt`` and ``apply_functional`` run thousands of
times per op; they only add to their name's count and self time.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction

# (module, attribute path, how): "span" records spans, "agg" aggregates only,
# "bits" records spans and the largest bit length of the returned value.
TARGETS = (
    ("cli", "main", "span"),
    ("operators", "to_monomial_basis", "bits"),
    ("operators", "change_of_basis", "span"),
    ("operators", "quantum_ops", "span"),
    ("operators", "semi_ops", "span"),
    ("operators", "first_mismatch", "span"),
    ("operators", "verify_universal", "span"),
    ("operators", "GradedOp.compose", "agg"),
    ("operators", "GradedOp.__add__", "agg"),
    ("operators", "GradedOp.scale", "agg"),
    ("pmd", "extract_pmd", "bits"),
    ("meixner", "series_decomposition", "span"),
    ("meixner", "comm_ux_closed_form", "span"),
    ("orthopoly", "monic_polys", "span"),
    ("orthopoly", "moments_from_sj", "bits"),
    ("orthopoly", "gram_schmidt_from_moments", "bits"),
    ("orthopoly", "apply_functional", "agg"),
    ("classify", "classify", "span"),
    ("classify", "distribution_moments", "span"),
    ("classify", "crosscheck", "span"),
    ("surd", "Quadratic.__init__", "agg"),
    ("surd", "Quadratic.__mul__", "agg"),
    ("exact", "rational_sqrt", "agg"),
    ("exact", "Poly.__init__", "agg"),
    ("exact", "Poly.__mul__", "agg"),
    ("exact", "Poly.__add__", "agg"),
    ("characterize", "moments_via_recursion", "span"),
    ("characterize", "moments_via_cumulants", "span"),
    ("characterize", "laplace_series", "span"),
    ("characterize", "bound_cert", "span"),
    ("characterize", "ensure_valid", "span"),
)


def layer_name(module: str, path: str) -> str:
    """``operators.GradedOp.__add__`` -> ``operators.GradedOp.add``."""
    return f"{module}.{path.replace('__', '')}"


def max_bits(value: object) -> int:
    """Largest numerator or denominator bit length inside a returned value."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, int) and not isinstance(value, bool):
        return value.bit_length()
    if isinstance(value, (tuple, list)):
        return max((max_bits(v) for v in value), default=0)
    if is_dataclass(value) and not isinstance(value, type):
        return max((max_bits(getattr(value, f.name)) for f in fields(value)), default=0)
    return 0


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    max_bits: int = 0
    raised: dict[str, int] = field(default_factory=dict)

    def copy(self) -> "LayerStat":
        return LayerStat(self.calls, self.self_s, self.total_s, self.max_bits, dict(self.raised))


class Tracer:
    """Wraps the ``TARGETS`` of one imported ``meixnerops`` package."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {}
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self.op_id: int | None = None
        self._stack: list[list] = []  # [child seconds, span index] per active call
        self._rebound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        owners = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "meixnerops"]
        for module, path, how in TARGETS:
            owner = sys.modules[f"meixnerops.{module}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(layer_name(module, path), original, how)
            # A method is rebound in its class; a function in every module
            # that holds it, because callers look up the name they imported.
            holders = [owner] if classes else owners
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        self._rebound.append((holder, name, original))

    def uninstall(self) -> None:
        while self._rebound:
            holder, name, original = self._rebound.pop()
            setattr(holder, name, original)

    @property
    def rebound(self) -> list[tuple[object, str, object]]:
        return list(self._rebound)

    def _wrap(self, name: str, fn, how: str):
        stat = self.stats.setdefault(name, LayerStat())
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        record = how != "agg"
        bits = how == "bits"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            index = parent
            if record:
                index = len(spans)
                spans.append((name, 0.0, 0.0, parent, self.op_id))
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                stat.raised[kind] = stat.raised.get(kind, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[0]
                stat.total_s += duration
                if stack:
                    stack[-1][0] += duration
                if record:
                    spans[index] = (name, start, end, parent, self.op_id)
            if bits:
                stat.max_bits = max(stat.max_bits, max_bits(result))
            return result

        return wrapper

    def snapshot(self) -> dict[str, LayerStat]:
        return {name: stat.copy() for name, stat in self.stats.items()}
