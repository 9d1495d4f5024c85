"""Spans around the calls that cross sobstab's module boundaries.

The tracer replaces a name in the module that imports it (for example
``sobstab.bubbles.integrate_real_line``) with a wrapper that times each call
and records its count, total time and self time: the call's duration minus
the time its child spans cover.  Nothing inside ``sobstab`` changes; the
original names are put back by ``Tracer.uninstall``.

Spans are aggregated per layer label as they close rather than kept one by
one, because a collinear report makes tens of thousands of boundary calls.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable

# (layer label, importing module, name as that module sees it).  One label
# may cover several import sites of the same function.
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("quadrature.real_line", "sobstab.bubbles", "integrate_real_line"),
    ("quadrature.real_line", "sobstab.quadrature", "integrate_real_line"),
    ("quadrature.half_line", "sobstab.quadrature", "integrate_half_line"),
    ("quadrature.axisymmetric", "sobstab.bubbles", "integrate_axisymmetric"),
    ("bubbles.hs_norm_sq", "sobstab.functional", "hs_norm_sq"),
    ("bubbles.lp_norm", "sobstab.functional", "lp_norm"),
    ("bubbles.pair_against_bubble", "sobstab.functional", "pair_against_bubble"),
    ("bubbles.pair_against_bubble", "sobstab.expansion", "pair_against_bubble"),
    ("bubbles.pair_radial", "sobstab.functional", "_pair_radial"),
    ("functional.m_value", "sobstab.functional", "m_value"),
    ("functional.functional_report", "sobstab.expansion", "functional_report"),
    ("functional.functional_report", "sobstab", "functional_report"),
    ("expansion.sweep_point", "sobstab", "sweep_point"),
    ("expansion.assemble_report", "sobstab.expansion", "assemble_report"),
)


@dataclass
class LayerStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    evals: int = 0  # QuadratureResult.evaluations, summed
    local_maxima: int = 0  # MOptimum.all_local_maxima, summed


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self._child_time: list[float] = []
        self._saved: list[tuple[Any, str, Callable]] = []

    def _wrap(self, label: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(label, LayerStats())
        stack = self._child_time
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                stats.calls += 1
                stats.seconds += dt
                stats.self_seconds += dt - children
            evaluations = getattr(result, "evaluations", None)
            if evaluations is not None:
                stats.evals += evaluations
            maxima = getattr(result, "all_local_maxima", None)
            if maxima is not None:
                stats.local_maxima += len(maxima)
            return result

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        if self._saved:
            return
        for label, module_name, attr in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(label, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def get(self, label: str) -> LayerStats:
        return self.stats.get(label, LayerStats())


def library_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced library run, normalized per operation."""
    per_op = 1.0 / ops
    out: dict[str, tuple[float, str]] = {}
    total_calls = 0
    total_evals = 0
    for kind in ("real_line", "half_line", "axisymmetric"):
        st = tracer.get(f"quadrature.{kind}")
        out[f"quadrature.{kind}.calls"] = (st.calls * per_op, "calls/op")
        out[f"quadrature.{kind}.evals"] = (st.evals * per_op, "evals/op")
        out[f"quadrature.{kind}.self_ms"] = (1e3 * st.self_seconds * per_op, "ms/op")
        if kind != "axisymmetric":  # its count is the sum of its nested calls
            total_calls += st.calls
            total_evals += st.evals
    out["quadrature.evals_per_call"] = (
        total_evals / total_calls if total_calls else 0.0,
        "evals/call",
    )
    for name in ("hs_norm_sq", "lp_norm", "pair_against_bubble", "pair_radial"):
        st = tracer.get(f"bubbles.{name}")
        out[f"bubbles.{name}.calls"] = (st.calls * per_op, "calls/op")
        out[f"bubbles.{name}.ms"] = (1e3 * st.seconds * per_op, "ms/op")
    report = tracer.get("functional.functional_report")
    m = tracer.get("functional.m_value")
    objective = tracer.get("bubbles.pair_against_bubble").calls + tracer.get(
        "bubbles.pair_radial"
    ).calls
    out["functional.functional_report.ms"] = (1e3 * report.seconds * per_op, "ms/op")
    out["functional.m_value.calls"] = (m.calls * per_op, "calls/op")
    out["functional.m_value.ms"] = (1e3 * m.seconds * per_op, "ms/op")
    out["functional.m_value.self_ms"] = (1e3 * m.self_seconds * per_op, "ms/op")
    out["functional.m_value.objective_calls"] = (
        objective / m.calls if m.calls else 0.0,
        "calls/m_value",
    )
    out["functional.m_value.local_maxima"] = (
        m.local_maxima / m.calls if m.calls else 0.0,
        "maxima/m_value",
    )
    out["functional.m_value.share"] = (
        m.seconds / report.seconds if report.seconds else 0.0,
        "ratio",
    )
    for name in ("sweep_point", "assemble_report"):
        st = tracer.get(f"expansion.{name}")
        out[f"expansion.{name}.ms"] = (1e3 * st.seconds * per_op, "ms/op")
    return out
