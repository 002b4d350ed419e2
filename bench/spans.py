"""In-memory spans around calls into the burgers_particle modules.

A ``Tracer`` replaces a module attribute with a wrapper that records one span
per call: name, start and end (``perf_counter_ns``), the index of the
enclosing span, and an optional work count (cells, candidates).  Each
function is wrapped where its calling module looks it up, e.g. ``step`` as
``scheme.step`` because ``scheme.run`` calls it through the module globals,
so the package itself is never edited.  Spans are named after the module
that defines the function, which is the layer the cost belongs to.

``layer_metrics`` turns the spans of one CLI command into the per-layer
metrics listed in ``LAYER_UNITS``.  A metric of a layer the command never
calls reads 0.
"""

from __future__ import annotations

import time

import numpy as np

LEVELS = 3  # mesh levels of the convergence workload

LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.parse_config_ms": "ms",
    "scheme.run_s": "s",
    **{f"scheme.run_s.level{k}": "s" for k in range(LEVELS)},
    **{f"scheme.cell_steps.level{k}": "count" for k in range(LEVELS)},
    "scheme.init_state_ms": "ms",
    "scheme.cells": "count",
    "scheme.steps": "count",
    "scheme.ns_per_cell_step": "ns",
    "scheme.step_us.p50": "us",
    "scheme.step_us.p99": "us",
    "scheme.step_implicit_us.p50": "us",
    "scheme.step_implicit_us.p99": "us",
    "flux.bulk_flux_ns_per_cell": "ns",
    "flux.bulk_flux_calls_per_step": "1/step",
    "flux.interface_fluxes_us.p50": "us",
    "flux.interface_fluxes_calls_per_step": "1/step",
    "diagnostics.make_record_us.p50": "us",
    "diagnostics.make_record_us.p99": "us",
    "diagnostics.total_momentum_us.p50": "us",
    "diagnostics.record_to_step_ratio": "ratio",
    "diagnostics.maximality_probe_us_per_candidate": "us",
    "diagnostics.convergence_study_self_s": "s",
    "germ.classify_calls": "count",
    "germ.classify_us.p50": "us",
    "germ.dist1_to_H_us.p50": "us",
    "exact.germ2_path_ms": "ms",
    "trace_overhead": "ratio",
}

COUNTS = {name for name, unit in LAYER_UNITS.items() if unit in ("count", "bytes")}

NAME, START, END, PARENT, WORK = range(5)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _grid_cells(args, kwargs):
    return len(_arg(args, kwargs, 0, "grid").u)


def _array_cells(args, kwargs):
    a = _arg(args, kwargs, 1, "a")
    return a.size if isinstance(a, np.ndarray) else 0


def _candidates(args, kwargs):
    return len(_arg(args, kwargs, 3, "candidates"))


class Tracer:
    """Records spans while its wrappers are installed; ``restore`` removes them."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, work(args, kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def patch(self, module, attr, name, work=None):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, work))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def install(tracer: Tracer, cli, scheme, diagnostics, exact) -> None:
    """Wrap every layer boundary the four benchmark commands cross."""
    tracer.patch(cli, "parse_config", "cli.parse_config")
    tracer.patch(cli, "run", "scheme.run")
    tracer.patch(cli, "convergence_study", "diagnostics.convergence_study")
    tracer.patch(cli, "maximality_probe", "diagnostics.maximality_probe", _candidates)
    tracer.patch(scheme, "run", "scheme.run")  # called by convergence_study
    tracer.patch(scheme, "init_state", "scheme.init_state")
    tracer.patch(scheme, "step", "scheme.step", _grid_cells)
    tracer.patch(scheme, "step_implicit", "scheme.step_implicit", _grid_cells)
    tracer.patch(scheme, "bulk_flux", "flux.bulk_flux", _array_cells)
    tracer.patch(scheme, "interface_fluxes", "flux.interface_fluxes")
    tracer.patch(scheme, "make_record", "diagnostics.make_record")
    tracer.patch(diagnostics, "total_momentum", "diagnostics.total_momentum")
    tracer.patch(diagnostics, "dist1_to_H", "germ.dist1_to_H")
    tracer.patch(diagnostics, "classify", "germ.classify")
    tracer.patch(exact, "germ2_path", "exact.germ2_path")


def layer_metrics(spans: list[list], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced command whose root span is spans[0]."""
    n = len(spans)
    dur = np.array([s[END] - s[START] for s in spans], dtype=float)
    child = np.zeros(n)
    run_of = [-1] * n  # index of the enclosing scheme.run span
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += dur[i]
            run_of[i] = run_of[p]
        if s[NAME] == "scheme.run":
            run_of[i] = i
    self_ns = dur - child

    def idx(*names):
        return [i for i, s in enumerate(spans) if s[NAME] in names]

    def pct(ix, q, scale):
        return float(np.percentile(dur[ix], q)) / scale if ix else 0.0

    def total(ix):
        return float(dur[ix].sum()) if ix else 0.0

    steps = idx("scheme.step", "scheme.step_implicit")
    cell_steps = sum(spans[i][WORK] for i in steps)
    step_ns = total(steps)
    runs = idx("scheme.run")
    run_cells = {r: 0 for r in runs}
    run_cell_steps = {r: 0 for r in runs}
    for i in steps:
        r = run_of[i]
        if r >= 0:
            run_cells[r] = spans[i][WORK]
            run_cell_steps[r] += spans[i][WORK]
    kernel = [i for i in idx("flux.bulk_flux") if spans[i][WORK] > 0]
    kernel_cells = sum(spans[i][WORK] for i in kernel)
    probes = idx("diagnostics.maximality_probe")
    probe_candidates = sum(spans[i][WORK] for i in probes)

    def per_step(ix):
        return len(ix) / len(steps) if steps else 0.0

    m = {
        "cli.self_s": float(self_ns[0]) / 1e9,
        "cli.output_bytes": output_bytes,
        "cli.parse_config_ms": pct(idx("cli.parse_config"), 50, 1e6),
        "scheme.run_s": pct(runs, 50, 1e9),
        "scheme.init_state_ms": pct(idx("scheme.init_state"), 50, 1e6),
        "scheme.cells": sum(run_cells.values()),
        "scheme.steps": len(steps),
        "scheme.ns_per_cell_step": step_ns / cell_steps if cell_steps else 0.0,
        "scheme.step_us.p50": pct(idx("scheme.step"), 50, 1e3),
        "scheme.step_us.p99": pct(idx("scheme.step"), 99, 1e3),
        "scheme.step_implicit_us.p50": pct(idx("scheme.step_implicit"), 50, 1e3),
        "scheme.step_implicit_us.p99": pct(idx("scheme.step_implicit"), 99, 1e3),
        "flux.bulk_flux_ns_per_cell": total(kernel) / kernel_cells if kernel_cells else 0.0,
        "flux.bulk_flux_calls_per_step": per_step(idx("flux.bulk_flux")),
        "flux.interface_fluxes_us.p50": pct(idx("flux.interface_fluxes"), 50, 1e3),
        "flux.interface_fluxes_calls_per_step": per_step(idx("flux.interface_fluxes")),
        "diagnostics.make_record_us.p50": pct(idx("diagnostics.make_record"), 50, 1e3),
        "diagnostics.make_record_us.p99": pct(idx("diagnostics.make_record"), 99, 1e3),
        "diagnostics.total_momentum_us.p50": pct(idx("diagnostics.total_momentum"), 50, 1e3),
        "diagnostics.record_to_step_ratio": (
            total(idx("diagnostics.make_record")) / step_ns if step_ns else 0.0
        ),
        "diagnostics.maximality_probe_us_per_candidate": (
            total(probes) / 1e3 / probe_candidates if probe_candidates else 0.0
        ),
        "diagnostics.convergence_study_self_s": (
            float(self_ns[idx("diagnostics.convergence_study")].sum()) / 1e9
        ),
        "germ.classify_calls": len(idx("germ.classify")),
        "germ.classify_us.p50": pct(idx("germ.classify"), 50, 1e3),
        "germ.dist1_to_H_us.p50": pct(idx("germ.dist1_to_H"), 50, 1e3),
        "exact.germ2_path_ms": pct(idx("exact.germ2_path"), 50, 1e6),
    }
    for k in range(LEVELS):
        r = runs[k] if k < len(runs) else None
        m[f"scheme.run_s.level{k}"] = float(dur[r]) / 1e9 if r is not None else 0.0
        m[f"scheme.cell_steps.level{k}"] = run_cell_steps[r] if r is not None else 0
    return m
