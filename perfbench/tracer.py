"""In-process spans around chronon_lab's layer boundaries, from outside the package.

`Tracer` replaces each spanned public function at every name a package
module binds it to (`spectrum.eig2`, `runner.mode_report`,
`kernels.step_trajectory`, `cli.run_scan`, ...) with a wrapper that records
a span: name, command id, parent span, start and end. Spans stay in memory
until `layer_metrics` reduces them; a function that no longer exists simply
reports zero calls. Leaving the `with` block restores every binding.

Self time of a span is its duration minus the time its direct child spans
cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("linalg2", "kernels", "evolution", "spectrum", "kaon", "runner", "cli")

# Layer -> spanned public functions. Cheap helpers that run many times per
# point (as_operator, imag_real_ratio, ...) stay unspanned so that tracing
# overhead stays small; their time lands in the calling layer's self time.
SPANNED = {
    "linalg2": ("eig2", "exp2", "log2", "is_hermitian", "non_hermiticity"),
    "kernels": ("step_trajectory", "compose_steps", "propagator_batch"),
    "evolution": ("evolve", "continuous_propagator", "discrete_step_operator"),
    "spectrum": ("mode_report",),
    "kaon": ("epsilon_mixing", "width_shift", "kaon_trajectory",
             "two_pion_intensity", "three_pion_intensity"),
    "runner": ("run_scan", "evaluate_point", "convergence_study", "render",
               "emit", "emit_with_manifest", "load_kaon_config"),
    "cli": ("main",),
}

# Work units per call, read from the named argument: kernel time is
# reported per step, per composed factor and per propagator time, render
# time per row.
WORK_ARG = {
    "kernels.step_trajectory": ("steps", int),
    "kernels.compose_steps": ("m", int),
    "kernels.propagator_batch": ("times", len),
    "runner.render": ("rows", len),
}


class Tracer:
    """Context manager that spans `selection` (default: all of SPANNED)."""

    def __init__(self, selection: dict | None = None):
        self.selection = SPANNED if selection is None else selection
        self.spans: list[list] = []  # [name, cmd, parent, t0_ns, t1_ns, work]
        self.render_bytes = 0
        self.rows_ok = 0
        self.rows_not_ok = 0
        self.cmd = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- binding -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module("chronon_lab")] + [
            importlib.import_module(f"chronon_lab.{layer}") for layer in LAYERS]
        for layer, names in self.selection.items():
            home = importlib.import_module(f"chronon_lab.{layer}")
            for name in names:
                orig = getattr(home, name, None)
                if not callable(orig):
                    continue  # removed by a later change: zero calls
                wrapper = self._wrap(f"{layer}.{name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        label = _labeller(name, fn)
        on_result = {"runner.render": self._count_bytes,
                     "runner.run_scan": self._count_rows,
                     "runner.convergence_study": self._count_rows}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name, work = label(args, kwargs) if label else (name, 0)
            idx = len(spans)
            spans.append([span_name, self.cmd, stack[-1] if stack else -1,
                          clock(), 0, work])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][4] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_bytes(self, data) -> None:
        self.render_bytes += len(data)

    def _count_rows(self, rows) -> None:
        ok = sum(1 for r in rows if r.get("status") == "ok")
        self.rows_ok += ok
        self.rows_not_ok += len(rows) - ok

    # -- reduction ---------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict, dict]:
        """Per span name: calls, inclusive seconds, self seconds, work units."""
        calls, incl, self_s, work = (defaultdict(int), defaultdict(float),
                                     defaultdict(float), defaultdict(int))
        child = [0] * len(self.spans)
        for name, _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, _, _, t0, t1, units) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += (t1 - t0) * 1e-9
            self_s[name] += (t1 - t0 - child[i]) * 1e-9
            work[name] += units
        return calls, incl, self_s, work

    def root_seconds(self) -> float:
        return sum(t1 - t0 for _, _, parent, t0, t1, _ in self.spans
                   if parent < 0) * 1e-9

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,cmd,parent,start_ns,end_ns,work\n")
            for span in self.spans:
                f.write(",".join(map(str, span)) + "\n")


def _labeller(name: str, fn):
    """(span name, work units) from a call's arguments, or None if constant."""
    if name not in WORK_ARG:
        return None
    param, measure = WORK_ARG[name]
    sig = inspect.signature(fn)

    def label(args, kwargs):
        bound = sig.bind_partial(*args, **kwargs).arguments
        value = bound.get(param)
        units = measure(value) if value is not None else 0
        if name == "runner.render":
            fmt = bound.get("fmt", sig.parameters["fmt"].default)
            return f"{name}.{fmt}", units
        return name, units

    return label


def _per(total: float, count: int, scale: float) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    calls, incl, self_s, work = tracer.totals()
    m = {}
    for fn in ("eig2", "log2", "exp2"):
        key = f"linalg2.{fn}"
        m[f"{key}.calls"] = (calls[key], "count")
        m[f"{key}.us_per_call"] = (_per(incl[key], calls[key], 1e6), "us")
    for fn, unit in (("step_trajectory", "ns_per_step"),
                     ("compose_steps", "ns_per_factor"),
                     ("propagator_batch", "ns_per_time")):
        key = f"kernels.{fn}"
        m[f"{key}.calls"] = (calls[key], "count")
        m[f"{key}.{unit}"] = (_per(incl[key], work[key], 1e9), "ns")
    m["evolution.evolve.calls"] = (calls["evolution.evolve"], "count")
    m["spectrum.mode_report.calls"] = (calls["spectrum.mode_report"], "count")
    m["spectrum.mode_report.us_per_call"] = (
        _per(incl["spectrum.mode_report"], calls["spectrum.mode_report"], 1e6), "us")
    for fn in ("epsilon_mixing", "width_shift"):
        key = f"kaon.{fn}"
        m[f"{key}.calls"] = (calls[key], "count")
        m[f"{key}.us_per_call"] = (_per(incl[key], calls[key], 1e6), "us")
    m["runner.evaluate_point.calls"] = (calls["runner.evaluate_point"], "count")
    m["runner.evaluate_point.self_s"] = (self_s["runner.evaluate_point"], "s")
    for fmt in ("csv", "json"):
        key = f"runner.render.{fmt}"
        m[f"{key}.us_per_row"] = (_per(incl[key], work[key], 1e6), "us")
    m["runner.render.bytes"] = (tracer.render_bytes, "bytes")
    m["runner.emit_with_manifest.s"] = (incl["runner.emit_with_manifest"], "s")
    m["runner.convergence_study.s"] = (incl["runner.convergence_study"], "s")
    m["runner.rows.ok"] = (tracer.rows_ok, "count")
    m["runner.rows.not_ok"] = (tracer.rows_not_ok, "count")
    m["cli.main.calls"] = (calls["cli.main"], "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v for k, v in self_s.items()
                                    if k.split(".", 1)[0] == layer), "s")
    return m
