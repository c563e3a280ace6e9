"""Span tracing of the program's layers, installed from outside the package.

`Tracer.install` replaces each public function of the traced modules with a
wrapper that records a span: name, start, end and the index of the enclosing
span.  Calls made inside a module through its own globals (for example
`backward_elimination` calling `riemannian_distance`) resolve to the module
attribute and are caught too; calls through a `from x import f` alias in
another module are not, and count towards the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

LAYERS = ("signal", "cli", "spdgeom", "transport", "montage", "relevance", "stats")
RELEVANCE_SPANS = ("relevance.scores_from_trace", "relevance.top_k",
                   "relevance.aggregate_cohort")

#: Per-layer metrics read from one traced pass: (name, unit, better).
LAYER_METRICS = (
    ("signal.read_recording.self_s", "s", "lower"),
    ("signal.bandpass.self_s", "s", "lower"),
    ("signal.epoch_trials.self_s", "s", "lower"),
    ("cli.write_epoch_cache.self_s", "s", "lower"),
    ("cli.read_epoch_cache.self_s", "s", "lower"),
    ("cli.read_epoch_cache.calls", "count", "lower"),
    ("cli.commands.self_s", "s", "lower"),
    ("spdgeom.frechet_mean.self_s", "s", "lower"),
    ("spdgeom.frechet_mean.calls", "count", "lower"),
    ("spdgeom.riemannian_distance.self_s", "s", "lower"),
    ("spdgeom.riemannian_distance.calls", "count", "lower"),
    ("spdgeom.backward_elimination.self_s", "s", "lower"),
    ("spdgeom.mdm_predict.self_s", "s", "lower"),
    ("spdgeom.covariance.self_s", "s", "lower"),
    ("spdgeom.covariance.calls_per_epoch", "ratio", "lower"),
    ("spdgeom.backward_elimination.calls_per_subject", "ratio", "lower"),
    ("transport.emd.binary.self_s", "s", "lower"),
    ("transport.emd.weighted.self_s", "s", "lower"),
    ("transport.solve_transport.self_s", "s", "lower"),
    ("transport.emd.calls", "count", "lower"),
    ("montage.load_spatial_map.self_s", "s", "lower"),
    ("relevance.self_s", "s", "lower"),
    ("stats.wilcoxon_signed_rank.self_s", "s", "lower"),
    ("stats.wilcoxon_signed_rank.exact_calls", "count", "higher"),
)


def _public_functions(module) -> list[str]:
    return sorted(
        name for name, obj in vars(module).items()
        if not name.startswith("_") and callable(obj) and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    )


def _emd_shape(args, kwargs) -> str:
    """binary: both maps uniform on their support; dense: both cover the grid."""
    p, q = args[0], args[1]
    masses = (p.mass, q.mass)
    if all(np.count_nonzero(m) == m.size for m in masses):
        return "dense"
    if all(m[m > 0].min() == m[m > 0].max() for m in masses):
        return "binary"
    return "weighted"


#: Spans whose name gains a suffix derived from the call's arguments.
_LABELS = {"transport.emd": _emd_shape}
#: Spans that keep a note derived from the call's result.
_NOTES = {"stats.wilcoxon_signed_rank": lambda result: result.mode}


class Tracer:
    """Holds spans in memory as ``[name, start, end, parent, note]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, package: str = "emdscalp") -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr in _public_functions(module):
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        label, note = _LABELS.get(name), _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if label is not None:
                span[0] = f"{name}.{label(args, kwargs)}"
            if note is not None:
                span[4] = note(result)
            return result

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: list[list], n_epochs: int, n_subjects: int) -> dict[str, float]:
    """The `LAYER_METRICS` values of one traced pass, plus the self time of
    any other EMD shape scored (``transport.emd.dense.self_s``)."""
    own = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    exact = 0
    for s, t in zip(spans, own):
        self_s[s[0]] = self_s.get(s[0], 0.0) + t
        calls[s[0]] = calls.get(s[0], 0) + 1
        exact += s[4] == "exact"
    out: dict[str, float] = {}
    for name, _, _ in LAYER_METRICS:
        base, _, kind = name.rpartition(".")
        if kind == "self_s":
            out[name] = self_s.get(base, 0.0)
        elif kind == "calls":
            out[name] = calls.get(base, 0)
    # An emd span's shape metric is the transport layer's self time under it:
    # the emd span plus the solver and ground-cost spans it calls.
    for i, s in enumerate(spans):
        parent = spans[s[3]][0] if s[3] >= 0 else ""
        if s[0].startswith("transport.") and parent.startswith("transport.emd."):
            out[f"{parent}.self_s"] = out.get(f"{parent}.self_s", 0.0) + own[i]
    out["cli.commands.self_s"] = sum(t for n, t in self_s.items() if n.startswith("cli.cmd_"))
    out["relevance.self_s"] = sum(self_s.get(n, 0.0) for n in RELEVANCE_SPANS)
    out["transport.emd.calls"] = sum(c for n, c in calls.items() if n.startswith("transport.emd."))
    out["stats.wilcoxon_signed_rank.exact_calls"] = exact
    out["spdgeom.covariance.calls_per_epoch"] = (
        calls.get("spdgeom.covariance", 0) / n_epochs if n_epochs else 0.0)
    out["spdgeom.backward_elimination.calls_per_subject"] = (
        calls.get("spdgeom.backward_elimination", 0) / n_subjects if n_subjects else 0.0)
    return out
