"""Span tracing for the graphdisc benchmark, from outside the program.

The tracer wraps the public functions named in LAYERS with timing wrappers
and rebinds every graphdisc module attribute that refers to the original
function. That covers names imported with `from .x import y` (for example
`experiment.train` or `cli.eig_sym`) and the deferred import of `eig_sym`
inside `graphs.normalize_support`, which reads `graphdisc.spectral.eig_sym`
at call time. Uninstalling puts the originals back, so untraced operations
run the program exactly as shipped.

Each call records one span: name, parent span, start and end. Spans stay in
memory in flat arrays and are aggregated and saved when the run
ends. A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# layer (graphdisc module) -> traced public functions
LAYERS = {
    "cli": ("main",),
    "graphs": ("generate_geometric_graph", "laplacian", "normalize_support"),
    "spectral": ("eig_sym", "split_subspace"),
    "experiment": ("run_replicate", "build_dataset", "emit_report"),
    "training": ("train", "model_forward", "model_backward", "il_regularizer",
                 "adam_step", "mse_loss", "predict"),
    "filters": ("bank_il_constant",),
    "gnn": ("bank_forward",),
    "discriminability": ("verify_theorem1", "verify_theorem2_forward",
                         "verify_corollary1", "pair_in_d_phi", "secant_report",
                         "sample_pair_in_d_h", "write_trial_csv"),
}

# which end-to-end metric each layer should move, and on which workload
LAYER_EFFECTS = {
    "cli": "root span of every op; its self time (parsing, config, output) "
           "moves op_s.p50 a little on every workload",
    "graphs": "op_s.p50 and items_per_s on large_graph",
    "spectral": "op_s.p50 and items_per_s on large_graph (eig_sym runs twice per "
                "graph today); predicted no change on desk_replicate",
    "experiment": "op_s.p50 and items_per_s on desk_replicate; build_dataset is "
                  "about 1.5% of it",
    "training": "items_per_s on desk_replicate (about 95% of the time) and "
                "large_graph (about 10%); no effect on verify_suites",
    "filters": "bank_il_constant once per epoch: about 1.7% of desk_replicate",
    "gnn": "bank_forward: not called on these CLI paths today; would move "
           "items_per_s on verify_suites if the membership tests used it",
    "discriminability": "op_s.p50 and items_per_s on verify_suites; corollary 2 "
                        "and its overdetermined probe are in no workload while "
                        "the probe's brentq crash stands",
}

# spans that also report per-call latency percentiles
LATENCY_SPANS = (
    "training.model_forward", "training.model_backward",
    "training.il_regularizer", "training.adam_step", "training.mse_loss",
    "discriminability.pair_in_d_phi", "discriminability.secant_report",
)

# spans whose layer's CLI path never calls them (verify passes a Spectrum,
# so the membership tests filter in the eigenbasis); only calls are reported
CALLS_ONLY_SPANS = ("gnn.bank_forward",)

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


def model_backward_flops(model, s, x, target, il_weight, lam_max=1.0) -> float:
    """Floating-point operations of one model_backward call, from shapes.

    Counts the forward pass it runs (shift powers, tap contraction, tanh or
    identity, readout) and its own gradient contractions, one flop per
    multiply or add and one per elementwise op; the regularizer and the loss
    are left out. Computed, not measured by hardware counters.
    """
    b, n = np.atleast_2d(x).shape
    f, k1 = model.taps.shape
    elems = f * b * n
    forward = (k1 - 1) * 2 * b * n * n + 2 * k1 * elems + elems + 2 * elems
    backward = 2 * elems + elems + 3 * elems + 2 * k1 * elems
    return float(forward + backward)


class Tracer:
    """Records spans of the wrapped graphdisc functions while installed."""

    def __init__(self) -> None:
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.backward_flops = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, name: str, fn):
        counts_flops = name == "training.model_backward"
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if counts_flops:
                    self.backward_flops += model_backward_flops(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Rebind every reference to a traced function while the block runs."""
        for layer in LAYERS:
            importlib.import_module(f"graphdisc.{layer}")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "graphdisc" or key.startswith("graphdisc.")]
        for name_id, name in enumerate(SPAN_NAMES):
            layer, fn_name = name.split(".")
            original = getattr(sys.modules[f"graphdisc.{layer}"], fn_name)
            wrapper = self._wrap(name_id, name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._restore):
                setattr(module, attr, original)
            self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, span_names=np.array(SPAN_NAMES), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span: calls, self_s, total_s, and per-call p50_us / p99_us."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                            minlength=duration.size)
        own = duration - child
        out = {}
        for name_id, name in enumerate(SPAN_NAMES):
            mask = a["name"] == name_id
            d = duration[mask]
            row = {"calls": float(d.size), "self_s": float(own[mask].sum()),
                   "total_s": float(d.sum())}
            if d.size:
                row["p50_us"] = float(np.percentile(d, 50)) * 1e6
                row["p99_us"] = float(np.percentile(d, 99)) * 1e6
            else:
                row["p50_us"] = row["p99_us"] = 0.0
            out[name] = row
        return out
