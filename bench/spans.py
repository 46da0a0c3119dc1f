"""Spans and counters around the hipan functions the pipeline looks up.

A traced run replaces module attributes of hipan (the names `train`,
`diagnose` and `hipan.cli` resolve at call time) with wrappers that record
one span per call: name, parent span, start and end in perf_counter_ns.
Program source is untouched.  Spans stay in memory until the run ends;
then each span's self time (its duration less the time covered by its
child spans) is computed, spans are summed per layer metric, and the raw
spans are written to an .npz file.

The overhead the run reports, trace.overhead_est_pct, is an estimate: each
span times the cost its wrapper adds to a call, measured on a no-op when
the tracer starts (with and without the getrusage pair that reconstruction
spans take).  It leaves out what tracing does to caches and the work done
after the run (summing, writing the spans).

`padic` and `rng` are not wrapped: their functions run in microseconds,
so a wrapper would cost about as much as the work it times.
"""

from __future__ import annotations

import contextlib
import functools
import os
import resource
import sys
import time
from array import array

import numpy as np

# span name -> the (module, attribute) pairs it replaces.  A module is named
# relative to the hipan package; "tree.EncodedDataset" wraps a method.
WRAPS: dict[str, tuple[tuple[str, str], ...]] = {
    "tree.parse": (("tree", "loads_tree"),),
    "tree.encode": (("cli", "encode_tree"),),
    "tree.dataset_dump": (("cli", "dataset_to_json"),),
    "tree.dataset_load": (("cli", "dataset_from_json"), ("tree", "dataset_from_json")),
    "tree.pair_counts": (("tree.EncodedDataset", "pair_counts"),),
    "tree.digits_matrix": (("tree.EncodedDataset", "digits_matrix"),),
    "model.reconstruct": (("optim", "reconstruct_matrix"), ("metrics", "reconstruct_matrix")),
    "model.descent": (("optim", "clamped_descent"), ("metrics", "clamped_descent")),
    "optim.sweep": (("optim", "_gist_sweep"),),
    "optim.adam_grad": (("optim", "_accumulate_grads"),),
    "optim.adam_step": (("optim", "_adam_step"),),
    "optim.epoch_metrics": (("optim", "_epoch_metrics"),),
    "optim.dataset_loss": (("optim", "dataset_loss"), ("cli", "dataset_loss")),
    "checkpoint.save": (("checkpoint", "save_checkpoint"),),
    "checkpoint.load": (
        ("checkpoint", "load_checkpoint"),
        ("cli", "load_checkpoint"),
        ("checkpoint", "load_model"),
        ("cli", "load_model"),
    ),
    "metrics.accuracy": (("metrics", "accuracy_report"), ("cli", "accuracy_report")),
    "metrics.calibration": (("metrics", "calibration_report"),),
    "metrics.spearman": (("metrics", "spearman_ultrametric"),),
    "metrics.triangles": (("metrics", "triangle_violations"),),
    "metrics.entropy": (("metrics", "digit_entropy_profile"), ("metrics", "prefix_entropy_profile")),
    "metrics.box_count": (("metrics", "box_count_dimension"),),
    "metrics.diagnose": (("cli", "diagnose"),),
    "cli.eval": (("cli", "cmd_eval"),),
    "cli.diagnose": (("cli", "cmd_diagnose"),),
}

# Spans that also record the process's system time and minor page faults.
RUSAGE_SPANS = frozenset({"model.reconstruct"})

# per-layer metric -> (unit, span name, what is summed over its spans:
# "total" inclusive seconds, "self" seconds less child spans, "calls", or
# a counter filled from the wrapped function's result).
METRICS: dict[str, tuple[str, str, str]] = {
    "tree.parse_s": ("s", "tree.parse", "total"),
    "tree.encode_s": ("s", "tree.encode", "total"),
    "tree.dataset_dump_s": ("s", "tree.dataset_dump", "total"),
    "tree.dataset_load_s": ("s", "tree.dataset_load", "total"),
    "tree.pair_counts_s": ("s", "tree.pair_counts", "total"),
    "tree.digits_matrix_s": ("s", "tree.digits_matrix", "total"),
    "tree.digits_matrix_calls": ("count", "tree.digits_matrix", "calls"),
    "model.reconstruct_s": ("s", "model.reconstruct", "total"),
    "model.reconstruct_calls": ("count", "model.reconstruct", "calls"),
    "model.reconstruct_sys_s": ("s", "model.reconstruct", "sys_s"),
    "model.reconstruct_minflt": ("count", "model.reconstruct", "minflt"),
    "model.descent_s": ("s", "model.descent", "total"),
    "model.descent_calls": ("count", "model.descent", "calls"),
    "optim.sweep_s": ("s", "optim.sweep", "total"),
    "optim.coords_visited": ("count", "optim.sweep", "coords"),
    "optim.accepted_moves": ("count", "optim.sweep", "accepted"),
    "optim.adam_grad_s": ("s", "optim.adam_grad", "total"),
    "optim.adam_step_s": ("s", "optim.adam_step", "total"),
    "optim.adam_steps": ("count", "optim.adam_step", "calls"),
    "optim.epoch_metrics_s": ("s", "optim.epoch_metrics", "total"),
    "optim.dataset_loss_s": ("s", "optim.dataset_loss", "total"),
    "checkpoint.save_s": ("s", "checkpoint.save", "total"),
    "checkpoint.saves": ("count", "checkpoint.save", "calls"),
    "checkpoint.bytes": ("B", "checkpoint.save", "bytes"),
    "checkpoint.load_s": ("s", "checkpoint.load", "total"),
    "metrics.accuracy_s": ("s", "metrics.accuracy", "total"),
    "metrics.calibration_s": ("s", "metrics.calibration", "total"),
    "metrics.spearman_s": ("s", "metrics.spearman", "total"),
    "metrics.spearman_pairs": ("count", "metrics.spearman", "pairs"),
    "metrics.triangles_s": ("s", "metrics.triangles", "total"),
    "metrics.entropy_s": ("s", "metrics.entropy", "total"),
    "metrics.box_count_s": ("s", "metrics.box_count", "total"),
    "cli.eval_self_s": ("s", "cli.eval", "self"),
    "cli.diagnose_self_s": ("s", "cli.diagnose", "self"),
}


def _sweep_counts(result) -> dict[str, float]:
    accepted, evals = result
    return {"accepted": accepted, "coords": evals // 3}  # three loss evals per coordinate


COUNTERS = {
    "optim.sweep": _sweep_counts,
    "checkpoint.save": lambda path: {"bytes": os.path.getsize(path)},
    "metrics.spearman": lambda result: {"pairs": result.n_pairs},
}


class Tracer:
    """Installs the wrappers on construction; `close` puts the originals back."""

    def __init__(self, hipan) -> None:
        self.names: list[str] = []
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters: dict[tuple[str, str], float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.per_call_ns = self._calibrate()
        for name, targets in WRAPS.items():
            self._install(hipan, name, targets)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id: int) -> int:
        i = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(i)
        self.span_start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.span_end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def _count(self, name: str, values: dict[str, float]) -> None:
        for key, v in values.items():
            self.counters[name, key] = self.counters.get((name, key), 0.0) + float(v)

    def _wrapper(self, name: str, fn):
        nid = self._name_id(name)
        counter = COUNTERS.get(name)
        with_rusage = name in RUSAGE_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if with_rusage:
                before = resource.getrusage(resource.RUSAGE_SELF)
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if with_rusage:
                after = resource.getrusage(resource.RUSAGE_SELF)
                self._count(name, {
                    "sys_s": after.ru_stime - before.ru_stime,
                    "minflt": after.ru_minflt - before.ru_minflt,
                })
            if counter is not None:
                self._count(name, counter(result))
            return result

        return traced

    def _install(self, hipan, name: str, targets) -> None:
        wrapped: dict[int, object] = {}
        for module_name, attr in targets:
            owner = hipan
            for part in module_name.split("."):
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                print(f"trace: hipan.{module_name}.{attr} not found, not traced", file=sys.stderr)
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrapper(name, fn)
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapped[id(fn)])

    def _calibrate(self, calls: int = 20_000) -> dict[bool, float]:
        """Nanoseconds a wrapper adds to one call, measured on a no-op;
        keyed by whether the wrapper takes the getrusage pair."""

        def noop(a, b):
            return None

        def cost(traced) -> float:
            t0 = time.perf_counter_ns()
            for i in range(calls):
                noop(i, i)
            t1 = time.perf_counter_ns()
            for i in range(calls):
                traced(i, i)
            t2 = time.perf_counter_ns()
            return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)

        per_call = {
            False: cost(self._wrapper("trace.calibrate", noop)),
            True: cost(self._wrapper(next(iter(RUSAGE_SPANS)), noop)),
        }
        for a in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del a[:]
        self.names.clear()
        self.counters.clear()
        return per_call

    def close(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = np.frombuffer(self.span_end, dtype=np.int64) - np.frombuffer(self.span_start, dtype=np.int64)
        return name, parent, dur

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds."""
        name, parent, dur = self._arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k) / 1e9
        self_s = np.bincount(name, weights=own, minlength=k) / 1e9
        return {
            n: {"calls": float(calls[i]), "total": float(total[i]), "self": float(self_s[i])}
            for i, n in enumerate(self.names)
        }

    def metrics(self, wall_s: float) -> dict[str, dict[str, float | str]]:
        """Per-layer metrics plus the estimated tracing overhead as a share of wall_s."""
        summary = self.summary()
        out: dict[str, dict[str, float | str]] = {}
        for metric, (unit, span, kind) in METRICS.items():
            if kind in ("total", "self", "calls"):
                value = summary.get(span, {}).get(kind, 0.0)
            else:
                value = self.counters.get((span, kind), 0.0)
            out[metric] = {"value": value, "unit": unit}
        spans = float(len(self.span_start))
        rusage = sum(summary.get(n, {}).get("calls", 0.0) for n in RUSAGE_SPANS)
        overhead = (spans - rusage) * self.per_call_ns[False] + rusage * self.per_call_ns[True]
        out["trace.spans"] = {"value": spans, "unit": "count"}
        out["trace.wall_s"] = {"value": wall_s, "unit": "s"}
        out["trace.overhead_est_pct"] = {"value": 100.0 * overhead / 1e9 / wall_s, "unit": "%"}
        return out

    def write(self, path) -> None:
        name, parent, dur = self._arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            start=np.frombuffer(self.span_start, dtype=np.int64),
            duration=dur,
        )
