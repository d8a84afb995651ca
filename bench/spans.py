"""Layer-boundary spans for the traced benchmark run.

The tracer replaces adaptod functions at module level with thin wrappers
that record one span per call: name, start, end, parent span and run id,
plus a size (rows or samples) and, for stream scoring, the mode and the
number of samples the outlier distribution accepted. A function that a
module imported by name (``from .energy import batch_energy_normalize``) is
replaced under every name it is bound to, so calls from inside the package
are seen too. A target missing from the package is skipped and reported
absent, so the benchmark keeps running when a later version merges or
renames it. Spans stay in memory in flat arrays and are written out once,
at the end of the run.
"""

from __future__ import annotations

import array
import gzip
import sys
import time

import numpy as np

PACKAGE = "adaptod"

# Stream-scoring modes, told apart by the keyword arguments of run_stream.
MODES = ("freeze", "plain", "oracle", "sweep")


def _rows(i):
    return lambda args, kwargs, result: len(args[i])


def _result_rows(args, kwargs, result):
    return result.n


def _generated_rows(args, kwargs, result):
    return result[0].n + result[1].n


def stream_mode(kwargs) -> str:
    if kwargs.get("freeze"):
        return "freeze"
    p = kwargs.get("use_label_probability", 0.0)
    if p >= 1.0:
        return "oracle"
    return "sweep" if p > 0.0 else "plain"


def _stream_accepted(args, kwargs, result):
    return result[2].m - args[0].m


# (module, attribute, size of the call or None, accepted count or None).
# Every name here is a layer boundary; module-level functions are replaced
# under every alias, class attributes on their class.
TARGETS = [
    ("data", "generate_long_tailed", _generated_rows, None),
    ("data", "generate_outliers", _result_rows, None),
    ("data", "generate_true_ood", _result_rows, None),
    ("data", "write_sample_set", lambda a, k, r: a[1].n, None),
    ("data", "read_sample_set", _result_rows, None),
    ("nn", "Mlp.forward", _rows(1), None),
    ("nn", "train", _rows(1), None),
    ("nn", "_sgd_step", None, None),
    ("dne", "total_loss", None, None),
    ("dne", "total_loss_grad", None, None),
    ("dne", "loss_and_grad", None, None),
    ("energy", "batch_energy_normalize", _rows(0), None),
    ("doda", "fit_energy_stats", _rows(0), None),
    ("doda", "init_outlier_distribution", _rows(0), None),
    ("doda", "run_stream", _rows(2), _stream_accepted),
    ("metrics", "metric_report", _rows(0), None),
    ("cli", "cmd_generate", None, None),
    ("cli", "cmd_train", None, None),
    ("cli", "cmd_adapt_eval", None, None),
    ("cli", "cmd_headtail", None, None),
    ("cli", "cmd_alpha_sweep", None, None),
]


class Tracer:
    """Records spans while installed; ``run_id`` tags every span it opens."""

    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.run = array.array("i")
        self.t0 = array.array("q")
        self.t1 = array.array("q")
        self.size = array.array("q")
        self.tag = array.array("b")
        self.accepted = array.array("q")

    # -- installing the wrappers -------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        absent = []
        for mod_name, attr, size_fn, accepted_fn in TARGETS:
            span = f"{mod_name}.{attr}"
            owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part, None)
            leaf = attr.rsplit(".", 1)[-1]
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                absent.append(span)
                continue
            wrapper = self._wrap(self._name_id(span), fn, size_fn, accepted_fn)
            if isinstance(owner, type):  # a class attribute: patch the class only
                self._patch(owner, leaf, fn, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, fn, wrapper)
        self.absent = absent

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _name_id(self, span: str) -> int:
        if span not in self.names:
            self.names.append(span)
        return self.names.index(span)

    def _wrap(self, name_id, fn, size_fn, accepted_fn):
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(tracer.t0)
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.run.append(tracer.run_id)
            tracer.t1.append(0)
            tracer.size.append(0)
            tracer.tag.append(-1)
            tracer.accepted.append(0)
            stack.append(idx)
            tracer.t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.t1[idx] = clock()
                stack.pop()
            try:
                if size_fn is not None:
                    tracer.size[idx] = size_fn(args, kwargs, result)
                if accepted_fn is not None:
                    tracer.tag[idx] = MODES.index(stream_mode(kwargs))
                    tracer.accepted[idx] = accepted_fn(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                pass  # a changed signature loses the size, not the span
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- reading the spans -------------------------------------------------

    def write(self, path) -> None:
        """Write every span as gzip-compressed CSV, times relative to the first."""
        base = self.t0[0] if len(self.t0) else 0
        with gzip.open(path, "wt") as fh:
            fh.write("span,run,parent,name,start_ns,end_ns,size,mode,accepted\n")
            for i in range(len(self.t0)):
                mode = MODES[self.tag[i]] if self.tag[i] >= 0 else ""
                fh.write(f"{i},{self.run[i]},{self.parent[i]},{self.names[self.name[i]]},"
                         f"{self.t0[i] - base},{self.t1[i] - base},{self.size[i]},"
                         f"{mode},{self.accepted[i]}\n")


class SpanTable:
    """Per-name aggregates of the recorded spans.

    Self time is a span's duration minus the durations of its direct
    children. Counts per unit use only spans of the traced units (run id
    >= 1); times and sizes use every span, set-up included.
    """

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        n = len(tracer.t0)
        self.name = np.frombuffer(tracer.name, dtype=np.int32, count=n)
        self.run = np.frombuffer(tracer.run, dtype=np.int32, count=n)
        self.size = np.frombuffer(tracer.size, dtype=np.int64, count=n)
        self.tag = np.frombuffer(tracer.tag, dtype=np.int8, count=n)
        self.accepted = np.frombuffer(tracer.accepted, dtype=np.int64, count=n)
        parent = np.frombuffer(tracer.parent, dtype=np.int32, count=n)
        self.dur = (np.frombuffer(tracer.t1, dtype=np.int64, count=n)
                    - np.frombuffer(tracer.t0, dtype=np.int64, count=n)) / 1e9
        children = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], self.dur[has_parent])
        self.self_dur = self.dur - children
        self.units = np.unique(self.run[self.run >= 1]).size

    def _mask(self, span: str, mode: str | None = None):
        mask = self.name == (self.names.index(span) if span in self.names else -1)
        if mode is not None:
            mask &= self.tag == MODES.index(mode)
        return mask

    def calls(self, span: str) -> int:
        return int(self._mask(span).sum())

    def calls_per_unit(self, span: str) -> float:
        mask = self._mask(span) & (self.run >= 1)
        return mask.sum() / self.units if self.units else 0.0

    def seconds(self, span: str, mode: str | None = None) -> float:
        return float(self.dur[self._mask(span, mode)].sum())

    def self_seconds(self, span: str) -> float:
        return float(self.self_dur[self._mask(span)].sum())

    def rows(self, span: str, mode: str | None = None) -> int:
        return int(self.size[self._mask(span, mode)].sum())

    def accepted_per_unit(self, mode: str) -> float:
        mask = self._mask("doda.run_stream", mode) & (self.run >= 1)
        return self.accepted[mask].sum() / self.units if self.units else 0.0


def ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the layer did no work (den == 0)."""
    return num / den if den else 0.0
