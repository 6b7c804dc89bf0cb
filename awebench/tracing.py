"""Span tracing of awekit's layers from outside the package.

`Tracer.install()` replaces the public functions of awekit.tensorkit,
awekit.model, awekit.matcher, awekit.dtw, awekit.corpus, awekit.blobio and
awekit.metrics with thin wrappers that record a span (name, start, end,
parent) per call and keep simple work counters. Backward time comes from
wrapping the backward closure of each Tensor a tensorkit op returns. Spans
stay in memory until the run ends; `totals()` turns them into per-layer
times and self times, and `uninstall()` puts the original functions back.

A function that no longer exists is skipped, so its metrics are absent
from the summary instead of breaking the run.
"""

import functools
import gzip
import inspect
import json
import math
import time
import weakref
from collections import defaultdict

import numpy as np

# Differentiable ops that model.py calls as `tk.<op>`.
TENSORKIT_OPS = ("conv2d", "maxpool2x2", "relu", "gap_masked", "linear", "block_cross_entropy", "mse")

# (module, function) pairs timed as plain spans named "<module>.<function>".
PLAIN_SPANS = {
    "model": ("train", "embed_sequences", "save_model", "load_model"),
    "matcher": ("window_segments", "make_query", "cosine_cost", "sma", "search"),
    "dtw": ("cost_matrix", "sdtw_from_costs", "dtw_from_costs", "fuse_templates_dtw", "sdtw_search"),
    "corpus": ("synth_corpus", "save_manifest", "load_manifest"),
    "blobio": ("read_blob", "write_blob"),
    "metrics": ("evaluate",),
}

# Modules that import one of the functions above by name, so the name
# must be patched there too for the wrapper to see their calls.
ALIASES = {
    ("model", "embed_sequences"): ("matcher",),
    ("blobio", "read_blob"): ("corpus",),
    ("blobio", "write_blob"): ("corpus",),
}

BLOB_HEADER_BYTES = 16


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


class Tracer:
    def __init__(self, ak):
        """`ak` maps a short module name ("model", "dtw", ...) to the module."""
        self.ak = ak
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.enabled = True
        self.counts = defaultdict(float)
        self.in_train = 0
        self.per_train = []  # counter deltas of each model.train call
        self.per_search = []  # counter deltas of each matcher.search call
        self.installed = set()
        self._param_names = {}
        self._embed_batch = None
        self._undo = []

    # -- spans ---------------------------------------------------------
    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span (used for the benchmark's own stage spans)."""
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    # -- wrapping ------------------------------------------------------
    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before else None
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after:
                after(args, kwargs, out, state)
            return out

        return wrapper

    def _wrap_backward(self, out, name, flops=0.0):
        orig = getattr(out, "_backward", None)
        if orig is None:
            return
        tracer = self

        def backward(g):
            tracer.counts["conv_flops"] += flops
            idx = tracer.begin(name)
            try:
                orig(g)
            finally:
                tracer.end(idx)

        out._backward = backward

    def _register_params(self, params):
        if isinstance(params, dict):
            for pname, arr in params.items():
                if isinstance(arr, np.ndarray):
                    self._param_names[id(arr)] = (weakref.ref(arr), pname)

    def param_name(self, arr):
        entry = self._param_names.get(id(arr))
        if entry is not None and entry[0]() is arr:
            return entry[1]
        return "other"

    def install(self):
        tk = self.ak["tensorkit"]
        for op in TENSORKIT_OPS:
            fn = getattr(tk, op, None)
            if fn is not None:
                self._patch(tk, op, self._tensorkit_wrapper(fn, op))
                self.installed.add(f"tensorkit.{op}")
        step = getattr(tk, "sgd_nesterov_step", None)
        if step is not None:
            self._patch(tk, "sgd_nesterov_step", self._wrap(step, "tensorkit.sgd_nesterov_step", after=self._after_step))
            self.installed.add("tensorkit.sgd_nesterov_step")
        tensor_cls = getattr(tk, "Tensor", None)
        if tensor_cls is not None and hasattr(tensor_cls, "backward"):
            self._patch(tensor_cls, "backward", self._wrap(tensor_cls.backward, "tensorkit.backward"))
            self.installed.add("tensorkit.backward")

        embed = getattr(self.ak["model"], "embed_sequences", None)
        param = inspect.signature(embed).parameters.get("batch_size") if embed else None
        self._embed_batch = param.default if param is not None else None
        hooks = {
            ("model", "train"): (self._before_train, self._after_train),
            ("model", "load_model"): (None, lambda a, k, out, s: self._register_params(out[0])),
            ("model", "embed_sequences"): (None, self._after_embed),
            ("matcher", "window_segments"): (None, self._after_windows),
            ("matcher", "search"): (self._before_search, self._after_search),
            ("dtw", "sdtw_from_costs"): (None, self._after_dp),
            ("dtw", "dtw_from_costs"): (None, self._after_dp),
            ("blobio", "read_blob"): (None, self._after_read_blob),
            ("blobio", "write_blob"): (None, self._after_write_blob),
        }
        for mod_name, fns in PLAIN_SPANS.items():
            module = self.ak[mod_name]
            for fn_name in fns:
                fn = getattr(module, fn_name, None)
                if fn is None:
                    continue
                before, after = hooks.get((mod_name, fn_name), (None, None))
                wrapper = self._wrap(fn, f"{mod_name}.{fn_name}", before, after)
                self._patch(module, fn_name, wrapper)
                for alias in ALIASES.get((mod_name, fn_name), ()):
                    if getattr(self.ak[alias], fn_name, None) is fn:
                        self._patch(self.ak[alias], fn_name, wrapper)
                self.installed.add(f"{mod_name}.{fn_name}")

        # Parameter names: train builds its arrays with build_network.
        build = getattr(self.ak["model"], "build_network", None)
        if build is not None:

            def build_network(*args, **kwargs):
                params = build(*args, **kwargs)
                self._register_params(params)
                return params

            self._patch(self.ak["model"], "build_network", functools.wraps(build)(build_network))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _tensorkit_wrapper(self, fn, op):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if op == "conv2d":
                w = _arg(args, kwargs, 1, "w")
                prefix = f"tensorkit.conv2d.{tracer.param_name(getattr(w, 'value', None))}"
            else:
                prefix = f"tensorkit.{op}"
            idx = tracer.begin(prefix + ".fwd")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            flops = 0.0
            if op == "conv2d":
                flops = tracer._conv_flops(args, kwargs, out)
                tracer.counts["conv_flops"] += flops
            elif op == "gap_masked" and tracer.in_train:
                x = _arg(args, kwargs, 0, "x")
                valid = np.asarray(_arg(args, kwargs, 1, "valid_t"))
                tracer.counts["train_valid_frames"] += float(valid.sum())
                tracer.counts["train_padded_frames"] += float(x.shape[0] * x.shape[-1])
            # backward computes dW and dX, each as many flops as forward
            tracer._wrap_backward(out, prefix + ".bwd", 2 * flops)
            return out

        return wrapper

    # -- counters ------------------------------------------------------
    @staticmethod
    def _conv_flops(args, kwargs, out):
        """Forward flops 2*B*O*(C*kF*kT)*oF*oT, computed from shapes."""
        w = _arg(args, kwargs, 1, "w")
        b, o, of, ot = out.value.shape
        _, c, kf, kt = w.value.shape
        return 2.0 * b * o * c * kf * kt * of * ot

    def _after_step(self, args, kwargs, out, state):
        self.counts["train_steps"] += 1

    def _snapshot(self, keys):
        return {k: self.counts[k] for k in keys}

    TRAIN_KEYS = ("conv_flops", "train_valid_frames", "train_padded_frames", "train_steps")

    def _before_train(self, args, kwargs):
        self.in_train += 1
        return self._snapshot(self.TRAIN_KEYS)

    def _after_train(self, args, kwargs, out, state):
        self.in_train -= 1
        self._register_params(out[0])
        self.per_train.append({k: self.counts[k] - state[k] for k in self.TRAIN_KEYS})

    SEARCH_KEYS = ("windows", "embed_items", "embed_batches")

    def _before_search(self, args, kwargs):
        return self._snapshot(self.SEARCH_KEYS)

    def _after_search(self, args, kwargs, out, state):
        self.per_search.append({k: self.counts[k] - state[k] for k in self.SEARCH_KEYS})

    def _after_embed(self, args, kwargs, out, state):
        n = len(_arg(args, kwargs, 2, "seqs"))
        batch = _arg(args, kwargs, 3, "batch_size") or self._embed_batch or n
        self.counts["embed_items"] += n
        self.counts["embed_batches"] += math.ceil(n / max(1, batch))

    def _after_windows(self, args, kwargs, out, state):
        self.counts["windows"] += len(out)

    def _after_dp(self, args, kwargs, out, state):
        costs = np.shape(_arg(args, kwargs, 0, "costs"))
        self.counts["dp_cells"] += float(costs[0] * costs[1])

    def _after_read_blob(self, args, kwargs, out, state):
        self.counts["read_blob_calls"] += 1
        self.counts["read_blob_bytes"] += BLOB_HEADER_BYTES + 4 * np.size(out)

    def _after_write_blob(self, args, kwargs, out, state):
        self.counts["write_blob_calls"] += 1
        self.counts["write_blob_bytes"] += BLOB_HEADER_BYTES + 4 * np.size(_arg(args, kwargs, 1, "matrix"))

    # -- aggregation ---------------------------------------------------
    def totals(self):
        """{span name: (seconds, self seconds, calls)} over closed spans.

        Self time is a span's duration minus the durations of its direct
        children; spans here never overlap their siblings (one thread)."""
        total = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent in self.spans:
            if end is None:
                continue
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                child[self.spans[parent][0]] += dur
        return {name: (total[name], total[name] - child[name], calls[name]) for name in total}

    def write_spans(self, path):
        with gzip.open(path, "wt") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps([i, name, start, end, parent]) + "\n")
