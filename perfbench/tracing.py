"""Spans around the calls into each layer of cginvert, recorded from outside.

The tracer replaces functions where their callers look them up (module
attributes and class attributes) with wrappers that record one span per call:
name, start, end, parent span and operation index.  Nothing in the program is
edited; `uninstall` puts the originals back.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import time
import types

import numpy as np

# (module, attribute path, span name).  Several entries share one span name
# where the same layer is reached through more than one lookup: the solver
# and the network each route their own exact u-updates.
TARGETS = (
    ("cginvert.sensing", "SensingModel.apply", "sensing.apply"),
    ("cginvert.sensing", "SensingModel.adjoint", "sensing.adjoint"),
    ("cginvert.covariance", "CovarianceParam.solve", "covariance.solve"),
    ("cginvert.regularizer", "ScaleRegularizer.prox", "regularizer.prox"),
    ("cginvert.gcgls", "cost", "regularizer.cost"),
    ("cginvert.gcgls", "pgd_step", "scale_step.step"),
    ("cginvert.gcgls", "ista_step", "scale_step.step"),
    ("cginvert.gcgls", "solve", "gcgls.solve"),
    ("cginvert.gcgls", "tikhonov_solve", "tikhonov.solve"),
    ("cginvert.drcgnet.network", "_tikh_forward", "tikhonov.solve"),
    ("cginvert.tikhonov", "_tikhonov_woodbury_with_factor", "tikhonov.woodbury"),
    ("cginvert.tikhonov", "_tikhonov_direct_with_factor", "tikhonov.direct"),
    ("cginvert.drcgnet.network", "_tikhonov_woodbury_with_factor",
     "tikhonov.woodbury"),
    ("cginvert.drcgnet.network", "_tikhonov_direct_with_factor",
     "tikhonov.direct"),
    ("cginvert.tikhonov", "sla.cho_factor", "tikhonov.factor"),
    ("cginvert.tikhonov", "sla.cho_solve", "tikhonov.backsolve"),
    ("cginvert.drcgnet.network", "sla.cho_solve", "tikhonov.backsolve"),
    ("cginvert.drcgnet.network", "conv2d_forward", "drcgnet.conv.forward"),
    ("cginvert.drcgnet.network", "conv2d_backward", "drcgnet.conv.backward"),
    ("cginvert.drcgnet.train", "forward", "drcgnet.network.forward"),
    ("cginvert.drcgnet.train", "backward", "drcgnet.network.backward"),
    ("cginvert.drcgnet.train", "Adam.step", "drcgnet.train.adam"),
    ("cginvert.data_metrics", "gen_dataset", "data_metrics.gen"),
)

# per-layer metric name -> unit; the order is the order of BENCHMARK.json
PER_LAYER = {
    "sensing.apply.calls": "count",
    "sensing.apply.self_s": "s",
    "sensing.adjoint.calls": "count",
    "sensing.adjoint.self_s": "s",
    "covariance.solve.calls": "count",
    "covariance.solve.self_s": "s",
    "regularizer.prox.calls": "count",
    "regularizer.prox.self_s": "s",
    "regularizer.cost.calls": "count",
    "regularizer.cost.self_s": "s",
    "scale_step.step.calls": "count",
    "scale_step.step.self_s": "s",
    "scale_step.halvings": "count",
    "tikhonov.solve.calls": "count",
    "tikhonov.woodbury.calls": "count",
    "tikhonov.direct.calls": "count",
    "tikhonov.form_s": "s",
    "tikhonov.factor_s": "s",
    "tikhonov.backsolve_s": "s",
    "gcgls.solve.self_s": "s",
    "gcgls.iterations": "count",
    "drcgnet.conv.forward.calls": "count",
    "drcgnet.conv.forward_s": "s",
    "drcgnet.conv.backward_s": "s",
    "drcgnet.conv.cols_mb": "MB",
    "drcgnet.network.forward.calls": "count",
    "drcgnet.network.forward.self_s": "s",
    "drcgnet.network.backward.self_s": "s",
    "drcgnet.network.tape_mb": "MB",
    "drcgnet.train.adam.calls": "count",
    "drcgnet.train.adam_s": "s",
    "data_metrics.gen_s": "s",
    "trace.op_s": "s",
}

# spans reported as <span>.calls and <span>.self_s
_CALLS_AND_SELF = ("sensing.apply", "sensing.adjoint", "covariance.solve",
                   "regularizer.prox", "regularizer.cost", "scale_step.step")


class Tracer:
    """In-memory span recorder.

    Records only while `enabled`; `op` is the index of the operation in
    progress (-1 during set-up), stored with every span so the spans of one
    operation share an identifier.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op]
        self.counters = {"halvings": 0, "iterations": 0, "cols_bytes": 0}
        self.tape_bytes = None   # bytes held by the first tape seen
        self.op = -1
        self.enabled = False
        self._stack = []
        self._undo = []

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (used around the checks)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- installing the wrappers ----------------------------------------------

    def install(self):
        hooks = {
            "scale_step.step": self._count_halvings,
            "gcgls.solve": self._count_iterations,
            "drcgnet.conv.forward": self._count_cols,
            "drcgnet.network.forward": self._measure_tape,
        }
        proxies = {}
        for mod_name, path, span in TARGETS:
            owner = importlib.import_module(mod_name)
            *parents, attr = path.split(".")
            for part in parents:
                if part == "sla":
                    owner = self._linalg_proxy(owner, proxies)
                else:
                    owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, original, hooks.get(span)))

    def _linalg_proxy(self, module, proxies):
        """Give `module` its own copy of scipy.linalg so that wrapping
        cho_factor/cho_solve there leaves every other caller untouched."""
        if module not in proxies:
            real = module.sla
            proxy = types.ModuleType(real.__name__)
            proxy.__dict__.update(vars(real))
            self._undo.append((module, "sla", real))
            module.sla = proxy
            proxies[module] = proxy
        return proxies[module]

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None and self.op >= 0:
                hook(out, args)
            return out

        return wrapper

    # -- counters read from returned values -----------------------------------

    def _count_halvings(self, out, args):
        _, eta = out
        ls = args[5]
        if ls.mode == "backtrack":
            self.counters["halvings"] += round(
                math.log(ls.eta_init / eta) / math.log(1.0 / ls.shrink))

    def _count_iterations(self, report, args):
        self.counters["iterations"] += report.iterations

    def _count_cols(self, out, args):
        self.counters["cols_bytes"] += out[1].nbytes

    def _measure_tape(self, out, args):
        tape = out[1]
        if tape is not None and self.tape_bytes is None:
            self.tape_bytes = held_bytes(tape.records)

    # -- output ---------------------------------------------------------------

    def write(self, path):
        """Write the spans as CSV: op,name,start,end,parent."""
        with open(path, "w") as fh:
            fh.write("op,name,start,end,parent\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op},{name},{start!r},{end!r},{parent}\n")


def held_bytes(obj):
    """Bytes of the distinct arrays reachable from obj through dicts, lists
    and tuples; views are charged to the array that owns the memory."""
    owners = {}
    todo = [obj]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            owners[id(item)] = item.nbytes
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
    return sum(owners.values())


def self_times(spans):
    """Span duration minus the time covered by its direct children.

    Children of one span never overlap (the program is single-threaded), so
    the covered time is the sum of their durations.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_layer_metrics(tracer, n_ops, op_times, n_setups):
    """Per-operation layer metrics from the spans of the timed operations.

    Counts and times are totals over the timed operations divided by their
    number; runs attempt whole rounds, so the counts repeat exactly.
    `data_metrics.gen_s` is the dataset generation time per set-up.
    """
    own = self_times(tracer.spans)
    calls, self_s, total_s = {}, {}, {}
    gen_s = 0.0
    for (name, start, end, _, op), t_self in zip(tracer.spans, own):
        if op < 0:
            if name == "data_metrics.gen":
                gen_s += end - start
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t_self
        total_s[name] = total_s.get(name, 0.0) + (end - start)

    def per_op(table, name):
        return table.get(name, 0) / n_ops

    out = {}
    for span in _CALLS_AND_SELF:
        out[f"{span}.calls"] = per_op(calls, span)
        out[f"{span}.self_s"] = per_op(self_s, span)
    out["scale_step.halvings"] = tracer.counters["halvings"] / n_ops
    for route in ("solve", "woodbury", "direct"):
        out[f"tikhonov.{route}.calls"] = per_op(calls, f"tikhonov.{route}")
    out["tikhonov.form_s"] = (per_op(self_s, "tikhonov.woodbury")
                              + per_op(self_s, "tikhonov.direct"))
    out["tikhonov.factor_s"] = per_op(total_s, "tikhonov.factor")
    out["tikhonov.backsolve_s"] = per_op(total_s, "tikhonov.backsolve")
    out["gcgls.solve.self_s"] = per_op(self_s, "gcgls.solve")
    out["gcgls.iterations"] = tracer.counters["iterations"] / n_ops
    out["drcgnet.conv.forward.calls"] = per_op(calls, "drcgnet.conv.forward")
    out["drcgnet.conv.forward_s"] = per_op(total_s, "drcgnet.conv.forward")
    out["drcgnet.conv.backward_s"] = per_op(total_s, "drcgnet.conv.backward")
    out["drcgnet.conv.cols_mb"] = tracer.counters["cols_bytes"] / n_ops / 1e6
    out["drcgnet.network.forward.calls"] = per_op(calls, "drcgnet.network.forward")
    out["drcgnet.network.forward.self_s"] = per_op(self_s, "drcgnet.network.forward")
    out["drcgnet.network.backward.self_s"] = per_op(self_s, "drcgnet.network.backward")
    out["drcgnet.network.tape_mb"] = (tracer.tape_bytes or 0) / 1e6
    out["drcgnet.train.adam.calls"] = per_op(calls, "drcgnet.train.adam")
    out["drcgnet.train.adam_s"] = per_op(total_s, "drcgnet.train.adam")
    out["data_metrics.gen_s"] = gen_s / n_setups
    out["trace.op_s"] = statistics.median(op_times)
    return out
