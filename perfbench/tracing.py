"""Span tracing around the public functions of each vacdks layer.

Wrappers are installed only in a traced run. A wrapper replaces a function's
name in every loaded ``vacdks.*`` module that binds it, because
``from .x import f`` copies the binding: patching ``vacdks.constraints.lmo``
alone would miss the call inside ``vacdks.fw``. Spans are kept in memory and
written out once, at the end of the traced process.

A span is ``[id, parent_id, name, start, end, attrs]``; self time and
per-layer figures are derived from these records after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time

# (module, attribute) pairs wrapped in a traced run. A target missing from
# the module (renamed or removed by a later change) is skipped, and the
# metrics it would feed are reported as missing.
TARGETS = (
    ("vacdks.graph", "load_edge_list"),
    ("vacdks.graph", "load_attributes"),
    ("vacdks.graph", "save_edge_list"),
    ("vacdks.graph", "save_attributes"),
    ("vacdks.graph", "generate_planted_clique"),
    ("vacdks.graph", "induced_weight"),
    ("vacdks.graph", "WeightedGraph.from_edges"),
    ("vacdks.constraints", "validate"),
    ("vacdks.constraints", "check_fractional"),
    ("vacdks.constraints", "init_uniform"),
    ("vacdks.constraints", "lmo"),
    ("vacdks.constraints", "round_to_integral"),
    ("vacdks.fw", "solve_fw"),
    ("vacdks.fw", "lipschitz_estimate"),
    ("vacdks.baselines", "greedy_peel"),
    ("vacdks.baselines", "_peel_argmin"),
    ("vacdks.baselines", "_peel_heap"),
    ("vacdks.baselines", "_peel_bucket"),
    ("vacdks.baselines", "lrbo_rank1"),
    ("vacdks.spectral", "power_iteration"),
    ("vacdks.spectral", "dominant_eigenpair"),
    ("vacdks.spectral", "second_singular_value"),
    ("vacdks.metrics", "upper_bound"),
    ("vacdks.metrics", "normalized_edge_weight"),
    ("vacdks.cli", "main"),
)

LAYERS = ("graph", "constraints", "fw", "baselines", "spectral", "metrics",
          "cli")


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def open(self, name):
        span = [len(self.spans), self._stack[-1][0] if self._stack else None,
                name, time.perf_counter(), None, {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()

    def install(self):
        """Wrap every target in every loaded vacdks module; idempotent."""
        if self._patches:
            return
        for modname, attr in TARGETS:
            mod = importlib.import_module(modname)
            owner, _, fname = attr.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                orig = cls.__dict__.get(fname)
                if not isinstance(orig, classmethod):
                    continue
                wrapped = classmethod(self._wrap(
                    f"{modname.split('.')[1]}.{fname}", orig.__func__))
                self._patches.append((cls, fname, orig))
                setattr(cls, fname, wrapped)
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(f"{modname.split('.')[1]}.{attr}", orig)
            for other in _vacdks_modules():
                for key, val in list(vars(other).items()):
                    if val is orig:
                        self._patches.append((other, key, orig))
                        setattr(other, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches = []

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, span[5], args, kwargs)
            finally:
                self.close(span)

        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _vacdks_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "vacdks" or n.startswith("vacdks."))]


# Hooks run the wrapped call and record counts in the span's attributes.

def _power_iteration(fn, attrs, args, kwargs):
    attrs["matvecs"] = 0
    matvec = args[0]

    def counted(v):
        attrs["matvecs"] += 1
        return matvec(v)

    return fn(counted, *args[1:], **kwargs)


def _round_to_integral(fn, attrs, args, kwargs):
    wants_transfers = kwargs.pop("return_transfers", False)
    out, transfers = fn(*args, return_transfers=True, **kwargs)
    attrs["transfers"] = transfers
    return (out, transfers) if wants_transfers else out


def _solve_fw(fn, attrs, args, kwargs):
    result = fn(*args, **kwargs)
    trace = result[2]
    adj = (args[0] if args else kwargs["graph"]).adj
    attrs["iterations"] = trace.iterations
    attrs["converged"] = bool(trace.converged)
    attrs["csr_bytes"] = adj.data.nbytes + adj.indices.nbytes + adj.indptr.nbytes
    return result


def _load_edge_list(fn, attrs, args, kwargs):
    path = args[0] if args else kwargs["path"]
    attrs["bytes"] = os.path.getsize(path)
    return fn(*args, **kwargs)


_HOOKS = {
    "spectral.power_iteration": _power_iteration,
    "constraints.round_to_integral": _round_to_integral,
    "fw.solve_fw": _solve_fw,
    "graph.load_edge_list": _load_edge_list,
}


def load_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id -> duration minus the part its children cover."""
    children = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)
    out = {}
    for sid, parent, _, start, end, _ in spans:
        covered = _union_length(
            (max(c[3], start), min(c[4], end))
            for c in children.get(sid, ()) if min(c[4], end) > max(c[3], start))
        out[sid] = (end - start) - covered
    return out


def summarize(span_groups):
    """Per-name and per-layer figures over spans from one or more processes.

    ``span_groups`` is a list of span lists, one per traced process (span ids
    are only unique within a process). Busy time of a name or layer is the
    length of the union of its spans' intervals, so a nested or recursive
    call is not counted twice. Returns ``{name: {"s", "self_s", "calls",
    "attrs": [...]}}`` with layer totals under the layer's own name.
    """
    out = {}
    for spans in span_groups:
        selfs = self_times(spans)
        by_key = {}
        for span in spans:
            sid, _, name, start, end, attrs = span
            layer = name.split(".", 1)[0]
            for key in (name, layer):
                by_key.setdefault(key, []).append(span)
        for key, group in by_key.items():
            entry = out.setdefault(key, {"s": 0.0, "self_s": 0.0, "calls": 0,
                                         "attrs": []})
            entry["s"] += _union_length((s[3], s[4]) for s in group)
            entry["self_s"] += sum(selfs[s[0]] for s in group)
            if key in LAYERS:
                continue
            entry["calls"] += len(group)
            entry["attrs"].extend(s[5] for s in group)
    return out


def _span_names():
    return [f"{m.split('.')[1]}.{a.rpartition('.')[2]}" for m, a in TARGETS]


def _derive(summary):
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    out = {}
    for key, e in summary.items():
        if key in LAYERS:
            out[f"{key}.busy_s"] = (e["s"], "s")
            out[f"{key}.self_s"] = (e["self_s"], "s")
            continue
        out[f"{key}.s"] = (e["s"], "s")
        out[f"{key}.self_s"] = (e["self_s"], "s")
        out[f"{key}.calls"] = (e["calls"], "count")

    def total(key, attr):
        return sum(a.get(attr, 0) for a in summary[key]["attrs"])

    if "graph.load_edge_list" in summary and summary["graph.load_edge_list"]["s"]:
        out["graph.load_edge_list.mb_per_s"] = (
            total("graph.load_edge_list", "bytes") / 1e6
            / summary["graph.load_edge_list"]["s"], "MB/s")
    if "constraints.round_to_integral" in summary:
        e = summary["constraints.round_to_integral"]
        out["constraints.round_to_integral.transfers_per_call"] = (
            total("constraints.round_to_integral", "transfers") / e["calls"],
            "count")
    if "fw.solve_fw" in summary:
        e = summary["fw.solve_fw"]
        iters = total("fw.solve_fw", "iterations")
        out["fw.iterations"] = (iters, "count")
        if iters:
            out["fw.s_per_iter"] = (e["s"] / iters, "s")
        out["fw.converged_frac"] = (
            total("fw.solve_fw", "converged") / e["calls"], "ratio")
        out["fw.matvec_bytes_computed"] = (
            sum(a["iterations"] * a["csr_bytes"] for a in e["attrs"]), "B")
    if "spectral.power_iteration" in summary:
        e = summary["spectral.power_iteration"]
        out["spectral.power_iteration.matvecs_per_call"] = (
            total("spectral.power_iteration", "matvecs") / e["calls"], "count")
    return out


def per_layer_metrics(setup_spans, traced_passes):
    """Per-layer metrics: median over traced passes, plus set-up spans.

    ``traced_passes`` holds, per traced pass, one span list per child. A
    wrapped function that fired in no traced pass and not in set-up is
    returned in the missing list instead of being reported as zero.
    """
    samples = {}
    for groups in traced_passes:
        for key, (value, unit) in _derive(summarize(groups)).items():
            samples.setdefault(key, (unit, []))[1].append(value)
    if setup_spans:
        for key, (value, unit) in _derive(summarize([setup_spans])).items():
            samples[f"setup.{key}"] = (unit, [value])
    metrics = {key: {"value": statistics.median(values), "unit": unit,
                     "samples": len(values)}
               for key, (unit, values) in samples.items()}
    fired = {k.rsplit(".", 1)[0] for k in metrics}
    fired |= {k[len("setup."):] for k in fired if k.startswith("setup.")}
    missing = [name for name in _span_names() if name not in fired]
    return metrics, missing

