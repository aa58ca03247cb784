"""Command-line front end: generate, solve, bench, bound.

Exit codes: 0 success, 1 usage error (bad flags or parameter values),
2 runtime failure (I/O, infeasible instance, solver error).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import multiprocessing
import sys
import time
from pathlib import Path

import numpy as np

from .baselines import brute_force, greedy_peel, lrbo_rank1
from .constraints import ConstraintSpec, is_feasible_binary, validate
from .fw import FwConfig, solve_fw
from .graph import (
    PlantedCliqueConfig,
    WeightedGraph,
    generate_planted_clique,
    induced_weight,
    load_attributes,
    load_edge_list,
    save_attributes,
    save_edge_list,
)
from .metrics import (
    group_proportions,
    normalized_edge_weight,
    recovery_check,
    upper_bound,
)

METHODS = ("fw", "peel", "lrbo", "fw+peel", "oracle")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_spec_flags(p):
    p.add_argument("--min", type=int, action="append", default=None,
                   dest="mins", metavar="K_I",
                   help="per-group minimum, repeatable, positional by "
                        "densified group index")
    p.add_argument("--min-all", type=int, default=None,
                   help="set every group minimum to this value")


def _add_instance_flags(p):
    p.add_argument("--edges", required=True, help="edge-list file")
    p.add_argument("--attrs", required=True, help="attribute file")
    p.add_argument("--unweighted", action="store_true",
                   help="treat missing weight fields as 1")


def _add_solver_flags(p):
    p.add_argument("--lambda", type=float, default=None, dest="lam",
                   help="diagonal loading (default: w_max)")
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--gap-tol", type=float, default=1e-6)


def _fw_config(args):
    try:
        return FwConfig(lam=args.lam, max_iters=args.max_iters,
                        gap_tol=args.gap_tol)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _resolve_mins(args, r):
    if args.mins is not None and args.min_all is not None:
        raise UsageError("--min and --min-all are mutually exclusive")
    if args.min_all is not None:
        return tuple([args.min_all] * r)
    if args.mins is not None:
        if len(args.mins) != r:
            raise UsageError(
                f"{len(args.mins)} --min flags given for {r} groups")
        return tuple(args.mins)
    return tuple([0] * r)


class UsageError(Exception):
    pass


def _load_instance(args):
    # The attribute file fixes n; the edge list may omit trailing isolated
    # vertices, so the graph gets at least as many vertices as it labels.
    # It is read once, so that it may be a pipe.
    with open(args.attrs, encoding="utf-8") as fh:
        text = fh.read()
    labeled = sum(1 for line in io.StringIO(text)
                  if line.strip() and not line.lstrip().startswith("#"))
    graph = load_edge_list(args.edges, unweighted_default=args.unweighted,
                           n=labeled)
    attr = load_attributes(args.attrs, graph.n, text=text)
    return graph, attr


def _run_method(method, graph, spec, fw_cfg):
    """Run one solver; returns (vertex array, iteration count or None)."""
    if method == "fw":
        _, sel, trace = solve_fw(graph, spec, fw_cfg)
        return sel, trace.iterations
    if method == "fw+peel":
        warm = greedy_peel(graph, spec)
        x0 = np.zeros(graph.n)
        x0[warm] = 1.0
        _, sel, trace = solve_fw(graph, spec, fw_cfg, x0=x0)
        return sel, trace.iterations
    if method == "peel":
        return greedy_peel(graph, spec), None
    if method == "lrbo":
        sel, _, _ = lrbo_rank1(graph, spec)
        return sel, None
    if method == "oracle":
        sel, _ = brute_force(graph, spec)
        return sel, None
    raise UsageError(f"unknown method {method!r}")


def _make_record(method, instance, spec, seed, graph, sel, iterations,
                 wall_seconds, planted=None):
    if not is_feasible_binary(spec, sel):
        raise RuntimeError(f"{method} produced an infeasible selection")
    objective = induced_weight(graph, sel)
    counts = np.bincount(spec.attr.labels[sel], minlength=spec.attr.r)
    record = {
        "method": method,
        "instance": instance,
        "k": spec.k,
        "mins": list(spec.mins),
        "seed": seed,
        "vertices": [int(v) for v in sorted(sel)],
        "objective": objective,
        "normalized": normalized_edge_weight(graph, sel) if spec.k >= 2 else None,
        "group_counts": counts.tolist(),
        "group_proportions": group_proportions(spec.attr, sel).tolist(),
        "recovery": None if planted is None else recovery_check(planted, sel),
        "iterations": iterations,
        "wall_seconds": wall_seconds,
    }
    return record


def cmd_generate(args):
    try:
        cfg = PlantedCliqueConfig(n=args.n, p=args.p, k=args.k, r=args.r,
                                  weighted=args.weighted, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    graph, attr, planted = generate_planted_clique(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_edge_list(graph, out / "edges.tsv")
    save_attributes(attr, out / "attrs.tsv")
    with open(out / "planted.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(str(int(v)) for v in planted) + "\n")
    manifest = {
        "n": cfg.n, "p": cfg.p, "k": cfg.k, "r": cfg.r,
        "weighted": cfg.weighted, "seed": cfg.seed,
        "m": graph.m, "w_max": graph.w_max,
        "files": {"edges": "edges.tsv", "attrs": "attrs.tsv",
                  "planted": "planted.txt"},
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(json.dumps({"out": str(out), "m": graph.m, "n": graph.n}))
    return 0


def cmd_solve(args):
    fw_cfg = _fw_config(args)
    graph, attr = _load_instance(args)
    mins = _resolve_mins(args, attr.r)
    spec = ConstraintSpec(k=args.k, mins=mins, attr=attr)
    validate(spec, graph)
    planted = None
    if args.planted:
        with open(args.planted, encoding="utf-8") as fh:
            planted = [int(t) for t in fh.read().split()]
    start = time.perf_counter()
    sel, iterations = _run_method(args.method, graph, spec, fw_cfg)
    wall = time.perf_counter() - start
    record = _make_record(args.method, {"edges": args.edges, "attrs": args.attrs},
                          spec, args.seed, graph, sel, iterations, wall, planted)
    text = json.dumps(record, indent=None)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def cmd_bound(args):
    graph, attr = _load_instance(args)
    mins = _resolve_mins(args, attr.r)
    spec = ConstraintSpec(k=args.k, mins=mins, attr=attr)
    validate(spec, graph)
    report = upper_bound(graph, spec)
    text = json.dumps(report.to_dict())
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def _bench_run(payload):
    """One campaign cell: generate, warm up untimed, then time the solve."""
    cfg = PlantedCliqueConfig(**payload["generator"])
    graph, attr, planted = generate_planted_clique(cfg)
    spec = ConstraintSpec(k=payload["k"], mins=tuple(payload["mins"]), attr=attr)
    validate(spec, graph)
    fw_cfg = payload["fw_cfg"]
    method = payload["method"]
    # Warm up untimed on a copy, so the timed run computes its own eigenpair.
    _run_method(method, WeightedGraph(graph.adj, graph.w_max), spec, fw_cfg)
    start = time.perf_counter()
    sel, iterations = _run_method(method, graph, spec, fw_cfg)
    wall = time.perf_counter() - start
    return _make_record(method, {"generator": payload["generator"]},
                        spec, cfg.seed, graph, sel, iterations, wall, planted)


def _bench_worker(payload, conn):
    try:
        conn.send(("ok", _bench_run(payload)))
    except Exception as exc:  # recorded per-run; the campaign continues
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


# Seconds one bench run may take before it is killed and recorded as failed.
_BENCH_RUN_TIMEOUT_S = 3600.0


def _run_isolated(ctx, payload, timeout):
    """Run ``_bench_worker(payload, conn)`` in a fresh process; never hangs.

    Returns the (status, result) pair the worker sent. A worker that exits
    without sending (killed, crashed, ``os._exit``) or sends nothing within
    ``timeout`` seconds yields ("error", reason) and is killed if still alive.
    """
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_bench_worker, args=(payload, child))
    proc.start()
    # Only the worker may hold the sending end, or its death is no EOF here.
    child.close()
    with parent:
        ready = parent.poll(timeout)
        try:
            outcome = parent.recv() if ready else None
        except EOFError:
            outcome = None
    proc.join(timeout if ready else 0)
    if proc.is_alive():
        proc.kill()
        proc.join()
    if outcome is not None:
        return outcome
    if not ready:
        return "error", f"no result within {timeout:g} s"
    return "error", f"worker exited with code {proc.exitcode} without a result"


def _summarize(records):
    """Per-method mean +/- sample std of normalized value and wall time."""
    summary = {}
    by_method = {}
    for rec in records:
        by_method.setdefault(rec["method"], []).append(rec)
    for method, recs in sorted(by_method.items()):
        ok = [r for r in recs if "error" not in r]
        norm = [r["normalized"] for r in ok]
        wall = [r["wall_seconds"] for r in ok]
        single = len(ok) == 1
        summary[method] = {
            "runs": len(recs),
            "failures": len(recs) - len(ok),
            "normalized_mean": float(np.mean(norm)) if ok else None,
            "normalized_std": 0.0 if single else
            (float(np.std(norm, ddof=1)) if ok else None),
            "wall_mean": float(np.mean(wall)) if ok else None,
            "wall_std": 0.0 if single else
            (float(np.std(wall, ddof=1)) if ok else None),
            "std_is_degenerate": single,
            "success_count": sum(1 for r in ok if r.get("recovery")),
        }
    return summary


def cmd_bench(args):
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}")
    try:
        base = dict(n=args.n, p=args.p, k=args.k, r=args.r,
                    weighted=args.weighted)
        PlantedCliqueConfig(**base, seed=0)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    fw_cfg = _fw_config(args)
    mins = _resolve_mins(args, args.r)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    ctx = multiprocessing.get_context("spawn")
    for method in methods:
        for seed in range(args.seeds):
            payload = {
                "method": method, "k": args.k, "mins": list(mins),
                "generator": {**base, "seed": seed}, "fw_cfg": fw_cfg,
            }
            status, result = _run_isolated(ctx, payload,
                                           _BENCH_RUN_TIMEOUT_S)
            if status == "ok":
                records.append(result)
            else:
                records.append({"method": method, "seed": seed, "error": result})

    fields = ["method", "seed", "objective", "normalized", "recovery",
              "iterations", "wall_seconds", "error"]
    with open(out / "runs.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for rec in records:
            writer.writerow(rec)
    summary = _summarize(records)
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(json.dumps(summary, indent=2))
    return 0


def build_parser():
    parser = _Parser(prog="vacdks",
                     description="attribute-constrained densest k-subgraph tools")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("generate", help="write a planted-clique instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="solve one instance with one method")
    p.add_argument("method", choices=METHODS)
    _add_instance_flags(p)
    p.add_argument("--k", type=int, required=True, help="subgraph size")
    _add_spec_flags(p)
    _add_solver_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--planted", default=None,
                   help="ground-truth vertex file for recovery checking")
    p.add_argument("--out", default=None, help="also write the JSON here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="seeded benchmark campaign")
    p.add_argument("--methods", required=True,
                   help="comma-separated subset of " + ",".join(METHODS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seeds", type=int, required=True,
                   help="number of trials; seeds run 0..t-1")
    p.add_argument("--weighted", action="store_true")
    _add_spec_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bound", help="instance upper bound report")
    _add_instance_flags(p)
    p.add_argument("--k", type=int, required=True, help="subgraph size")
    _add_spec_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"vacdks: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"vacdks: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
