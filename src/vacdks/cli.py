"""Command-line front end: generate, solve, bench, bound.

Exit codes: 0 success, 1 usage error (bad flags or parameter values),
2 runtime failure (I/O, infeasible instance, solver error).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import multiprocessing
import sys
import time
from pathlib import Path

import numpy as np

from .constraints import ConstraintSpec, is_feasible_binary, validate
from .fw import METHODS, FwConfig, solve
from .graph import (
    AttributeAssignment,
    GraphFormatError,
    PlantedCliqueConfig,
    generate_planted_clique,
    induced_weight,
    load_attributes,
    load_edge_list,
    read_text,
    save_attributes,
    save_edge_list,
)
from .metrics import normalized_edge_weight, recovery_check, upper_bound


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
    p.add_argument("--lambda", type=float, default=FwConfig.lam, dest="lam",
                   help="diagonal loading (default: w_max)")
    p.add_argument("--max-iters", type=int, default=FwConfig.max_iters)
    p.add_argument("--gap-tol", type=float, default=FwConfig.gap_tol)


def _config(cls, **fields):
    """``cls(**fields)``; a value it rejects is a usage error."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _fw_config(args):
    return _config(FwConfig, lam=args.lam, max_iters=args.max_iters,
                   gap_tol=args.gap_tol)


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


def _load_problem(args, attr):
    """The graph on ``attr``'s n vertices and the validated spec of ``--k``
    and the minimum flags."""
    graph = load_edge_list(args.edges, unweighted_default=args.unweighted,
                           n=attr.n)
    spec = ConstraintSpec(k=args.k, mins=_resolve_mins(args, attr.r), attr=attr)
    validate(spec, graph)
    return graph, spec


def _emit(obj, out):
    """Write ``obj`` as one JSON line to ``out``, if given; then print it."""
    text = json.dumps(obj)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    print(text)


def _solve_record(method, graph, spec, fw_cfg, instance, seed, planted):
    """Run, time and check one method; its record for ``solve`` and ``bench``."""
    start = time.perf_counter()
    sel, trace = solve(graph, spec, method, fw_cfg)
    wall = time.perf_counter() - start
    if not is_feasible_binary(spec, sel):
        raise RuntimeError(f"{method} produced an infeasible selection")
    counts = np.bincount(spec.attr.labels[sel], minlength=spec.attr.r)
    weight = induced_weight(graph, sel)
    return {
        "method": method,
        "instance": instance,
        "k": spec.k,
        "mins": list(spec.mins),
        "seed": seed,
        "vertices": [int(v) for v in sorted(sel)],
        "objective": weight,
        "normalized": (normalized_edge_weight(graph, sel, weight)
                       if spec.k >= 2 else None),
        "group_counts": counts.tolist(),
        "group_proportions": (counts / len(sel)).tolist(),
        "recovery": None if planted is None else recovery_check(planted, sel),
        "iterations": None if trace is None else trace.iterations,
        "wall_seconds": wall,
    }


def _generator_config(args, seed):
    """The generator settings of ``--n/--p/--k/--r/--weighted`` and ``seed``."""
    return _config(PlantedCliqueConfig, n=args.n, p=args.p, k=args.k,
                   r=args.r, weighted=args.weighted, seed=seed)


def cmd_generate(args):
    cfg = _generator_config(args, args.seed)
    graph, attr, planted = generate_planted_clique(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_edge_list(graph, out / "edges.tsv")
    save_attributes(attr, out / "attrs.tsv")
    with open(out / "planted.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(str(int(v)) for v in planted) + "\n")
    manifest = {
        **dataclasses.asdict(cfg),
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
    attr = load_attributes(args.attrs)
    planted = None
    if args.planted:
        tokens = read_text(args.planted).split()
        try:
            planted = [int(t) for t in tokens]
        except ValueError as exc:
            raise GraphFormatError(f"{args.planted}: {exc}") from exc
        seen = set()
        for v in planted:
            if v < 0 or v in seen:
                kind = "negative" if v < 0 else "repeated"
                raise GraphFormatError(f"{args.planted}: {kind} vertex id {v}")
            if v >= attr.n:
                raise GraphFormatError(
                    f"{args.planted}: vertex id {v} out of range [0, {attr.n})")
            seen.add(v)
    graph, spec = _load_problem(args, attr)
    _emit(_solve_record(args.method, graph, spec, fw_cfg,
                        {"edges": args.edges, "attrs": args.attrs},
                        args.seed, planted), args.out)
    return 0


def cmd_bound(args):
    graph, spec = _load_problem(args, load_attributes(args.attrs))
    _emit(upper_bound(graph, spec).to_dict(), args.out)
    return 0


def _bench_worker(conn, *record_args):
    """Send ``_solve_record(*record_args)``, one campaign cell, down ``conn``."""
    try:
        conn.send(("ok", _solve_record(*record_args)))
    except Exception as exc:  # recorded per-run; the campaign continues
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


# Seconds one bench run may take before it is killed and recorded as failed.
_BENCH_RUN_TIMEOUT_S = 3600.0


def _run_isolated(ctx, record_args, timeout):
    """Run ``_bench_worker(conn, *record_args)`` in a fresh process; never hangs.

    Returns the (status, result) pair the worker sent. A worker that exits
    without sending (killed, crashed, ``os._exit``) or sends nothing within
    ``timeout`` seconds yields ("error", reason) and is killed if still alive.
    """
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_bench_worker, args=(child, *record_args))
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


def _mean_std(values):
    """Mean and sample std; (None, None) when empty, std 0.0 for one value."""
    if not values:
        return None, None
    std = 0.0 if len(values) == 1 else float(np.std(values, ddof=1))
    return float(np.mean(values)), std


def _summarize(records):
    """Per-method mean +/- sample std of normalized value and wall time.

    The normalized value is null below k=2; its mean and std are taken over
    the runs that have one, and are null when none does.
    """
    summary = {}
    by_method = {}
    for rec in records:
        by_method.setdefault(rec["method"], []).append(rec)
    for method, recs in sorted(by_method.items()):
        ok = [r for r in recs if "error" not in r]
        norm_mean, norm_std = _mean_std(
            [r["normalized"] for r in ok if r["normalized"] is not None])
        wall_mean, wall_std = _mean_std([r["wall_seconds"] for r in ok])
        summary[method] = {
            "runs": len(recs),
            "failures": len(recs) - len(ok),
            "normalized_mean": norm_mean,
            "normalized_std": norm_std,
            "wall_mean": wall_mean,
            "wall_std": wall_std,
            "std_is_degenerate": len(ok) == 1,
            "success_count": sum(1 for r in ok if r.get("recovery")),
        }
    return summary


def _first_seen_groups(attr):
    """Groups renumbered in order of their lowest vertex id.

    ``load_attributes`` numbers groups as they first appear in the file
    ``generate`` writes, in vertex order; so do campaigns, and a ``--min``
    list constrains the same groups in ``solve`` and ``bench``. Empty
    groups keep the last numbers.
    """
    first = [members[0] if len(members) else attr.n for members in attr.groups]
    rank = np.empty(attr.r, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(attr.r)
    return AttributeAssignment.from_labels(rank[attr.labels], r=attr.r)


def _bench_seed(ctx, methods, generator, mins, fw_cfg):
    """One seed's runs on one instance, which is freed when this returns."""
    seed = generator["seed"]
    try:
        graph, attr, planted = generate_planted_clique(
            PlantedCliqueConfig(**generator))
        spec = ConstraintSpec(k=generator["k"], mins=mins,
                              attr=_first_seen_groups(attr))
        validate(spec, graph)
    except ValueError as exc:
        error = f"{type(exc).__name__}: {exc}"
        return [{"method": m, "seed": seed, "error": error} for m in methods]
    records = []
    for method in methods:
        status, result = _run_isolated(
            ctx, (method, graph, spec, fw_cfg, {"generator": generator}, seed,
                  planted), _BENCH_RUN_TIMEOUT_S)
        records.append(result if status == "ok" else
                       {"method": method, "seed": seed, "error": result})
    return records


def cmd_bench(args):
    if args.seeds < 1:
        raise UsageError(f"--seeds={args.seeds} must be at least 1")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError(f"--methods={args.methods!r} names no method")
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}")
        if m in methods[:i]:
            raise UsageError(f"method {m!r} is named twice in --methods")
    base = dataclasses.asdict(_generator_config(args, 0))
    fw_cfg = _fw_config(args)
    mins = _resolve_mins(args, args.r)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    ctx = multiprocessing.get_context("spawn")
    for seed in range(args.seeds):
        records += _bench_seed(ctx, methods, {**base, "seed": seed}, mins,
                               fw_cfg)
    records.sort(key=lambda rec: methods.index(rec["method"]))  # method-major

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
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the output only; no method is seeded")
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
