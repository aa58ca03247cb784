"""Child processes of the benchmark; the parent only starts and reaps them.

    worker.py setup --workload W --seed N --dir D   generate instances into D
    worker.py suite --dir D --out F                 run the in-memory methods
    worker.py cli -- <vacdks argv>                  vacdks.cli.main(argv)
    worker.py check --dir D --ops F --out G         re-check every output

Each mode takes ``--spans S``: the process then installs the tracer and
writes its spans to S when it ends. Untraced CLI solves do not come here;
they run ``python3 -m vacdks.cli`` as a user would.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import vacdks
import workloads
from vacdks import cli as vacdks_cli


def run_method(method, graph, spec):
    """One timed call; returns the operation record the checker reads.

    Calls go through the ``vacdks`` module attributes so that a traced run
    sees them.
    """
    op = {"method": method, "seconds": None, "vertices": None, "bound": None,
          "error": None}
    sel = None
    start = time.perf_counter()
    try:
        if method == "peel":
            sel = vacdks.greedy_peel(graph, spec)
        elif method == "fw":
            _, sel, _ = vacdks.solve_fw(graph, spec)
        elif method == "fw+peel":
            warm = vacdks.greedy_peel(graph, spec)
            x0 = np.zeros(graph.n)
            x0[warm] = 1.0
            _, sel, _ = vacdks.solve_fw(graph, spec, x0=x0)
        elif method == "lrbo":
            sel, _, _ = vacdks.lrbo_rank1(graph, spec)
        elif method == "bound":
            op["bound"] = vacdks.upper_bound(graph, spec).bound
        else:
            raise ValueError(f"unknown method {method!r}")
    except Exception as exc:  # counted as a failed operation by the checker
        op["error"] = f"{type(exc).__name__}: {exc}"
        sel = None
    op["seconds"] = time.perf_counter() - start
    if sel is not None:
        op["vertices"] = [int(v) for v in sel]
    return op


def instance_paths(directory):
    return sorted((Path(directory) / "instances").glob("*.npz"))


def cmd_setup(args):
    desc = workloads.setup(args.workload, args.seed, Path(args.dir))
    (Path(args.dir) / "setup.json").write_text(json.dumps(desc),
                                               encoding="utf-8")
    return 0


def cmd_suite(args):
    """Run every method once on every instance: {instance: [op, ...]}.

    All instances are loaded first. Peak RSS then rests on the resident
    instances, which vary little from seed to seed; loaded one at a time,
    it followed one instance's temporaries and spread 2.7% over five seeds.
    """
    instances = [workloads.load_instance(p) for p in instance_paths(args.dir)]
    results = {inst.name: [run_method(m, inst.graph, inst.spec)
                           for m in workloads.ALL_METHODS]
               for inst in instances}
    Path(args.out).write_text(json.dumps(results), encoding="utf-8")
    return 0


def cmd_check(args):
    """Re-check every output of every pass: {instance: [op, ...]}.

    The checks compare against a peel result and an upper bound. Where the
    passes ran neither (the CLI workload), they are computed here, untimed,
    and checked as operations of their own with ``pass`` set to None.
    """
    ops = json.loads(Path(args.ops).read_text(encoding="utf-8"))
    checked = {}
    for path in instance_paths(args.dir):
        inst = workloads.load_instance(path)
        inst_ops = ops[inst.name]
        have = {op["method"] for op in inst_ops}
        refs = [dict(run_method(m, inst.graph, inst.spec), **{"pass": None})
                for m in ("peel", "bound") if m not in have]
        checked[inst.name] = workloads.check_instance(inst, refs + inst_ops)
    Path(args.out).write_text(json.dumps(checked), encoding="utf-8")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p = sub.add_parser("suite")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("cli")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("check")
    p.add_argument("--dir", required=True)
    p.add_argument("--ops", required=True)
    p.add_argument("--out", required=True)
    for p in sub.choices.values():
        p.add_argument("--spans")
    args = parser.parse_args(argv)

    tracer = tracing.Tracer() if args.spans else None
    if tracer is not None:
        tracer.install()
    try:
        if args.mode == "cli":
            argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
            return vacdks_cli.main(argv)
        return {"setup": cmd_setup, "suite": cmd_suite,
                "check": cmd_check}[args.mode](args)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
