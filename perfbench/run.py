#!/usr/bin/env python3
"""Benchmark of the vacdks package, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are listed in BENCHMARK.json and explained in
perfbench/README.md; ``--workload all`` runs each in turn. The package is
imported from ``src/`` of the checkout.

This process only starts and reaps children, one at a time and each under a
timeout: set-up children that generate the instances (repeated, for a median
set-up time), per pass one solver child (the ``vacdks solve`` command on the
CLI workload, the in-memory suite elsewhere), and a checker that re-checks
every output. It keeps no instance in memory, because a child inherits its
parent's peak RSS as the start of its own. With ``--trace 0`` no wrappers
are installed. With ``--trace 1`` the first set-up and every second pass run
traced, and the untraced passes between them give the tracing overhead.

A report goes to standard output. Its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The full result, with the environment and every per-pass
sample, is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Every child is killed at this point of a run and its operations counted
# as failed, so a run always ends inside three minutes.
RUN_BUDGET_S = 165.0

UNITS = {
    "wall_s": "s", "solve_s": "s", "peak_rss_mb": "MB", "fw_s": "s",
    "fw_peel_s": "s", "peel_s": "s", "lrbo_s": "s", "bound_s": "s",
    "normalized_mean": "ratio", "recovery_rate": "ratio",
}
METHOD_METRICS = (("fw", "fw_s"), ("peel", "peel_s"), ("fw+peel", "fw_peel_s"),
                  ("lrbo", "lrbo_s"), ("bound", "bound_s"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="start passes until this much time has been measured")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Child:
    """One finished child process: wall time, peak RSS, exit status."""

    def __init__(self, argv, env, timeout, log_stem):
        """Run ``argv`` to completion, killing it after ``timeout`` seconds.

        Peak RSS comes from this child's own ``wait4`` rusage, not from
        RUSAGE_CHILDREN, which keeps the maximum over every child so far.
        """
        out_path = log_stem.with_suffix(".out")
        err_path = log_stem.with_suffix(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            if not ready:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, rusage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
        finally:
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.argv = [str(a) for a in argv]
        self.timed_out = not ready
        self.exit_code = proc.returncode
        self.peak_rss_mb = rusage.ru_maxrss / 1024.0
        self.stdout = out_path.read_text(encoding="utf-8", errors="replace")
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")

    @property
    def ok(self):
        return self.exit_code == 0 and not self.timed_out

    def failure(self):
        if self.timed_out:
            return "timed out"
        tail = " | ".join(self.stderr.strip().splitlines()[-3:])
        return f"exit {self.exit_code}: {tail}"

    def summary(self):
        return {"argv": self.argv[1:4], "wall_s": self.wall_s,
                "peak_rss_mb": self.peak_rss_mb, "exit_code": self.exit_code,
                "timed_out": self.timed_out}


class Run:
    """One workload run: set-up, timed passes, then the output check."""

    def __init__(self, workload, args, env, tmp):
        self.workload, self.args, self.env, self.tmp = workload, args, env, tmp
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.span_files = {}  # pass index (-1: set-up) -> span files

    def child(self, argv, stem, traced_key=None):
        """Run one child; a traced worker writes spans filed under the key."""
        if traced_key is not None:
            path = self.tmp / f"{stem}.spans"
            argv = [*argv[:3], "--spans", str(path), *argv[3:]]
            self.span_files.setdefault(traced_key, []).append(path)
        return Child(argv, self.env, self.deadline - time.monotonic(),
                     self.tmp / stem)

    def worker(self, *argv):
        return [sys.executable, str(WORKER), *argv]

    def setup(self):
        """Run the set-up child as often as the workload asks.

        The first child's ``setup.json`` gives the repeat count; each repeat
        writes the same files. In a traced run the first repeat is traced,
        and setup_s is the median over the untraced ones, if any.
        """
        children = []
        while not children or len(children) < self.desc["setups"]:
            i = len(children)
            traced = bool(self.args.trace) and i == 0
            child = self.child(self.worker(
                "setup", "--workload", self.workload,
                "--seed", str(self.args.seed), "--dir", str(self.tmp)),
                f"setup{i}", -1 if traced else None)
            if not child.ok:
                raise RuntimeError(f"set-up failed: {child.failure()}")
            children.append((child, traced))
            self.desc = json.loads((self.tmp / "setup.json").read_text())
        timed = [c for c, traced in children if not traced] or \
            [c for c, _ in children]
        return [c for c, _ in children], timed

    def run_pass(self, index, traced):
        """Run the pass's solver child once.

        Returns the child and, per instance, its operation records: the
        ``vacdks solve`` output on the CLI workload, else one record per
        method from the suite worker.
        """
        key = index if traced else None
        if self.desc["cli"]:
            if traced:
                child = self.child(self.worker("cli", "--", *self.desc["cli"]),
                                   f"p{index}-cli", key)
            else:
                child = self.child([sys.executable, "-m", "vacdks.cli",
                                    *self.desc["cli"]], f"p{index}-cli")
            ops = {self.desc["instances"][0]: [cli_op(child)]}
        else:
            out = self.tmp / f"p{index}-suite.json"
            child = self.child(self.worker("suite", "--dir", str(self.tmp),
                                           "--out", str(out)),
                               f"p{index}-suite", key)
            results = json.loads(out.read_text()) if child.ok else {}
            ops = {name: results.get(name) or [
                {"method": "suite", "error": f"suite worker {child.failure()}"}]
                for name in self.desc["instances"]}
        for inst_ops in ops.values():
            for op in inst_ops:
                op["pass"] = index
        return child, ops

    def check(self, ops_by_pass):
        """Re-check every output in one checker child.

        Returns the checked records grouped as the input was, plus the
        untimed reference operations the checker added.
        """
        ops_path = self.tmp / "ops.json"
        ops_path.write_text(json.dumps(
            {name: [op for ops in ops_by_pass for op in ops[name]]
             for name in self.desc["instances"]}))
        out = self.tmp / "checked.json"
        child = self.child(self.worker("check", "--dir", str(self.tmp),
                                       "--ops", str(ops_path),
                                       "--out", str(out)), "check")
        if child.ok:
            checked = json.loads(out.read_text())
        else:
            reason = f"checker {child.failure()}"
            checked = {name: [dict(op, instance=name, failed=True,
                                   error=op.get("error") or reason)
                              for ops in ops_by_pass for op in ops[name]]
                       for name in self.desc["instances"]}
        by_pass = [{name: [] for name in self.desc["instances"]}
                   for _ in ops_by_pass]
        refs = []
        for name, inst_ops in checked.items():
            for op in inst_ops:
                if op["pass"] is None:
                    refs.append(op)
                else:
                    by_pass[op["pass"]][name].append(op)
        return by_pass, refs

    def spans(self, key):
        return [tracing.load_spans(p) for p in self.span_files.get(key, [])
                if p.exists()]


def cli_op(child):
    """The CLI solve as an operation record; its output is checked later."""
    op = {"method": "cli:fw+peel", "seconds": child.wall_s, "vertices": None,
          "error": None}
    if not child.ok:
        op["error"] = child.failure()
        return op
    try:
        record = json.loads(child.stdout.strip().splitlines()[-1])
        op["vertices"] = [int(v) for v in record["vertices"]]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        op["error"] = f"unreadable solve record: {exc!r}"
    return op


def pass_metrics(child, ops, cli):
    """End-to-end figures of one pass; a run reports their medians.

    A method's time is its call on one instance, summed over the instances
    of the batch. On the CLI workload the solve child is the whole timed
    part, so ``solve_s`` and ``wall_s`` are the same time there.
    """
    m = {"wall_s": child.wall_s, "peak_rss_mb": child.peak_rss_mb}
    if cli:
        m["solve_s"] = child.wall_s
    done = [op for inst_ops in ops.values() for op in inst_ops
            if not op["failed"]]
    for method, key in METHOD_METRICS:
        times = [op["seconds"] for op in done if op["method"] == method]
        if times:
            m[key] = sum(times)
    sets = [op for op in done if "normalized" in op]
    if sets:
        m["normalized_mean"] = statistics.fmean(op["normalized"] for op in sets)
        m["recovery_rate"] = sum(op["recovered"] for op in sets) / len(sets)
    return m


def run_workload(workload, args, env):
    tmp = OUT / f"tmp-{os.getpid()}-{workload}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        run = Run(workload, args, env, tmp)
        setup_children, setup_timed = run.setup()
        passes, ops_by_pass = [], []
        start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            child, ops = run.run_pass(len(passes), traced)
            passes.append((child, traced))
            ops_by_pass.append(ops)
            now = time.monotonic()
            done = now - start >= args.seconds and \
                (not args.trace or len(passes) >= 2)
            if done or now + 1.5 * child.wall_s + 5 > run.deadline:
                break
        checked, refs = run.check(ops_by_pass)
        setup_spans = run.spans(-1)
        traced_spans = [run.spans(i) for i, (_, t) in enumerate(passes) if t]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    cli = bool(run.desc["cli"])
    samples = [pass_metrics(child, ops, cli)
               for (child, traced), ops in zip(passes, checked) if not traced]
    e2e = {"setup_s": {"value": statistics.median(c.wall_s for c in setup_timed),
                       "unit": "s", "samples": len(setup_timed)}}
    for name, unit in UNITS.items():
        values = [s[name] for s in samples if name in s]
        if values:
            e2e[name] = {"value": statistics.median(values), "unit": unit,
                         "samples": len(values)}
    all_ops = refs + [op for ops in checked for inst_ops in ops.values()
                      for op in inst_ops]
    result = {
        "workload": workload,
        "attempted": len(all_ops),
        "failed": sum(op["failed"] for op in all_ops),
        "failures": [{k: op.get(k) for k in ("instance", "method", "error")}
                     for op in all_ops if op["failed"]],
        "end_to_end": e2e,
        "setup": [c.summary() for c in setup_children],
        "passes": [dict(child.summary(), traced=traced)
                   for child, traced in passes],
        "pass_samples": samples,
    }
    if args.trace:
        per_layer, missing = tracing.per_layer_metrics(
            setup_spans[0] if setup_spans else [], traced_spans)
        traced_walls = [child.wall_s for child, traced in passes if traced]
        if traced_walls and "wall_s" in e2e:
            per_layer["trace.overhead_s"] = {
                "value": statistics.median(traced_walls) - e2e["wall_s"]["value"],
                "unit": "s", "samples": len(traced_walls)}
        result["per_layer"] = per_layer
        result["missing_layers"] = missing
    return result


def environment(args):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "vacdks").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def print_report(result, declared):
    print(f"== {result['workload']}: {result['failed']} failed of "
          f"{result['attempted']} operations attempted")
    for failure in result["failures"]:
        print(f"   FAILED {failure['instance']} {failure['method']}: "
              f"{failure['error']}")
    for section in ("end_to_end", "per_layer"):
        for key, m in sorted(result.get(section, {}).items()):
            tag = "" if key in declared else "  (report only)"
            print(f"   {key:48s} {m['value']:>14.6g} {m['unit']:6s} "
                  f"n={m['samples']}{tag}")
    for name in result.get("missing_layers", ()):
        print(f"   {name:48s} {'missing':>14s}  (wrapped, never fired)")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "vacdks" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(names)} or all", file=sys.stderr)
        return 2

    # One BLAS/OpenMP thread per process: the solver work is sparse and
    # single-threaded, and one thread keeps runs on a shared machine steady.
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    os.environ.update({v: "1" for v in THREAD_VARS})

    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"] for m in spec[section]}
    info = environment(args)
    print("environment: " + json.dumps(info, sort_keys=True))
    results = []
    for name in chosen:
        result = run_workload(name, args, env)
        result["environment"] = info
        print_report(result, declared)
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        (OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(result, indent=1), encoding="utf-8")
        results.append(result)

    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for key, m in result.get(section, {}).items():
            if key in declared:
                metrics[prefix + key] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
