"""Workload definitions, instance files and output checks.

Imported by the child processes only (see worker.py): the parent stays
small, because a child started by ``exec`` inherits its parent's peak RSS
as the starting value of its own ``ru_maxrss``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

import vacdks
from vacdks import (
    AttributeAssignment,
    ConstraintSpec,
    PlantedCliqueConfig,
    WeightedGraph,
    induced_weight,
    is_feasible_binary,
    normalized_edge_weight,
    recovery_check,
)

# Slack for comparisons between floating-point sums that are equal in exact
# arithmetic (bound >= achieved, fw+peel weight >= peel weight).
REL_TOL = 1e-9

ALL_METHODS = ("peel", "fw", "fw+peel", "lrbo", "bound")


@dataclass
class Instance:
    name: str
    spec: ConstraintSpec
    graph: WeightedGraph
    planted: np.ndarray


def paper_10k(seed):
    return [("paper", PlantedCliqueConfig(n=10000, p=0.05, k=30, r=3,
                                          seed=seed), (5, 5, 5))]


def solver_50k(seed):
    return [("c6", PlantedCliqueConfig(n=50000, p=0.01, k=60, r=3,
                                       seed=seed), (10, 10, 10))]


def small_batch(seed):
    """48 instances: every (n, p) pair twice unweighted and twice weighted.

    The grid, r and k/r are fixed per slot so that every seed asks for the
    same mix of sizes; the seed draws the graphs and the group labels.
    Minimums one below k/r leave r slots to the LMO's global top-up. Each
    cell is drawn twice because a few instances, whose power iterations
    converge slowly, decide much of a pass's time; more of them make that
    share steadier from seed to seed.
    """
    rng = np.random.default_rng(seed)
    out = []
    grid = itertools.product((400, 1000, 2000, 3000), (0.02, 0.05, 0.1),
                             (False, True), range(2))
    for i, (n, p, weighted, _) in enumerate(grid):
        r, quota = 2 + i % 3, 4 + i % 5
        cfg = PlantedCliqueConfig(n=n, p=p, k=r * quota, r=r,
                                  weighted=weighted,
                                  seed=int(rng.integers(2**31)))
        out.append((f"b{i:02d}", cfg, (quota - 1,) * r))
    return out


# name -> (instance configs from a seed, whether a pass is the CLI solve,
# set-up repeats). A CLI pass times only the `vacdks solve` child; the
# peel reference and the bound its checks need are computed, untimed, by
# the checker. Every other pass runs each of ALL_METHODS once per instance.
# Set-up repeats give setup_s as a median; the 50k generation (about 20 s)
# runs once, to keep a run inside its time budget.
WORKLOADS = {
    "cli-paper-10k": (paper_10k, True, 2),
    "solver-50k": (solver_50k, False, 1),
    "small-batch": (small_batch, False, 2),
}


def setup(name, seed, out_dir):
    """Generate the workload's instances and write the files children read.

    Returns the description the parent needs: instance names, the number
    of set-up repeats and the ``vacdks solve`` arguments of the CLI
    workload. Package calls go
    through module attributes so that a traced set-up sees them.
    """
    configs, cli, repeats = WORKLOADS[name]
    inst_dir = out_dir / "instances"
    inst_dir.mkdir(parents=True, exist_ok=True)
    names, cli_args = [], None
    for iname, cfg, mins in configs(seed):
        graph, attr, planted = vacdks.generate_planted_clique(cfg)
        spec = ConstraintSpec(k=cfg.k, mins=mins, attr=attr)
        if cli:
            # The files `vacdks generate` writes.
            vacdks.save_edge_list(graph, out_dir / "edges.tsv")
            vacdks.save_attributes(attr, out_dir / "attrs.tsv")
            (out_dir / "planted.txt").write_text(
                "\n".join(str(int(v)) for v in planted) + "\n",
                encoding="utf-8")
            cli_args = ["solve", "fw+peel",
                        "--edges", str(out_dir / "edges.tsv"),
                        "--attrs", str(out_dir / "attrs.tsv"),
                        "--k", str(cfg.k), "--min-all", str(mins[0]),
                        "--planted", str(out_dir / "planted.txt")]
        save_instance(inst_dir / f"{iname}.npz", graph, spec, planted)
        names.append(iname)
    return {"instances": names, "setups": repeats, "cli": cli_args}


def save_instance(path, graph, spec, planted):
    """Write one instance for :func:`load_instance`."""
    np.savez(path, n=graph.n, data=graph.adj.data, indices=graph.adj.indices,
             indptr=graph.adj.indptr, w_max=graph.w_max,
             labels=spec.attr.labels, r=spec.attr.r, k=spec.k,
             mins=np.asarray(spec.mins), planted=planted)


def load_instance(path):
    """Rebuild an instance from a file written by :func:`setup`."""
    with np.load(path) as z:
        n = int(z["n"])
        adj = sparse.csr_matrix((z["data"], z["indices"], z["indptr"]),
                                shape=(n, n))
        attr = AttributeAssignment.from_labels(z["labels"], r=int(z["r"]))
        spec = ConstraintSpec(k=int(z["k"]), mins=tuple(z["mins"].tolist()),
                              attr=attr)
        return Instance(path.stem, spec,
                        WeightedGraph(adj=adj, w_max=float(z["w_max"])),
                        z["planted"])


def check_instance(inst, ops):
    """Re-check every output of one instance; marks ``failed`` and why.

    An operation fails if it raised or its process failed, if its set is
    infeasible, if the upper bound lies below an achieved normalized value,
    or if fw+peel induces less weight than peel (rounding is monotone, so
    that last case is a defect). Weights, feasibility and recovery are
    recomputed here, never read from a solver's record.
    """
    checked = []
    for op in ops:
        op = dict(op, instance=inst.name, failed=op.get("error") is not None)
        if op["failed"] or op["method"] == "bound":
            checked.append(op)
            continue
        sel = op.get("vertices")
        if sel is None or not is_feasible_binary(inst.spec, sel):
            op.update(failed=True, error="infeasible selection")
        else:
            op["weight"] = induced_weight(inst.graph, sel)
            op["normalized"] = normalized_edge_weight(inst.graph, sel)
            op["recovered"] = recovery_check(inst.planted, sel)
        checked.append(op)
    sets = [op for op in checked if "normalized" in op]
    best = max((op["normalized"] for op in sets), default=None)
    peel = next((op["weight"] for op in sets if op["method"] == "peel"), None)
    for op in checked:
        if op["failed"]:
            continue
        if op["method"] == "bound" and best is not None and \
                op["bound"] < best - REL_TOL * max(1.0, best):
            op.update(failed=True,
                      error=f"bound {op['bound']!r} below achieved {best!r}")
        if op["method"].endswith("fw+peel") and peel is not None and \
                op["weight"] < peel - REL_TOL * max(1.0, peel):
            op.update(failed=True,
                      error=f"fw+peel weight {op['weight']!r} < peel {peel!r}")
    return checked
