"""Every per-layer metric that BENCHMARK.json declares still fires.

A traced benchmark run reports a metric only when the function it wraps is
called; a change that routes around a wrapped function (say, a generator
that no longer calls ``WeightedGraph.from_edges``) leaves that metric out of
the run's last line. This test runs the benchmark's own worker modes
in-process on a tiny instance, traced as ``perfbench/run.py --trace 1``
traces them: the set-up, a ``vacdks solve fw+peel`` pass and an in-memory
suite pass over every method.
"""

import json
import sys
from pathlib import Path

import pytest

from vacdks import PlantedCliqueConfig

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# Filled in by the parent from the traced and untraced pass times.
NOT_FROM_SPANS = {"trace.overhead_s"}

DECLARED = sorted(
    m["name"] for m in
    json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    if m["name"] not in NOT_FROM_SPANS)


def tiny(seed):
    return [("tiny", PlantedCliqueConfig(n=300, p=0.05, k=9, r=3, seed=seed),
             (3, 3, 3))]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Spans of the set-up, the CLI pass and the suite pass."""
    d = tmp_path_factory.mktemp("bench")
    spans = {step: d / f"{step}.spans" for step in ("setup", "cli", "suite")}
    # One set-up writes the files of both pass kinds: the edge list and
    # attribute file the CLI solve reads, and the instance file of the suite.
    workloads.WORKLOADS["tiny"] = (tiny, True, 1)
    try:
        assert worker.main(["setup", "--workload", "tiny", "--seed", "0",
                            "--dir", str(d), "--spans",
                            str(spans["setup"])]) == 0
    finally:
        del workloads.WORKLOADS["tiny"]
    cli_args = json.loads((d / "setup.json").read_text())["cli"]
    assert worker.main(["cli", "--spans", str(spans["cli"]), "--",
                        *cli_args]) == 0
    assert worker.main(["suite", "--dir", str(d), "--out",
                        str(d / "suite.json"), "--spans",
                        str(spans["suite"])]) == 0
    return {step: tracing.load_spans(path) for step, path in spans.items()}


@pytest.mark.parametrize("step", ["cli", "suite"])
def test_every_declared_per_layer_metric_fires(traced, step):
    metrics, _ = tracing.per_layer_metrics(traced["setup"], [[traced[step]]])
    assert [name for name in DECLARED if name not in metrics] == []
