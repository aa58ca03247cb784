"""Tests of the benchmark itself: span arithmetic, wrappers and output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import json  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import vacdks  # noqa: E402
from vacdks import (  # noqa: E402
    ConstraintSpec,
    PlantedCliqueConfig,
    generate_planted_clique,
    greedy_peel,
    solve_fw,
)


def span(sid, parent, name, start, end, **attrs):
    return [sid, parent, name, start, end, attrs]


def test_self_time_subtracts_union_of_children():
    spans = [
        span(0, None, "fw.solve_fw", 0.0, 10.0),
        span(1, 0, "constraints.lmo", 1.0, 3.0),
        span(2, 0, "constraints.lmo", 2.0, 4.0),  # overlaps its sibling
        span(3, 0, "fw.lipschitz_estimate", 5.0, 6.0),
        span(4, 3, "spectral.power_iteration", 5.2, 5.7),
        span(5, 0, "constraints.round_to_integral", 9.5, 11.0),  # overruns
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
    assert selfs[3] == pytest.approx(0.5)
    assert selfs[4] == pytest.approx(0.5)


def test_busy_time_counts_nested_calls_once():
    spans = [
        span(0, None, "metrics.upper_bound", 0.0, 4.0),
        span(1, 0, "spectral.power_iteration", 0.5, 1.5),
        span(2, 1, "spectral.power_iteration", 0.7, 1.0),
        span(3, 0, "spectral.power_iteration", 2.0, 3.0),
    ]
    summary = tracing.summarize([spans])
    assert summary["spectral.power_iteration"]["s"] == pytest.approx(2.0)
    assert summary["spectral.power_iteration"]["calls"] == 3
    assert summary["spectral"]["s"] == pytest.approx(2.0)
    assert summary["metrics.upper_bound"]["self_s"] == pytest.approx(2.0)
    # Two processes: busy times add, span ids do not collide.
    twice = tracing.summarize([spans, spans])
    assert twice["spectral.power_iteration"]["s"] == pytest.approx(4.0)


def test_layer_that_never_fired_is_missing_not_zero():
    spans = [span(0, None, "fw.solve_fw", 0.0, 1.0, iterations=4,
                  converged=True, csr_bytes=100)]
    metrics, missing = tracing.per_layer_metrics([], [[spans]])
    assert "graph.load_edge_list" in missing
    assert "fw.solve_fw" not in missing
    assert not any(k.startswith("graph.load_edge_list") for k in metrics)
    assert metrics["fw.iterations"]["value"] == 4
    assert metrics["fw.s_per_iter"]["value"] == pytest.approx(0.25)
    assert metrics["fw.matvec_bytes_computed"]["value"] == 400


@pytest.fixture
def tiny():
    cfg = PlantedCliqueConfig(n=120, p=0.05, k=9, r=3, seed=3)
    graph, attr, planted = generate_planted_clique(cfg)
    spec = ConstraintSpec(k=9, mins=(2, 2, 2), attr=attr)
    return workloads.Instance("tiny", spec, graph, planted)


def test_wrappers_patch_every_binding_and_restore(tiny):
    orig = vacdks.constraints.lmo
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert vacdks.fw.lmo is vacdks.constraints.lmo is vacdks.lmo
        assert vacdks.fw.lmo is not orig
        _, sel, trace = vacdks.solve_fw(tiny.graph, tiny.spec)
    finally:
        tracer.uninstall()
    assert vacdks.fw.lmo is orig and vacdks.lmo is orig
    names = [s[2] for s in tracer.spans]
    assert names.count("constraints.lmo") == trace.iterations
    root = next(s for s in tracer.spans if s[2] == "fw.solve_fw")
    assert root[5]["iterations"] == trace.iterations
    rounding = next(s for s in tracer.spans
                    if s[2] == "constraints.round_to_integral")
    assert rounding[1] == root[0] and "transfers" in rounding[5]
    power = next(s for s in tracer.spans if s[2] == "spectral.power_iteration")
    assert power[5]["matvecs"] > 0
    # Traced and untraced runs select the same vertices.
    assert np.array_equal(sel, solve_fw(tiny.graph, tiny.spec)[1])


def _ops(tiny, **overrides):
    peel = greedy_peel(tiny.graph, tiny.spec)
    _, fw_sel, _ = solve_fw(tiny.graph, tiny.spec)
    ops = {
        "peel": {"method": "peel", "vertices": peel.tolist()},
        "fw": {"method": "fw", "vertices": fw_sel.tolist()},
        "fw+peel": {"method": "fw+peel", "vertices": fw_sel.tolist()},
        "bound": {"method": "bound", "bound": 1.0},
    }
    for method, change in overrides.items():
        ops[method].update(change)
    return [dict(op, error=op.get("error")) for op in ops.values()]


def test_checks_pass_on_correct_outputs(tiny):
    checked = workloads.check_instance(tiny, _ops(tiny))
    assert not any(op["failed"] for op in checked)
    fw = next(op for op in checked if op["method"] == "fw")
    assert fw["recovered"] == (set(fw["vertices"]) == set(tiny.planted.tolist()))


def test_checks_flag_each_failure(tiny):
    peel = greedy_peel(tiny.graph, tiny.spec).tolist()
    too_few = peel[:-1]
    lone_group = [int(v) for v in tiny.spec.attr.groups[0][:tiny.spec.k]]
    # Any feasible set lighter than the peel result.
    light = None
    rng = np.random.default_rng(0)
    while light is None:
        cand = [int(v) for g in tiny.spec.attr.groups
                for v in rng.choice(g, 3, replace=False)]
        if vacdks.induced_weight(tiny.graph, cand) < \
                vacdks.induced_weight(tiny.graph, peel):
            light = cand
    cases = {
        "fw": {"vertices": too_few},
        "peel": {"error": "RuntimeError: boom"},
        "bound": {"bound": 0.01},
    }
    checked = workloads.check_instance(tiny, _ops(tiny, **cases))
    by = {op["method"]: op for op in checked}
    assert by["fw"]["failed"] and "infeasible" in by["fw"]["error"]
    assert by["peel"]["failed"] and by["peel"]["error"] == "RuntimeError: boom"
    assert by["bound"]["failed"] and "below achieved" in by["bound"]["error"]
    assert not by["fw+peel"]["failed"]

    checked = workloads.check_instance(
        tiny, _ops(tiny, **{"fw+peel": {"vertices": light},
                            "fw": {"vertices": lone_group}}))
    by = {op["method"]: op for op in checked}
    assert by["fw+peel"]["failed"] and "< peel" in by["fw+peel"]["error"]
    assert by["fw"]["failed"]  # group minimums violated


def test_checker_adds_untimed_references_for_the_cli_solve(tiny, tmp_path):
    (tmp_path / "instances").mkdir()
    workloads.save_instance(tmp_path / "instances" / "tiny.npz", tiny.graph,
                            tiny.spec, tiny.planted)
    peel = greedy_peel(tiny.graph, tiny.spec).tolist()
    ops = {"tiny": [{"method": "cli:fw+peel", "vertices": peel, "error": None,
                     "pass": p} for p in (0, 1)]}
    (tmp_path / "ops.json").write_text(json.dumps(ops))
    assert worker.main(["check", "--dir", str(tmp_path), "--ops",
                        str(tmp_path / "ops.json"),
                        "--out", str(tmp_path / "out.json")]) == 0
    checked = json.loads((tmp_path / "out.json").read_text())["tiny"]
    refs = [op for op in checked if op["pass"] is None]
    assert sorted(op["method"] for op in refs) == ["bound", "peel"]
    assert [op["pass"] for op in checked if op["pass"] is not None] == [0, 1]
    assert not any(op["failed"] for op in checked)


def test_child_failures_are_failed_operations(tmp_path):
    ok = run.Child([sys.executable, "-c", "print('hi')"], None, 30,
                   tmp_path / "ok")
    assert ok.ok and ok.stdout.strip() == "hi" and ok.peak_rss_mb > 0
    slow = run.Child([sys.executable, "-c", "import time; time.sleep(30)"],
                     None, 0.5, tmp_path / "slow")
    assert slow.timed_out and not slow.ok and slow.wall_s < 10
    assert run.cli_op(slow)["error"] == "timed out"
    bad = run.Child([sys.executable, "-c", "raise SystemExit(2)"], None, 30,
                    tmp_path / "bad")
    assert bad.exit_code == 2 and "exit 2" in run.cli_op(bad)["error"]
    garbled = run.Child([sys.executable, "-c", "print('{}')"], None, 30,
                        tmp_path / "garbled")
    assert "unreadable" in run.cli_op(garbled)["error"]
