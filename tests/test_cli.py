import csv
import json
import os
import subprocess
import sys
import threading
import time
import weakref

import pytest
from hypothesis import HealthCheck, given, settings

from vacdks import (
    AttributeAssignment,
    ConstraintSpec,
    FwConfig,
    cli,
    graph,
    induced_weight,
    is_feasible_binary,
    load_edge_list,
    metrics,
    normalized_edge_weight,
)
from vacdks.cli import main

from conftest import small_instances


@pytest.fixture
def instance_dir(tmp_path):
    out = tmp_path / "inst"
    rc = main(["generate", "--n", "200", "--p", "0.05", "--k", "9",
               "--r", "3", "--seed", "3", "--out", str(out)])
    assert rc == 0
    return out


# Solver flag values FwConfig rejects; each must exit 1 before any solve.
BAD_SOLVER_FLAGS = [
    ("--lambda", "-1"),
    ("--lambda", "nan"),
    ("--lambda", "inf"),
    ("--max-iters", "0"),
    ("--gap-tol", "0"),
    ("--gap-tol", "nan"),
]


# The keys of a solve record, in order; later keys may only be appended.
RECORD_KEYS = ["method", "instance", "k", "mins", "seed", "vertices",
               "objective", "normalized", "group_counts", "group_proportions",
               "recovery", "iterations", "wall_seconds"]


def solve_args(inst, method, *extra):
    return ["solve", method, "--edges", str(inst / "edges.tsv"),
            "--attrs", str(inst / "attrs.tsv"), "--k", "9",
            "--min-all", "3", *extra]


def test_import_leaves_out_heavy_scipy_modules():
    """scipy.linalg and scipy.sparse.linalg cost ~7 and ~10 MB of RSS."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, vacdks.cli; print(sorted(m for m in "
            "('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestGenerate:
    def test_writes_expected_files(self, instance_dir):
        for name in ("edges.tsv", "attrs.tsv", "planted.txt", "manifest.json"):
            assert (instance_dir / name).exists()
        manifest = json.loads((instance_dir / "manifest.json").read_text())
        assert manifest["n"] == 200 and manifest["k"] == 9

    def test_identical_seeds_identical_files(self, tmp_path):
        for sub in ("a", "b"):
            main(["generate", "--n", "100", "--p", "0.1", "--k", "6",
                  "--r", "2", "--seed", "7", "--out", str(tmp_path / sub)])
        for name in ("edges.tsv", "attrs.tsv", "planted.txt"):
            assert ((tmp_path / "a" / name).read_text()
                    == (tmp_path / "b" / name).read_text())

    def test_invalid_parameters_exit_1(self, tmp_path):
        rc = main(["generate", "--n", "10", "--p", "0.5", "--k", "7",
                   "--r", "2", "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_negative_seed_exit_1(self, tmp_path, capsys):
        rc = main(["generate", "--n", "10", "--p", "0.5", "--k", "4",
                   "--r", "2", "--seed", "-1", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "seed=-1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestSolve:
    @pytest.mark.parametrize("method", ["fw", "peel", "lrbo", "fw+peel"])
    def test_methods_recover_planted(self, instance_dir, method, capsys,
                                     tmp_path):
        out = tmp_path / f"{method}.json"
        rc = main(solve_args(instance_dir, method,
                             "--planted", str(instance_dir / "planted.txt"),
                             "--out", str(out)))
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["method"] == method
        assert len(record["vertices"]) == 9
        assert record["group_counts"] == [3, 3, 3]
        assert record["recovery"] in (True, False)
        assert record["normalized"] <= 1.0 + 1e-9
        printed = json.loads(capsys.readouterr().out.strip())
        assert printed["vertices"] == record["vertices"]

    def test_deterministic_output(self, instance_dir, capsys):
        outs = []
        for _ in range(2):
            assert main(solve_args(instance_dir, "fw")) == 0
            rec = json.loads(capsys.readouterr().out.strip())
            del rec["wall_seconds"]
            outs.append(rec)
        assert outs[0] == outs[1]

    def test_min_flags_repeatable(self, instance_dir, capsys):
        rc = main(solve_args(instance_dir, "peel")[:-2]
                  + ["--min", "1", "--min", "2", "--min", "3"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["mins"] == [1, 2, 3]
        counts = rec["group_counts"]
        assert counts[0] >= 1 and counts[1] >= 2 and counts[2] >= 3

    def test_conflicting_min_flags_exit_1(self, instance_dir, capsys):
        rc = main(solve_args(instance_dir, "peel", "--min", "1", "--min", "1",
                             "--min", "1"))
        assert rc == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_wrong_min_count_exit_1(self, instance_dir, capsys):
        rc = main(solve_args(instance_dir, "peel")[:-2] + ["--min", "1"])
        assert rc == 1

    def test_infeasible_k_exit_2(self, instance_dir):
        args = solve_args(instance_dir, "peel")
        args[args.index("--k") + 1] = "500"
        assert main(args) == 2

    def test_missing_file_exit_2(self, tmp_path):
        rc = main(["solve", "peel", "--edges", str(tmp_path / "no.tsv"),
                   "--attrs", str(tmp_path / "no2.tsv"), "--k", "3"])
        assert rc == 2

    def test_unknown_method_exit_1(self, instance_dir):
        with pytest.raises(SystemExit) as exc:
            main(solve_args(instance_dir, "magic"))
        assert exc.value.code == 1

    def test_non_utf8_attrs_exit_2(self, instance_dir, tmp_path, capsys):
        bad = tmp_path / "attrs.tsv"
        bad.write_bytes((instance_dir / "attrs.tsv").read_bytes() + b"\xff\n")
        args = solve_args(instance_dir, "peel")
        args[args.index("--attrs") + 1] = str(bad)
        assert main(args) == 2
        assert (f"vacdks: GraphFormatError: {bad}: not UTF-8 text"
                in capsys.readouterr().err)

    def test_non_utf8_planted_exit_2(self, instance_dir, tmp_path, capsys):
        bad = tmp_path / "planted.txt"
        bad.write_bytes(b"0 1\n\xff\n")
        assert main(solve_args(instance_dir, "peel", "--planted",
                               str(bad))) == 2
        assert (f"vacdks: GraphFormatError: {bad}: not UTF-8 text"
                in capsys.readouterr().err)

    def test_non_integer_planted_exit_2(self, instance_dir, tmp_path, capsys):
        bad = tmp_path / "planted.txt"
        bad.write_text("0 1\n2.5\n", encoding="utf-8")
        assert main(solve_args(instance_dir, "peel", "--planted",
                               str(bad))) == 2
        err = capsys.readouterr().err
        assert f"vacdks: GraphFormatError: {bad}: " in err
        assert "'2.5'" in err

    @pytest.mark.parametrize("kind", ["negative", "repeated"])
    def test_bad_planted_id_exit_2(self, instance_dir, tmp_path, capsys,
                                   monkeypatch, kind):
        """Checked where the file is read, before the instance is."""
        planted = (instance_dir / "planted.txt").read_text().split()
        extra = "-1" if kind == "negative" else planted[0]
        bad = tmp_path / "planted.txt"
        bad.write_text("\n".join(planted + [extra]) + "\n", encoding="utf-8")

        def no_load(*args, **kwargs):
            raise AssertionError("the instance was read")

        monkeypatch.setattr(cli, "load_edge_list", no_load)
        assert main(solve_args(instance_dir, "peel", "--planted",
                               str(bad))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"vacdks: GraphFormatError: {bad}: {kind} vertex id {extra}\n")

    def test_planted_id_out_of_range_exit_2(self, instance_dir, tmp_path,
                                            capsys, monkeypatch):
        """An id the instance does not have is no failed recovery."""
        planted = (instance_dir / "planted.txt").read_text().split()
        bad = tmp_path / "planted.txt"
        bad.write_text("\n".join(planted[:-1] + ["200"]) + "\n",
                       encoding="utf-8")

        def no_run(*args):
            raise AssertionError("a solver ran")

        monkeypatch.setattr(cli, "_run_method", no_run)
        assert main(solve_args(instance_dir, "peel", "--planted",
                               str(bad))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"vacdks: GraphFormatError: {bad}: "
                                "vertex id 200 out of range [0, 200)\n")

    def test_planted_id_checked_before_the_edge_list(
            self, instance_dir, tmp_path, capsys, monkeypatch):
        """The attributes fix n, so the edge list is never read."""
        planted = (instance_dir / "planted.txt").read_text().split()
        bad = tmp_path / "planted.txt"
        bad.write_text("\n".join(["200"] + planted) + "\n", encoding="utf-8")

        def no_load(*args, **kwargs):
            raise AssertionError("the edge list was read")

        monkeypatch.setattr(cli, "load_edge_list", no_load)
        assert main(solve_args(instance_dir, "peel", "--planted",
                               str(bad))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"vacdks: GraphFormatError: {bad}: "
                                "vertex id 200 out of range [0, 200)\n")

    @pytest.mark.parametrize("command", ["solve", "bound"])
    def test_failed_out_write_prints_nothing(self, instance_dir, tmp_path,
                                             capsys, command):
        args = solve_args(instance_dir, "peel", "--out",
                          str(tmp_path / "missing-dir" / "out.json"))
        if command == "bound":
            args = ["bound"] + args[2:]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "FileNotFoundError" in captured.err

    @pytest.mark.parametrize("method", ["fw+peel", "lrbo"])
    def test_record_computes_the_induced_weight_once(self, instance_dir,
                                                     method, capsys,
                                                     monkeypatch):
        calls = []

        def counted(graph, s):
            calls.append(len(s))
            return induced_weight(graph, s)

        monkeypatch.setattr(cli, "induced_weight", counted)
        monkeypatch.setattr(metrics, "induced_weight", counted)
        assert main(solve_args(instance_dir, method)) == 0
        record = json.loads(capsys.readouterr().out)
        assert calls == [9]
        graph = load_edge_list(instance_dir / "edges.tsv")
        assert record["objective"] == induced_weight(graph, record["vertices"])
        assert record["normalized"] == normalized_edge_weight(
            graph, record["vertices"])

    def test_record_keys_in_order(self, instance_dir, capsys):
        assert main(solve_args(instance_dir, "peel")) == 0
        record = json.loads(capsys.readouterr().out)
        assert list(record) == RECORD_KEYS

    @pytest.mark.parametrize("command", [
        ["solve", "fw", "--edges", "e", "--attrs", "a", "--k", "4"],
        ["bench", "--methods", "fw", "--n", "40", "--p", "0.1", "--k", "4",
         "--r", "2", "--seeds", "1", "--out", "x"],
    ], ids=lambda command: command[0])
    def test_solver_flag_defaults_are_the_config_defaults(self, command):
        args = cli.build_parser().parse_args(command)
        assert cli._fw_config(args) == FwConfig()

    @pytest.mark.parametrize("flags", BAD_SOLVER_FLAGS, ids="=".join)
    def test_bad_solver_flags_exit_1(self, instance_dir, flags, capsys):
        rc = main(solve_args(instance_dir, "fw", *flags))
        assert rc == 1
        assert capsys.readouterr().out == ""

    def test_lambda_flag_accepted(self, instance_dir, capsys):
        rc = main(solve_args(instance_dir, "fw", "--lambda", "2.0",
                             "--max-iters", "50", "--gap-tol", "1e-4"))
        assert rc == 0
        assert len(json.loads(capsys.readouterr().out.strip())["vertices"]) == 9


    def test_edge_list_read_once_with_attribute_count(self, tmp_path,
                                                      monkeypatch, capsys):
        # vertices 4 and 5 are isolated: only the attribute file lists them
        (tmp_path / "e.tsv").write_text("0 1 1.0\n1 2 1.0\n0 2 1.0\n2 3 1.0\n")
        (tmp_path / "a.tsv").write_text(
            "# vertex group\n" + "".join(f"{v} {v % 2}\n" for v in range(6)))
        calls = []

        def counting_load(*args, **kwargs):
            calls.append(kwargs.get("n"))
            return load(*args, **kwargs)

        load = cli.load_edge_list
        monkeypatch.setattr(cli, "load_edge_list", counting_load)
        rc = main(["bound", "--edges", str(tmp_path / "e.tsv"),
                   "--attrs", str(tmp_path / "a.tsv"), "--k", "2"])
        assert rc == 0
        assert calls == [6]

    @pytest.mark.parametrize("command", ["solve", "bound"])
    def test_edge_list_beyond_the_labels_exit_2(self, tmp_path, capsys,
                                                command):
        # the attribute file labels vertices 0-3; the edge list names 5
        edges = tmp_path / "e.tsv"
        edges.write_text("0 1 1.0\n1 2 1.0\n2 5 1.0\n")
        attrs = tmp_path / "a.tsv"
        attrs.write_text("".join(f"{v} {v % 2}\n" for v in range(4)))
        args = [command] + (["peel"] if command == "solve" else []) + [
            "--edges", str(edges), "--attrs", str(attrs), "--k", "2"]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"vacdks: GraphFormatError: {edges}:3: vertex id 5 too large "
            "for n=4\n")


class TestBound:
    def test_report_fields(self, instance_dir, capsys):
        rc = main(["bound", "--edges", str(instance_dir / "edges.tsv"),
                   "--attrs", str(instance_dir / "attrs.tsv"),
                   "--k", "9", "--min-all", "3"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out.strip())
        assert 0.0 < rep["bound"] <= 1.0
        assert rep["sigma1"] >= rep["sigma2"] >= 0.0

    def test_degenerate_spectrum_is_valid_json(self, tmp_path, capsys):
        # a 4-cycle is bipartite: sigma_2 = sigma_1 = 2
        (tmp_path / "e.tsv").write_text("0 1 1.0\n1 2 1.0\n2 3 1.0\n0 3 1.0\n")
        (tmp_path / "a.tsv").write_text("".join(f"{v} 0\n" for v in range(4)))
        rc = main(["bound", "--edges", str(tmp_path / "e.tsv"),
                   "--attrs", str(tmp_path / "a.tsv"), "--k", "2"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["degenerate_spectrum"] is True
        assert rep["sigma2"] == pytest.approx(2.0, rel=1e-8)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_attribute_pipe_is_read_once(self, tmp_path, capsys):
        """A pipe can be read only once, as with ``--attrs <(...)``."""
        edges = tmp_path / "e.tsv"
        edges.write_text("0 1 1.0\n1 2 1.0\n0 2 1.0\n2 3 1.0\n")
        text = "".join(f"{v} {v % 2}\n" for v in range(4))
        plain = tmp_path / "a.tsv"
        plain.write_text(text)
        pipe = tmp_path / "a.pipe"
        os.mkfifo(pipe)
        args = ["bound", "--edges", str(edges), "--k", "2", "--attrs"]
        result = {}

        def run():
            result["rc"] = main(args + [str(pipe)])

        reader = threading.Thread(target=run, daemon=True)
        reader.start()
        with open(pipe, "w") as fh:
            fh.write(text)
        reader.join(timeout=30)
        # A loader that reopens the pipe waits for a writer: give it empty ones.
        for _ in range(3):
            if not reader.is_alive():
                break
            open(pipe, "w").close()
            reader.join(timeout=5)
        piped = capsys.readouterr()
        assert result.get("rc") == 0, piped.err
        assert main(args + [str(plain)]) == 0
        assert json.loads(piped.out) == json.loads(capsys.readouterr().out)


class TestRunMethod:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_instances(max_n=8).filter(lambda inst: inst[0].m > 0))
    def test_every_method_is_feasible(self, instance):
        g, spec = instance
        weight = {}
        for method in cli.METHODS:
            sel, _ = cli._run_method(method, g, spec, FwConfig())
            ids = sel.tolist()
            assert ids == sorted(set(ids)), method
            assert is_feasible_binary(spec, sel), method
            weight[method] = induced_weight(g, sel)
        # fw+peel starts FW at peel's set and FW and rounding never lose weight
        assert weight["fw+peel"] >= weight["peel"] * (1.0 - 1e-9)


class TestBench:
    def test_campaign_outputs(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = main(["bench", "--methods", "peel,lrbo", "--n", "120",
                   "--p", "0.05", "--k", "6", "--r", "2", "--seeds", "2",
                   "--min-all", "3", "--out", str(out)])
        assert rc == 0
        with open(out / "runs.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {"peel", "lrbo"}
        summary = json.loads((out / "summary.json").read_text())
        for method in ("peel", "lrbo"):
            s = summary[method]
            assert s["runs"] == 2 and s["failures"] == 0
            assert 0.0 <= s["normalized_mean"] <= 1.0
            assert s["normalized_std"] >= 0.0
            assert not s["std_is_degenerate"]

    def test_single_seed_flags_degenerate_std(self, tmp_path, capsys):
        out = tmp_path / "bench1"
        rc = main(["bench", "--methods", "peel", "--n", "80", "--p", "0.05",
                   "--k", "4", "--r", "2", "--seeds", "1", "--min-all", "2",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["peel"]["std_is_degenerate"]
        assert summary["peel"]["normalized_std"] == 0.0

    def test_k1_campaign_has_null_normalized_summary(self, tmp_path, capsys):
        out = tmp_path / "bench-k1"
        rc = main(["bench", "--methods", "peel", "--n", "20", "--p", "0.3",
                   "--k", "1", "--r", "1", "--seeds", "2", "--out", str(out)])
        assert rc == 0
        s = json.loads((out / "summary.json").read_text())["peel"]
        assert s["runs"] == 2 and s["failures"] == 0
        assert s["normalized_mean"] is None and s["normalized_std"] is None
        assert s["wall_mean"] >= 0.0

    def test_first_seen_groups_keeps_empty_groups_last(self):
        attr = AttributeAssignment.from_labels([2, 0, 2, 1, 0], r=4)
        renumbered = cli._first_seen_groups(attr)
        assert renumbered.r == 4
        assert renumbered.labels.tolist() == [0, 1, 0, 2, 1]
        assert len(renumbered.groups[3]) == 0

    def test_solve_and_bench_records_agree(self, tmp_path, monkeypatch,
                                           capsys):
        """Equal records but for ``instance`` and ``wall_seconds``.

        The generator's labels first appear as 1, 0, and both commands
        number the groups in that first-seen order, so the unequal minimums
        constrain the same groups.
        """
        flags = ["--n", "16", "--p", "0.3", "--k", "4", "--r", "2",
                 "--weighted"]
        mins = ["--min", "1", "--min", "2"]
        inst = tmp_path / "inst"
        assert main(["generate", *flags, "--out", str(inst)]) == 0
        order = list(dict.fromkeys(
            int(line.split()[1])
            for line in (inst / "attrs.tsv").read_text().splitlines()))
        assert order == [1, 0]
        solved = {}
        for method in cli.METHODS:
            capsys.readouterr()
            assert main(["solve", method, "--edges", str(inst / "edges.tsv"),
                         "--attrs", str(inst / "attrs.tsv"), "--k", "4",
                         *mins, "--planted", str(inst / "planted.txt")]) == 0
            solved[method] = json.loads(capsys.readouterr().out)
        benched = []
        summarize = cli._summarize

        def keeping(records):
            benched.extend(records)
            return summarize(records)

        monkeypatch.setattr(cli, "_summarize", keeping)
        assert main(["bench", "--methods", ",".join(cli.METHODS), *flags,
                     *mins, "--seeds", "1",
                     "--out", str(tmp_path / "bench")]) == 0
        assert [rec["method"] for rec in benched] == list(cli.METHODS)
        for rec in benched:
            assert list(rec) == RECORD_KEYS
            drop = ("instance", "wall_seconds")
            assert ({k: v for k, v in rec.items() if k not in drop}
                    == {k: v for k, v in solved[rec["method"]].items()
                        if k not in drop})

    @pytest.mark.parametrize("worker, reason", [
        ("_exit_without_result", "worker exited with code 3 without a result"),
        ("_hang_without_result", "no result within 2 s"),
    ])
    def test_dead_or_hung_worker_is_a_failed_run(self, tmp_path, monkeypatch,
                                                 worker, reason):
        monkeypatch.setattr(cli, "_bench_worker", globals()[worker])
        monkeypatch.setattr(cli, "_BENCH_RUN_TIMEOUT_S", 2.0)
        out = tmp_path / "bench"
        start = time.monotonic()
        rc = main(["bench", "--methods", "peel", "--n", "40", "--p", "0.1",
                   "--k", "4", "--r", "2", "--seeds", "2", "--out", str(out)])
        assert rc == 0
        assert time.monotonic() - start < 60
        with open(out / "runs.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["error"] for r in rows] == [reason, reason]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["peel"]["runs"] == summary["peel"]["failures"] == 2

    def test_timed_run_computes_its_own_eigenpair(self, monkeypatch):
        calls = []
        solve = graph.dominant_eigenpair

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(graph, "dominant_eigenpair", counting)
        generator = dict(n=60, p=0.1, k=6, r=3, weighted=False, seed=0)
        g, attr, planted = graph.generate_planted_clique(
            graph.PlantedCliqueConfig(**generator))
        spec = ConstraintSpec(k=6, mins=(2, 2, 2), attr=attr)
        record = cli._solve_record("fw", g, spec, FwConfig(),
                                   {"generator": generator}, 0, planted)
        # the timed run is the only solve, and it computes the eigenpair
        assert len(calls) == 1
        assert record["iterations"] >= 1

    def test_each_seed_generated_once(self, tmp_path, monkeypatch):
        seeds = []
        generate = cli.generate_planted_clique

        def counting(cfg):
            seeds.append(cfg.seed)
            return generate(cfg)

        monkeypatch.setattr(cli, "generate_planted_clique", counting)
        out = tmp_path / "bench"
        rc = main(["bench", "--methods", "peel,lrbo", "--n", "60",
                   "--p", "0.1", "--k", "4", "--r", "2", "--seeds", "2",
                   "--out", str(out)])
        assert rc == 0
        assert seeds == [0, 1]
        with open(out / "runs.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["method"], r["seed"], r["error"]) for r in rows] == [
            ("peel", "0", ""), ("peel", "1", ""),
            ("lrbo", "0", ""), ("lrbo", "1", "")]

    def test_previous_instance_freed_before_next_generation(self, tmp_path,
                                                            monkeypatch):
        graphs, alive = [], []
        generate = cli.generate_planted_clique

        def tracking(cfg):
            alive.append([ref() is not None for ref in graphs])
            g, attr, planted = generate(cfg)
            graphs.append(weakref.ref(g))
            return g, attr, planted

        def fake_run(ctx, record_args, timeout):
            method, _, _, _, _, seed, _ = record_args
            return "ok", {"method": method, "seed": seed,
                          "normalized": 1.0, "wall_seconds": 0.0}

        monkeypatch.setattr(cli, "generate_planted_clique", tracking)
        monkeypatch.setattr(cli, "_run_isolated", fake_run)
        rc = main(["bench", "--methods", "peel,lrbo", "--n", "60",
                   "--p", "0.1", "--k", "4", "--r", "2", "--seeds", "3",
                   "--out", str(tmp_path / "bench")])
        assert rc == 0
        assert alive == [[], [False], [False, False]]

    def test_seed_that_cannot_be_generated_fails_its_runs(self, tmp_path):
        # n=8, k=6, r=3: seed 0 leaves group 2 one vertex short, seed 1 is fine
        with pytest.raises(ValueError) as exc:
            graph.generate_planted_clique(graph.PlantedCliqueConfig(
                n=8, p=0.3, k=6, r=3, seed=0))
        message = f"ValueError: {exc.value}"
        out = tmp_path / "bench"
        rc = main(["bench", "--methods", "peel,fw", "--n", "8", "--p", "0.3",
                   "--k", "6", "--r", "3", "--seeds", "2", "--min-all", "2",
                   "--out", str(out)])
        assert rc == 0
        with open(out / "runs.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["method"], r["seed"], r["error"]) for r in rows] == [
            ("peel", "0", message), ("peel", "1", ""),
            ("fw", "0", message), ("fw", "1", "")]
        assert rows[1]["recovery"] == rows[3]["recovery"] == "True"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fw"]["failures"] == summary["peel"]["failures"] == 1

    def test_unknown_method_exit_1(self, tmp_path):
        rc = main(["bench", "--methods", "nope", "--n", "40", "--p", "0.1",
                   "--k", "4", "--r", "2", "--seeds", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_repeated_method_exit_1(self, tmp_path, capsys):
        rc = main(["bench", "--methods", "peel,fw, peel", "--n", "40",
                   "--p", "0.1", "--k", "4", "--r", "2", "--seeds", "2",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "'peel' is named twice" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("methods", ["", ",", " , "])
    def test_no_method_exit_1(self, tmp_path, capsys, methods):
        rc = main(["bench", "--methods", methods, "--n", "40", "--p", "0.1",
                   "--k", "4", "--r", "2", "--seeds", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "--methods" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seeds_below_one_exit_1(self, tmp_path, capsys, seeds):
        rc = main(["bench", "--methods", "fw", "--n", "40", "--p", "0.1",
                   "--k", "4", "--r", "2", "--seeds", seeds,
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "--seeds" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flags", BAD_SOLVER_FLAGS, ids="=".join)
    def test_bad_solver_flags_exit_1(self, tmp_path, monkeypatch, flags):
        def no_run(*args):
            raise AssertionError("a run was started")

        monkeypatch.setattr(cli, "_run_isolated", no_run)
        rc = main(["bench", "--methods", "fw", "--n", "40", "--p", "0.1",
                   "--k", "4", "--r", "2", "--seeds", "1",
                   "--out", str(tmp_path / "x"), *flags])
        assert rc == 1


# Bench workers for the spawn context: module-level so the child can import them.
def _exit_without_result(conn, *record_args):
    os._exit(3)


def _hang_without_result(conn, *record_args):
    time.sleep(120)
