import csv
import json
import os
import threading
import time

import pytest

from vacdks import FwConfig, cli, graph
from vacdks.cli import main


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


def solve_args(inst, method, *extra):
    return ["solve", method, "--edges", str(inst / "edges.tsv"),
            "--attrs", str(inst / "attrs.tsv"), "--k", "9",
            "--min-all", "3", *extra]


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


class TestBound:
    def test_report_fields(self, instance_dir, capsys):
        rc = main(["bound", "--edges", str(instance_dir / "edges.tsv"),
                   "--attrs", str(instance_dir / "attrs.tsv"),
                   "--k", "9", "--min-all", "3"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out.strip())
        assert 0.0 < rep["bound"] <= 1.0
        assert rep["sigma1"] >= rep["sigma2"] >= 0.0

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
        payload = {"method": "fw", "k": 6, "mins": [2, 2, 2],
                   "generator": dict(n=60, p=0.1, k=6, r=3, weighted=False,
                                     seed=0),
                   "fw_cfg": FwConfig()}
        record = cli._bench_run(payload)
        # one eigen-solve in the warm-up, one in the timed run
        assert len(calls) == 2
        assert record["iterations"] >= 1

    def test_unknown_method_exit_1(self, tmp_path):
        rc = main(["bench", "--methods", "nope", "--n", "40", "--p", "0.1",
                   "--k", "4", "--r", "2", "--seeds", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == 1

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
def _exit_without_result(payload, conn):
    os._exit(3)


def _hang_without_result(payload, conn):
    time.sleep(120)
