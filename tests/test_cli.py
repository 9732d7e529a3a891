import argparse
import importlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from dataclasses import replace

import numpy as np
import pytest

from spectral_cliques import (build_graph, complete_graph, emit_graph6, graph_from_edge_mask,
                              screen, stability, turan_graph)
from spectral_cliques.bounds import DEFAULT_TOLS
from spectral_cliques.cli import EXIT_INTERNAL, _build_parser, main
from spectral_cliques.scan import (CHECKS, CheckOutcome, CorpusSpec, ScanConfig, ScanResult,
                                   scan)

from oracles import reference_scan


def run_cli(*args, cwd=None, env_extra=None, timeout=None):
    env = dict(os.environ, **env_extra) if env_extra else None
    proc = subprocess.run([sys.executable, "-m", "spectral_cliques", *args],
                          capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=timeout)
    return proc


def _corpus_with_bad_line(tmp_path):
    """A graph6 file whose line 103 is truncated; it lies past the first
    chunk, of 64 lines of order 64, so a two-worker scan parses it in a
    worker."""
    corpus = tmp_path / "c.g6"
    good = emit_graph6(turan_graph(2, 64))
    corpus.write_text("# corpus\n\n" + f"{good}\n" * 100 + "C\n" + f"{good}\n")
    return corpus, f"{corpus}, line 103: truncated graph6 bit payload"


class TestGen:
    def test_turan_roundtrip(self, tmp_path):
        out = tmp_path / "t.g6"
        proc = run_cli("gen", "turan", "--r", "3", "--n", "6", "--out", str(out))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["count"] == 1
        assert out.read_text().strip() == emit_graph6(turan_graph(3, 6))

    def test_random_reproducible(self, tmp_path):
        a, b = tmp_path / "a.g6", tmp_path / "b.g6"
        args = ["gen", "random", "--n", "6", "--p", "0.5", "--count", "10",
                "--seed", "1"]
        assert run_cli(*args, "--out", str(a)).returncode == 0
        assert run_cli(*args, "--out", str(b)).returncode == 0
        assert a.read_text() == b.read_text()
        assert len(a.read_text().splitlines()) == 10

    def test_bad_params_exit_2(self, tmp_path):
        proc = run_cli("gen", "turan", "--r", "5", "--n", "3",
                       "--out", str(tmp_path / "x.g6"))
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_unwritable_out_exit_3(self):
        proc = run_cli("gen", "named", "--name", "petersen",
                       "--out", "/nonexistent-dir/x.g6")
        assert proc.returncode == 3
        assert "error" in json.loads(proc.stdout)

    def test_named(self, tmp_path):
        out = tmp_path / "p.g6"
        assert run_cli("gen", "named", "--name", "c5", "--out", str(out)).returncode == 0

    def test_vertex_cap_env_override(self, tmp_path):
        out = tmp_path / "big.g6"
        args = ("gen", "turan", "--r", "2", "--n", "80", "--out", str(out))
        assert run_cli(*args).returncode == 2  # over the default cap of 64
        proc = run_cli(*args, env_extra={"SCL_MAX_N": "100"})
        assert proc.returncode == 0
        check = run_cli("check", "--file", str(out), "--theorem", "maxmu1",
                        env_extra={"SCL_MAX_N": "100"})
        assert check.returncode == 0
        assert json.loads(check.stdout)[0]["status"] == "equality"

    def test_gen_piped_to_check(self, tmp_path):
        for kind, extra in [
            ("turan", ["--r", "2", "--n", "6"]),
            ("multipartite", ["--parts", "2,2", "--isolated", "1"]),
            ("random", ["--n", "5", "--p", "0.3", "--seed", "3"]),
            ("named", ["--name", "petersen"]),
        ]:
            out = tmp_path / f"{kind}.g6"
            assert run_cli("gen", kind, *extra, "--out", str(out)).returncode == 0
            proc = run_cli("check", "--file", str(out), "--theorem", "wilf")
            assert proc.returncode == 0, proc.stderr


class TestCheck:
    def test_polyn_equality_k3(self):
        proc = run_cli("check", "--g6", "Bw", "--theorem", "polyn")
        assert proc.returncode == 0
        entries = json.loads(proc.stdout)
        assert len(entries) == 1
        assert entries[0]["status"] == "equality"

    def test_theorem1_k3(self):
        proc = run_cli("check", "--g6", "Bw", "--theorem", "theorem1", "--r", "2")
        assert proc.returncode == 0
        entry = json.loads(proc.stdout)[0]
        assert entry["lhs"] == pytest.approx(8.0, abs=1e-8)
        assert entry["rhs"] == pytest.approx(9.0, abs=1e-8)

    def test_malformed_exit_2(self):
        proc = run_cli("check", "--g6", "###", "--theorem", "wilf")
        assert proc.returncode == 2

    def test_malformed_file_line_named(self, tmp_path):
        corpus, message = _corpus_with_bad_line(tmp_path)
        proc = run_cli("check", "--file", str(corpus), "--theorem", "wilf")
        assert proc.returncode == 2
        assert message in proc.stderr

    def test_k40_polyn_and_oldin(self):
        g6 = emit_graph6(complete_graph(40))
        proc = run_cli("check", "--g6", g6, "--theorem", "polyn",
                       "--theorem", "oldin", timeout=120)
        assert proc.returncode == 0, proc.stderr
        entries = json.loads(proc.stdout)
        assert {e["check"] for e in entries} == {"polyn", "oldin"}

    def test_momo_detail(self):
        proc = run_cli("check", "--g6", "Bw", "--theorem", "momo")
        entry = json.loads(proc.stdout)[0]
        assert entry["detail"]["monotone"] is True

    def test_multiple_checks(self):
        proc = run_cli("check", "--g6", "Bw", "--theorem", "wilf",
                       "--theorem", "maxmu", "--s", "1,2")
        entries = json.loads(proc.stdout)
        assert [e["check"] for e in entries] == ["wilf", "maxmu", "maxmu"]

    def test_global_tol_scales_epsilons(self):
        from spectral_cliques import cycle_graph
        g6 = emit_graph6(cycle_graph(5))
        strict = json.loads(run_cli("check", "--g6", g6, "--theorem", "wilf").stdout)
        sloppy = json.loads(run_cli("--tol", "1000000", "check", "--g6", g6,
                                    "--theorem", "wilf").stdout)
        # slack 0.5 on scale 2.5: within the inflated equality band only
        assert strict[0]["status"] == "holds"
        assert sloppy[0]["status"] == "equality"

    def test_walk_overflow_reports_ood_exit_0(self):
        g6 = emit_graph6(complete_graph(12))
        proc = run_cli("check", "--g6", g6, "--theorem", "maxmu", "--s", "40")
        assert proc.returncode == 0, proc.stderr
        [entry] = json.loads(proc.stdout)
        assert entry["status"] == "ood"


class TestOverflowIsOod:
    """An evaluation whose floating-point side or walk counts overflow is
    one ``ood`` outcome, and the command exits 0."""

    @pytest.mark.parametrize("name,args", [
        ("k64", ("--check", "maxmu", "--s", "172")),
        ("k64", ("--check", "theorem1", "--r", "171")),
        ("c5", ("--check", "maxmu", "--s", "1024"))])
    def test_check(self, name, args, tmp_path, capsys):
        path = tmp_path / f"{name}.g6"
        assert main(["gen", "named", "--name", name, "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["check", "--file", str(path), *args]) == 0
        out = capsys.readouterr().out
        assert out.count('"status":"ood"') == len(json.loads(out)) == 1

    def test_scan(self, capsys):
        assert main(["scan", "--exhaustive-n", "4", "--check", "maxmu", "--s", "2000"]) == 0
        got = json.loads(capsys.readouterr().out)
        del got["timing_s"]
        assert got["out_of_domain"] == 54
        lines = [emit_graph6(graph_from_edge_mask(4, mask)) for mask in range(64)]
        assert got == reference_scan(lines, {"maxmu": {"s": [2000]}}, 10, 1.0)


def test_walk_counts_that_stop_changing_serve_any_length(tmp_path, capsys):
    # a perfect matching: every walk count is 1 from length 1 on
    path = tmp_path / "matching.g6"
    path.write_text(emit_graph6(build_graph(6, [(0, 1), (2, 3), (4, 5)])) + "\n")
    outs = []
    for s in ("1000000", "1000000000"):
        start = time.perf_counter()
        assert main(["scan", "--file", str(path), "--check", "maxmu", "--s", s]) == 0
        assert time.perf_counter() - start < 1.0
        outs.append(capsys.readouterr().out.replace(s, "S"))
    assert outs[0] == outs[1]
    assert '"rhs":3.0' in outs[0]


class TestScanCli:
    def test_exhaustive_n5(self):
        proc = run_cli("scan", "--exhaustive-n", "5", "--check", "theorem1",
                       "--r", "2..3")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["graphs_checked"] == 1024
        assert payload["violations"] == []
        assert payload["timing_s"] is None

    def test_byte_identical_across_jobs(self):
        args = ["scan", "--exhaustive-n", "5", "--check", "polyn",
                "--check", "momo", "--top-k", "5"]
        out1 = run_cli("--jobs", "1", *args)
        out2 = run_cli("--jobs", "2", *args)
        assert out1.returncode == out2.returncode == 0
        assert out1.stdout == out2.stdout

    def test_filter_kfree_conjecture(self):
        proc = run_cli("scan", "--exhaustive-n", "5", "--check", "conjecture",
                       "--r", "2", "--filter", "kfree")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["violations"] == []

    def test_file_scan_momo(self, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text("\n".join(emit_graph6(turan_graph(r, 6))
                                    for r in (2, 3)) + "\n")
        proc = run_cli("scan", "--file", str(corpus), "--check", "momo")
        assert proc.returncode == 0

    def test_out_and_csv(self, tmp_path):
        out = tmp_path / "res.json"
        csv_path = tmp_path / "res.csv"
        proc = run_cli("scan", "--exhaustive-n", "4", "--check", "wilf",
                       "--out", str(out), "--csv", str(csv_path))
        assert proc.returncode == 0
        saved = json.loads(out.read_text())
        assert saved["graphs_checked"] == 64
        assert saved["timing_s"] > 0
        header = csv_path.read_text().splitlines()[0]
        assert header == "kind,graph6,check,params,lhs,rhs,slack"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_malformed_file_line_named(self, tmp_path, jobs):
        corpus, message = _corpus_with_bad_line(tmp_path)
        proc = run_cli("--jobs", jobs, "scan", "--file", str(corpus),
                       "--check", "maxmu1")
        assert proc.returncode == 2
        assert message in proc.stderr

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_earliest_malformed_line_wins(self, tmp_path, jobs):
        # lines 3 and 150 fall in chunks 0 and 2 of 64 lines of order 64
        corpus = tmp_path / "c.g6"
        good = emit_graph6(turan_graph(2, 64))
        lines = [good] * 200
        lines[2] = lines[149] = "C"
        corpus.write_text("\n".join(lines) + "\n")
        proc = run_cli("--jobs", jobs, "scan", "--file", str(corpus),
                       "--check", "maxmu1", timeout=300)
        assert proc.returncode == 2
        assert f"{corpus}, line 3:" in proc.stderr
        assert "line 150" not in proc.stderr

    def test_missing_file_exit_3(self):
        proc = run_cli("scan", "--file", "/no/such/file.g6", "--check", "wilf")
        assert proc.returncode == 3

    def test_usage_error_exit_2(self):
        proc = run_cli("scan", "--exhaustive-n", "5")
        assert proc.returncode == 2

    @pytest.mark.parametrize("bad", ["bogus", "kfree:x", "kfree:0"])
    def test_bad_filter_exit_2_on_empty_corpus(self, tmp_path, bad):
        corpus = tmp_path / "empty.g6"
        corpus.write_text("")
        assert main(["scan", "--file", str(corpus), "--check", "wilf",
                     "--filter", bad]) == 2


class TestWitnessCli:
    def test_t36_witnessed(self):
        g6 = emit_graph6(turan_graph(3, 6))
        proc = run_cli("witness", "--g6", g6, "--r", "3", "--alpha", "0.0000013")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["verdict"] == "witnessed"
        assert payload["witness"]["order"] == 6

    def test_c5_premise_failed_exit_0(self):
        from spectral_cliques import cycle_graph
        g6 = emit_graph6(cycle_graph(5))
        proc = run_cli("witness", "--g6", g6, "--r", "2", "--alpha", "0.00001")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "premise-failed"

    def test_eigensolver_failure_reports_ood_exit_0(self, monkeypatch, capsys):
        def failing(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        assert main(["witness", "--g6", "C]", "--r", "2", "--alpha", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "ood"
        assert payload["premise_ok"] is False
        assert payload["witness"] is None

    def test_t218_prints_no_search_mode(self):
        g6 = emit_graph6(turan_graph(2, 18))
        assert g6 == "Q??????~~~^{~w~w^{F~?~wB~_?"
        proc = run_cli("witness", "--g6", g6, "--r", "2", "--alpha", "0")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert "search_mode" not in payload
        assert (payload["verdict"], payload["witness"]["order"]) == ("witnessed", 18)

    def test_mode_option_refused(self):
        g6 = emit_graph6(turan_graph(2, 16))
        proc = run_cli("witness", "--g6", g6, "--r", "2", "--alpha", "0",
                       "--mode", "exhaustive")
        assert proc.returncode == 2
        assert "--mode" in proc.stderr

    def test_miss_above_the_default_cap_is_inconclusive(self, monkeypatch, capsys):
        # No host above the cap meets the premise without a witness, so the
        # premise is forced; only the whole C5 blow-up is tried, and it is
        # not bipartite.
        monkeypatch.setenv("SCL_MAX_N", "80")
        monkeypatch.setattr(stability, "stability_premise", lambda *args: True)
        g6 = emit_graph6(build_graph(80, [(u, v) for i in range(5)
                                          for u in range(16 * i, 16 * i + 16)
                                          for v in range(16 * (i + 1) % 80,
                                                         16 * (i + 1) % 80 + 16)]))
        start = time.perf_counter()
        assert main(["--tol", "1000000", "witness", "--g6", g6, "--r", "2",
                     "--alpha", "0.00001"]) == 0
        assert time.perf_counter() - start < 1.0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["verdict"], payload["witness"]) == ("inconclusive", None)

    def test_t28_alpha_zero_boundary(self):
        g6 = emit_graph6(turan_graph(2, 8))
        proc = run_cli("witness", "--g6", g6, "--r", "2", "--alpha", "0")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["boundary"] is True
        assert payload["verdict"] == "witnessed"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_negative_random_count_exit_2(jobs, capsys):
    assert main(["--jobs", jobs, "scan", "--random-n", "5", "--random-p", "0.5",
                 "--random-count", "-3", "--random-seed", "1", "--check", "wilf"]) == 2
    assert "error: random corpus count must be >= 0" in capsys.readouterr().err


class TestCorpusRefused:
    """An exhaustive order above the vertex cap, and a random order or
    edge probability out of range, are refused before any graph is
    scanned, whatever the random count; the library raises ValueError."""

    CASES = {
        "exhaustive-over-cap": (["--exhaustive-n", "6"], "5", "vertex count 6 outside 1..5"),
        "random-n": (["--random-n", "99"], "64", "vertex count 99 outside 1..64"),
        "random-p": (["--random-n", "11", "--random-p", "5"], "64",
                     "edge probability 5.0 outside [0, 1]"),
    }

    @pytest.mark.parametrize("count", ["0", "1"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cli_exits_2(self, case, count, monkeypatch, capsys):
        corpus, cap, message = self.CASES[case]
        monkeypatch.setenv("SCL_MAX_N", cap)
        assert main(["scan", *corpus, "--random-count", count, "--check", "wilf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err

    @pytest.mark.parametrize("corpus", [
        CorpusSpec(kind="exhaustive", n=6),
        CorpusSpec(kind="random", n=99, p=0.5, count=0, seed=0),
        CorpusSpec(kind="random", n=11, p=5.0, count=0, seed=0),
        CorpusSpec(kind="random", n=6, p=float("nan"), count=0, seed=0)])
    def test_library_raises(self, corpus, monkeypatch):
        monkeypatch.setenv("SCL_MAX_N", "5" if corpus.kind == "exhaustive" else "64")
        with pytest.raises(ValueError, match="outside"):
            scan(corpus, ScanConfig(checks={"wilf": {}}))


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exit_2(jobs, capsys):
    assert main(["--jobs", jobs, "scan", "--exhaustive-n", "4", "--check", "wilf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: --jobs must be >= 1, got {jobs}" in captured.err


class TestRBelowTwo:
    """r < 2 is a usage error (exit 2), checked before any division by r."""

    def test_witness(self, capsys):
        assert main(["witness", "--g6", "Bw", "--r", "0", "--alpha", "0"]) == 2
        assert "error: r must be >= 2" in capsys.readouterr().err

    def test_scan_stability(self, tmp_path, capsys):
        corpus = tmp_path / "x.g6"
        corpus.write_text("Bw\n")
        assert main(["scan", "--file", str(corpus), "--check", "stability",
                     "--r", "0"]) == 2
        assert "error: r must be >= 2" in capsys.readouterr().err


class TestStabilityAlphaRefused:
    """A negative or non-finite stability alpha is a usage error (exit 2)
    everywhere, as a negative alpha already is for edge_corollary."""

    @pytest.mark.parametrize("alpha", ["-1", "nan", "inf"])
    def test_witness(self, alpha, capsys):
        assert main(["witness", "--g6", "Bw", "--r", "2", "--alpha", alpha]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: alpha must be finite and >= 0" in captured.err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_scan(self, jobs, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "x.g6"
        # chunks of 512 lines of order 3: line 513 lies past the first chunk,
        # so two workers meet the refusal in a worker
        monkeypatch.setattr(importlib.import_module("spectral_cliques.scan"),
                            "_CHUNK_ENTRIES", 9 * 512)
        corpus.write_text("Bw\n" * 513)
        assert main(["--jobs", jobs, "scan", "--file", str(corpus), "--check",
                     "stability", "--alpha", "-0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: alpha must be finite and >= 0" in captured.err

    def test_scan_exhaustive_nan(self, capsys):
        assert main(["scan", "--exhaustive-n", "4", "--check", "stability",
                     "--r", "3", "--alpha", "nan"]) == 2
        assert "error: alpha must be finite and >= 0" in capsys.readouterr().err


class TestTheorem3RBelowOne:
    """theorem3 needs r >= 1; a smaller r is a usage error, not an empty
    s range."""

    def test_check(self, capsys):
        assert main(["check", "--g6", "Bw", "--theorem", "theorem3", "--r", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: r must be >= 1" in captured.err

    def test_scan(self, tmp_path, capsys):
        corpus = tmp_path / "x.g6"
        corpus.write_text("Bw\n")
        assert main(["scan", "--file", str(corpus), "--check", "theorem3",
                     "--r", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: r must be >= 1" in captured.err


class TestTolRefused:
    """A negative or non-finite --tol, or a --jobs below 1, is a usage
    error (exit 2) on every command, raised before the command runs:
    nothing is evaluated or written.  --tol 0 is accepted."""

    COMMANDS = {
        "check": ["check", "--g6", "Bw", "--check", "polyn"],
        "gen": ["gen", "named", "--name", "k3", "--out"],
        "scan": ["scan", "--exhaustive-n", "4", "--check", "polyn"],
        "witness": ["witness", "--g6", "Bw", "--r", "2", "--alpha", "0"],
    }

    def _argv(self, command, tmp_path):
        """The command's arguments, what it writes going to ``tmp_path``."""
        argv = list(self.COMMANDS[command])
        if command == "gen":
            argv.append(str(tmp_path / "k3.g6"))
        if command == "scan":
            argv += ["--artifact-dir", str(tmp_path)]
        return argv

    # -inf and -1e3 start with "-" and are no plain number: argparse would
    # read them as options, were --tol not joined to its value first
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf", "-1e3"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_refused(self, command, tol, tmp_path, capsys):
        assert main(["--tol", tol, *self._argv(command, tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: tolerance scale must be finite and >= 0" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_jobs_refused(self, command, tmp_path, capsys):
        assert main(["--jobs", "0", *self._argv(command, tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --jobs must be >= 1, got 0" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_zero_accepted(self, command, tmp_path, capsys):
        assert main(["--tol", "0", *self._argv(command, tmp_path)]) == 0

    @pytest.mark.parametrize("factor", [-1.0, float("nan"), float("inf")])
    def test_library_scan_refuses(self, factor):
        with pytest.raises(ValueError, match="tolerance scale"):
            scan(CorpusSpec(kind="exhaustive", n=3),
                 ScanConfig(checks={"polyn": {}}, tol_scale=factor))
        with pytest.raises(ValueError, match="tolerance scale"):
            DEFAULT_TOLS.scaled(factor)


def test_empty_r_grid_same_message_in_scan_and_check(capsys):
    assert main(["check", "--g6", "Bw", "--check", "theorem1", "--r", ","]) == 2
    check_err = capsys.readouterr().err
    assert main(["scan", "--exhaustive-n", "4", "--check", "theorem1", "--r", ","]) == 2
    scan_err = capsys.readouterr().err
    assert check_err == "error: empty grid for axis 'r' of check 'theorem1'\n"
    assert scan_err == check_err


def _check_choices(command: str) -> set[str]:
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return set(next(a for a in sub.choices[command]._actions if a.dest == "checks").choices)


class TestCheckRegistry:
    def test_cli_choices_follow_registry(self):
        assert _check_choices("scan") == set(CHECKS)
        assert _check_choices("check") == set(CHECKS) - {"stability"}

    def test_readme_lists_registry(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        sentence = re.split(r"\.\s", readme.split("Check names:", 1)[1], maxsplit=1)[0]
        assert re.findall(r"`([a-z][a-z0-9_]*)`", sentence) == list(CHECKS)


class TestExitCodeMapping:
    def test_conjecture_violation_maps_to_discovery(self):
        # no real counterexample is known; exercise the mapping on a
        # fabricated result (at r >= 3, where the conjecture is open)
        res = ScanResult(graphs_checked=1, violations=[
            {"graph6": "Bw", "check": "conjecture", "params": {"r": 3},
             "lhs": 2.0, "rhs": 1.0, "slack": -1.0}])
        assert res.theorem_violations() == []
        assert len(res.conjecture_violations()) == 1

    def test_theorem_violation_classified(self):
        res = ScanResult(graphs_checked=1, violations=[
            {"graph6": "Bw", "check": "wilf", "params": {},
             "lhs": 2.0, "rhs": 1.0, "slack": -1.0}])
        assert len(res.theorem_violations()) == 1

    def test_main_returns_usage_on_no_args(self):
        assert main([]) == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_uncaught_exception_is_an_internal_error(self, jobs, monkeypatch, capsys):
        # exit 1 claims a failed hard claim; a bug must not read as one
        def broken(*args, **kwargs):
            raise RuntimeError("screen broke")

        monkeypatch.setattr(screen, "screen_chunk", broken)
        code = main(["--jobs", jobs, "scan", "--exhaustive-n", "6", "--check", "wilf"])
        out, err = capsys.readouterr()
        assert code == EXIT_INTERNAL == 5
        assert out == ""
        assert "internal error: RuntimeError: screen broke" in err


def _fake_conjecture_violation(g, params, tols):
    return [CheckOutcome("conjecture", dict(params), "violation", 10.0, 8.0, -2.0)]


class TestConjectureAtRTwoIsAHardClaim:
    """Lin, Ning and Wu proved the r = 2 case: a violation there fails a
    hard claim (exit 1, reproducer file); at r >= 3 it is a discovery
    (exit 4, discovery file)."""

    @pytest.fixture(autouse=True)
    def violated(self, monkeypatch):
        monkeypatch.setitem(CHECKS, "conjecture", replace(
            CHECKS["conjecture"], evaluate=_fake_conjecture_violation))

    @pytest.mark.parametrize("r,code", [("2", 1), ("3", 4)])
    def test_check(self, r, code, capsys):
        g6 = emit_graph6(turan_graph(2, 6))
        assert main(["check", "--g6", g6, "--check", "conjecture", "--r", r]) == code
        [entry] = json.loads(capsys.readouterr().out)
        assert (entry["status"], entry["params"]) == ("violation", {"r": int(r)})

    @pytest.mark.parametrize("r,code,artifact", [
        ("2", 1, "violation_reproducer.json"),
        ("3", 4, "discovery_conjecture_0000.json")])
    def test_scan(self, r, code, artifact, tmp_path, capsys):
        corpus = tmp_path / "one.g6"
        corpus.write_text(emit_graph6(turan_graph(2, 6)) + "\n")
        out = tmp_path / "artifacts"
        assert main(["scan", "--file", str(corpus), "--check", "conjecture",
                     "--r", r, "--artifact-dir", str(out)]) == code
        assert len(json.loads(capsys.readouterr().out)["violations"]) == 1
        assert sorted(os.listdir(out)) == [artifact]
