"""Stacked LAPACK spectra: bit identity with one ``eigh`` per graph, one
stacked call per scan chunk and order, solver failures as out-of-domain
outcomes, and scan output that does not depend on how graphs were batched."""

import importlib
import json
from collections import Counter
import os
import subprocess
import sys

import numpy as np
import pytest

from spectral_cliques import (complete_graph, cycle_graph, emit_graph6,
                              empty_graph, graph_from_edge_mask, parse_graph6,
                              path_graph, random_graph, run_check, screen, spectral,
                              spectrum, turan_graph)
from spectral_cliques.cli import main
from spectral_cliques.graphs import mix64
from spectral_cliques.scan import (CorpusSpec, ScanConfig, expand_param_grid, scan,
                                   tightness_rank)

from oracles import brute_force_cliques, dense_adjacency

# the package re-exports the ``scan`` function under the module's name
scan_module = importlib.import_module("spectral_cliques.scan")


def _one_eigh_per_graph(g) -> tuple[float, ...]:
    """The per-graph route: a dense matrix built entry by entry, one eigh,
    eigenvalues sorted descending."""
    a = np.zeros((g.n, g.n))
    for u in range(g.n):
        for v in range(g.n):
            if g.has_edge(u, v):
                a[u, v] = 1.0
    vals, _ = np.linalg.eigh(a)
    return tuple(float(x) for x in vals[np.argsort(vals)[::-1]])


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _stacked_by_order(graphs) -> list[tuple[float, ...] | None]:
    """The scan's route: one stacked solve per vertex order, each graph's
    row as a tuple, or None where the solver failed (a NaN row)."""
    out = [None] * len(graphs)
    by_order: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        by_order.setdefault(g.n, []).append(i)
    for members in by_order.values():
        adj = spectral.adjacency_stack([graphs[i] for i in members])
        for i, row in zip(members, spectral.stacked_eigenvalues(adj).tolist()):
            out[i] = tuple(row) if row[0] == row[0] else None
    return out


def _assert_bit_identical(graphs):
    batched = _stacked_by_order(graphs)
    reference = [_one_eigh_per_graph(g) for g in graphs]
    assert batched == reference
    assert [_bits(v) for v in batched] == [_bits(v) for v in reference]


@pytest.fixture
def lapack_calls(monkeypatch):
    """Shapes of the arrays passed to np.linalg.eigh and np.linalg.eigvalsh
    while the test runs, by routine name."""
    calls = {"eigh": [], "eigvalsh": []}
    for name, shapes in calls.items():
        routine = getattr(np.linalg, name)

        def counting(a, *args, _routine=routine, _shapes=shapes, **kwargs):
            _shapes.append(np.shape(a))
            return _routine(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def _fail_lapack_on(monkeypatch, target, routines=("eigh", "eigvalsh")):
    """LAPACK fails on target's matrix: each of ``routines`` raises
    LinAlgError on any stack holding it."""
    bad = dense_adjacency(target)
    for name in routines:
        routine = getattr(np.linalg, name)

        def failing(a, *args, _routine=routine, **kwargs):
            a = np.asarray(a)
            if a.shape[-1] == bad.shape[-1] and np.all(a == bad, axis=(-2, -1)).any():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return _routine(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, failing)


def _write_corpus(path, graphs):
    path.write_text("".join(emit_graph6(g) + "\n" for g in graphs))
    return str(path)


def _scan_stdout(capsys, *args) -> dict:
    assert main(["--jobs", "1", "scan", *args]) == 0
    return json.loads(capsys.readouterr().out)


class TestBitIdentity:
    def test_all_labeled_n6(self):
        _assert_bit_identical([graph_from_edge_mask(6, m) for m in range(1 << 15)])

    @pytest.mark.parametrize("n", [16, 40, 64])
    def test_random_rows_up_to_64_bits(self, n):
        _assert_bit_identical([random_graph(n, p, mix64(n, i))
                               for i, p in enumerate((0.1, 0.3, 0.5, 0.7, 0.9) * 4)])

    @pytest.mark.parametrize("n,count", [(80, 50), (200, 10)])
    def test_sub_batches_above_64(self, n, count, monkeypatch, lapack_calls):
        monkeypatch.setenv("SCL_MAX_N", "200")
        graphs = [random_graph(n, 0.3, mix64(n, i)) for i in range(count)]
        step = spectral.STACK_ENTRIES // (n * n)
        assert step < count  # the order's graphs span more than one stack
        _assert_bit_identical(graphs)
        stacked = [shape for shape in lapack_calls["eigh"] if len(shape) == 3]
        assert [shape[0] for shape in stacked] == [step] * (count // step) + (
            [count % step] if count % step else [])

    def test_zero_eigenvalues_keep_sign_and_position(self):
        graphs = [complete_graph(1)] + [empty_graph(n) for n in range(1, 6)] + [
            path_graph(3), turan_graph(2, 5), cycle_graph(4)]
        _assert_bit_identical(graphs)
        assert _bits(spectrum(complete_graph(1)).eigenvalues) == _bits((0.0,))
        assert _bits(spectrum(empty_graph(4)).eigenvalues) == _bits((0.0,) * 4)

    def test_failing_stack_falls_back_to_one_graph_at_a_time(self, monkeypatch):
        graphs = [cycle_graph(5), path_graph(5), complete_graph(5)]
        clean = spectral.stacked_eigenvalues(spectral.adjacency_stack(graphs),
                                             np.linalg.eigvalsh)
        _fail_lapack_on(monkeypatch, graphs[1])
        spectra = _stacked_by_order(graphs)
        assert spectra[1] is None
        assert [spectra[0], spectra[2]] == [
            _one_eigh_per_graph(graphs[0]), _one_eigh_per_graph(graphs[2])]
        # the screen's eigvalsh route falls back the same way
        screened = spectral.stacked_eigenvalues(spectral.adjacency_stack(graphs),
                                                np.linalg.eigvalsh)
        assert np.isnan(screened[1]).all()
        assert _bits(screened[[0, 2]]) == _bits(clean[[0, 2]])

    @pytest.mark.parametrize("solve", [None, np.linalg.eigvalsh])
    def test_empty_stack_gives_no_rows(self, solve, lapack_calls):
        adj = np.zeros((0, 5, 5), dtype=np.uint8)
        vals = (spectral.stacked_eigenvalues(adj) if solve is None
                else spectral.stacked_eigenvalues(adj, solve))
        assert vals.shape == (0, 5) and vals.dtype == float
        assert lapack_calls == {"eigh": [], "eigvalsh": []}

    def test_block_with_no_reported_rows_solves_no_eigh(self, lapack_calls):
        masks = np.arange(0, 1024, 37, dtype=np.int64)
        b = screen.Block.from_bits(5, masks, range(len(masks)), False)
        b.eigenvalues(np.ones(len(masks), dtype=bool))  # read, as a spectral screen reads it
        assert b.reported(np.zeros(len(masks), dtype=bool)) == []
        assert lapack_calls == {"eigh": [], "eigvalsh": [(len(masks), 5, 5)]}

    def test_block_solves_when_a_screen_first_reads_mu(self, lapack_calls):
        masks = np.arange(0, 1024, 37, dtype=np.int64)
        b = screen.Block.from_bits(5, masks, range(len(masks)), True)
        tols = scan_module.DEFAULT_TOLS
        for name, params in (("maxmu1", {}), ("theorem3", {"r": 2, "alpha": 0}),
                             ("oldin", {"s": None, "l": 2}), ("momo", {})):
            assert scan_module.CHECKS[name].screen(b, params, tols) is not None
        assert lapack_calls == {"eigh": [], "eigvalsh": []}
        for name, params in (("wilf", {}), ("conjecture", {"r": 2}),
                             ("edge_corollary", {"r": 2, "alpha": 0})):
            assert scan_module.CHECKS[name].screen(b, params, tols) is not None
        assert lapack_calls == {"eigh": [], "eigvalsh": [(len(masks), 5, 5)]}


def _corpora_for_eigvalsh_bound():
    """The corpora the screen's eigvalsh was measured on: every labeled
    graph of order at most 6, every 64th edge mask of order 7, and random
    graphs of orders 10, 16, 40 and 64 over a spread of densities."""
    for n in range(1, 7):
        yield [graph_from_edge_mask(n, m) for m in range(1 << n * (n - 1) // 2)]
    yield [graph_from_edge_mask(7, m) for m in range(0, 1 << 21, 64)]
    for n in (10, 16, 40, 64):
        yield [random_graph(n, p, mix64(n, i))
               for i, p in enumerate((0.1, 0.3, 0.5, 0.7, 0.9) * 8)]


def test_eigvalsh_within_64_ulp_of_eigh():
    """The screen decides on eigvalsh, the printed figures on eigh.  Both
    are backward stable; on these corpora they differ by at most 64 units
    in the last place of max(1, |lambda|max), over four orders of magnitude
    inside the screen's margin."""
    ulp = np.finfo(float).eps
    worst = 0.0
    for graphs in _corpora_for_eigvalsh_bound():
        adj = spectral.adjacency_stack(graphs)
        pinned = spectral.stacked_eigenvalues(adj)
        screened = spectral.stacked_eigenvalues(adj, np.linalg.eigvalsh)
        scale = np.maximum(1.0, np.abs(pinned).max(axis=1))
        worst = max(worst, float((np.abs(screened - pinned).max(axis=1) / scale).max()))
    assert worst <= 64 * ulp, worst
    assert 64 * ulp * 1e4 < screen.SCREEN_MARGIN


@pytest.fixture
def reported_rows(monkeypatch):
    """(order, graphs handed out) of every ``Block.reported`` call, and the
    graphs ``run_check`` evaluates by id, while the test runs."""
    seen = {"blocks": [], "checked": {}}
    reported = screen.Block.reported
    run_check = scan_module.run_check

    def spy_reported(self, rows):
        out = reported(self, rows)
        seen["blocks"].append((self.n, len(out)))
        return out

    def spy_run_check(name, g, params, tols):
        seen["checked"][id(g)] = g  # held, so that no id is reused
        return run_check(name, g, params, tols)

    monkeypatch.setattr(screen.Block, "reported", spy_reported)
    monkeypatch.setattr(scan_module, "run_check", spy_run_check)
    return seen


def _pinned_shapes(seen) -> list[tuple[int, int, int]]:
    """One eigh stack per block with a reported graph, as long as the
    block's reported graphs, which are exactly the graphs run_check sees."""
    assert sum(count for _, count in seen["blocks"]) == len(seen["checked"])
    return sorted((count, n, n) for n, count in seen["blocks"] if count)


class TestOneStackPerChunk:
    """The screen solves the graphs of a chunk and order that a gate admits
    in one stacked eigvalsh; the pinned eigh is solved in one stack per
    chunk and order, for the graphs with a reported evaluation alone."""

    def test_exhaustive_n6_one_call_per_chunk(self, capsys, lapack_calls, reported_rows):
        # 7,281 graphs of order 6 fill a chunk's STACK_ENTRIES adjacency entries
        _scan_stdout(capsys, "--exhaustive-n", "6", "--check", "wilf")
        assert lapack_calls["eigvalsh"] == [(7281, 6, 6)] * 4 + [(3644, 6, 6)]
        assert len(reported_rows["blocks"]) == 5
        assert sorted(lapack_calls["eigh"]) == _pinned_shapes(reported_rows)
        assert 0 < len(reported_rows["checked"]) < 32768 // 4

    def test_file_one_call_per_chunk_and_order(self, tmp_path, capsys, lapack_calls,
                                                reported_rows, monkeypatch):
        # 600 lines of orders 3, 4, 5 cost 56 subset-table entries a triple:
        # chunks of 439 and 161 lines under a bound of 2^13 (146 triples and
        # one order 3 line), each holding all three orders
        monkeypatch.setattr(scan_module, "_CHUNK_SUBSETS", 1 << 13)
        graphs = [random_graph(3 + i % 3, 0.5, mix64(5, i)) for i in range(600)]
        corpus = _write_corpus(tmp_path / "mixed.g6", graphs)
        firsts = [first for _, first, _ in
                  scan_module._make_chunks(CorpusSpec(kind="file", path=corpus))]
        assert firsts == [1, 440]
        _scan_stdout(capsys, "--file", corpus, "--check", "conjecture", "--r", "2")
        blocks = Counter((i >= 439, g.n) for i, g in enumerate(graphs))
        assert sorted(blocks.values()) == sorted([147, 146, 146, 53, 54, 54])
        # of those, the triangle-free graphs, which the gate omega > 2 leaves
        admitted = Counter((i >= 439, g.n) for i, g in enumerate(graphs)
                           if brute_force_cliques(g).omega <= 2)
        assert sorted(lapack_calls["eigvalsh"]) == sorted(
            (count, n, n) for (_, n), count in admitted.items())
        assert len(reported_rows["blocks"]) == 6
        assert sorted(lapack_calls["eigh"]) == _pinned_shapes(reported_rows)
        assert lapack_calls["eigh"]

    def test_plans_without_spectral_checks_solve_nothing(self, capsys, lapack_calls):
        _scan_stdout(capsys, "--exhaustive-n", "5", "--check", "momo",
                     "--check", "maxmu1", "--check", "oldin", "--check", "theorem3")
        assert lapack_calls == {"eigh": [], "eigvalsh": []}


class TestAdmittedRows:
    """A block solves eigvalsh per row, on first read, for the rows some
    screen's gate leaves live, each row once."""

    @pytest.fixture
    def solved(self, monkeypatch):
        """Rows passed to np.linalg.eigvalsh, and every block scanned."""
        seen = {"rows": 0, "blocks": []}
        eigvalsh, chunk_blocks = np.linalg.eigvalsh, scan_module._chunk_blocks

        def counting(a, *args, **kwargs):
            seen["rows"] += len(a)
            return eigvalsh(a, *args, **kwargs)

        def spy_blocks(chunk):
            blocks, size = chunk_blocks(chunk)
            seen["blocks"] += blocks
            return blocks, size

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        monkeypatch.setattr(scan_module, "_chunk_blocks", spy_blocks)
        return seen

    def _rows(self, solved, corpus, checks) -> int:
        solved.update(rows=0, blocks=[])
        scan(corpus, ScanConfig(checks=checks))
        return solved["rows"]

    def test_conjecture_and_stability_solve_only_k4_free_rows(self, tmp_path, solved):
        graphs = [random_graph(7, 0.5, mix64(9, i)) for i in range(1200)]
        graphs += [turan_graph(r, q * r) for r in (2, 3) for q in range(1, 16 // r + 1)]
        corpus = CorpusSpec(kind="file", path=_write_corpus(tmp_path / "sample.g6", graphs))
        checks = {"conjecture": {"r": [2, 3]}, "stability": {"r": [2, 3]}}
        rows = self._rows(solved, corpus, checks)
        admitted = sum(int((b.omega <= 3).sum()) for b in solved["blocks"])
        assert rows == admitted
        assert sum(len(b.pos) for b in solved["blocks"]) == len(graphs) > admitted
        assert self._rows(solved, corpus, checks) == rows

    def test_battery_solves_every_row_once(self, solved):
        corpus = CorpusSpec(kind="exhaustive", n=5)
        checks = {name: {} for name in ("wilf", "maxmu", "maxmu1", "polyn", "theorem1",
                                        "theorem2", "momo", "oldin")}
        assert self._rows(solved, corpus, checks) == 1024
        assert self._rows(solved, corpus, checks) == 1024

    def test_block_with_every_row_gated_solves_nothing(self, solved):
        # every graph of order 5 with a K4: out of the domain of r = 2 and 3
        masks = np.arange(1024, dtype=np.int64)
        b = screen.Block.from_bits(5, masks, range(len(masks)), False)
        keep = b.omega >= 4
        b = screen.Block.from_bits(5, masks[keep], range(int(keep.sum())), False)
        tols = scan_module.DEFAULT_TOLS
        for name in ("conjecture", "stability", "edge_corollary"):
            for params in expand_param_grid(name, {"r": [2, 3]}):
                sc = scan_module.CHECKS[name].screen(b, params, tols)
                assert not sc.exact.any()
        assert solved["rows"] == 0
        assert b.reported(np.ones(len(b.pos), dtype=bool))
        assert solved["rows"] == 0


class TestSolverFailureIsOutOfDomain:
    def test_check_lapack_failure(self, monkeypatch, capsys):
        c5 = cycle_graph(5)
        _fail_lapack_on(monkeypatch, c5)
        code = main(["check", "--g6", emit_graph6(c5), "--check", "wilf",
                     "--check", "maxmu1"])
        entries = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [(e["check"], e["status"]) for e in entries] == [
            ("wilf", "ood"), ("maxmu1", "holds")]

    def test_scan_lapack_failure_on_one_graph(self, tmp_path, monkeypatch, capsys):
        c5, p4, k4 = cycle_graph(5), path_graph(4), complete_graph(4)
        corpus = _write_corpus(tmp_path / "three.g6", [c5, p4, k4])
        args = ("--file", corpus, "--check", "wilf", "--check", "conjecture",
                "--check", "maxmu1", "--r", "2")
        clean = _scan_stdout(capsys, *args)
        _fail_lapack_on(monkeypatch, p4)
        failed = _scan_stdout(capsys, *args)
        # P4 is triangle-free: its wilf and conjecture evaluations read the
        # spectrum, its maxmu1 evaluation does not
        assert failed["graphs_checked"] == 3
        assert failed["out_of_domain"] == clean["out_of_domain"] + 2
        p4_g6 = emit_graph6(p4)
        for key in ("equalities", "violations"):
            assert failed[key] == [rec for rec in clean[key]
                                   if rec["graph6"] != p4_g6 or rec["check"] == "maxmu1"]


    def test_eigh_failure_on_a_reported_graph(self, tmp_path, monkeypatch, capsys):
        # K_{3,3} is a wilf equality host, so the screen always reports it,
        # and the failing pinned solve makes its evaluation out of domain
        k33 = turan_graph(2, 6)
        corpus = _write_corpus(tmp_path / "hosts.g6", [cycle_graph(5), k33, path_graph(4)])
        args = ("--file", corpus, "--check", "wilf")
        clean = _scan_stdout(capsys, *args)
        k33_g6 = emit_graph6(k33)
        assert k33_g6 in [rec["graph6"] for rec in clean["equalities"]]
        _fail_lapack_on(monkeypatch, k33, routines=("eigh",))
        failed = _scan_stdout(capsys, *args)
        assert failed["out_of_domain"] == clean["out_of_domain"] + 1
        for key in ("equalities", "violations", "tightest"):
            assert failed[key] == [rec for rec in clean[key] if rec["graph6"] != k33_g6]

    def test_eigvalsh_failure_reports_the_graph(self, tmp_path, monkeypatch, capsys,
                                                reported_rows):
        # at top-k 1, C5 (wilf slack 1/2) trails P4 (slack 0.38) and is not
        # reported, unless its screen solve fails; K_{3,3} (an equality)
        # always is
        c5, k33, p4 = cycle_graph(5), turan_graph(2, 6), path_graph(4)
        corpus = _write_corpus(tmp_path / "hosts.g6", [c5, k33, p4])
        args = ("--file", corpus, "--check", "wilf", "--top-k", "1")
        clean = _scan_stdout(capsys, *args)
        assert reported_rows["blocks"] == [(5, 0), (6, 1), (4, 1)]
        reported_rows["blocks"].clear()
        _fail_lapack_on(monkeypatch, c5, routines=("eigvalsh",))
        assert _scan_stdout(capsys, *args) == clean
        assert reported_rows["blocks"] == [(5, 1), (6, 1), (4, 1)]


class TestBatchingLeavesOutputAlone:
    """Chunks mixing orders 1 to 16, Turan hosts and graphs above 64
    vertices: the scan's stdout is the same at any --jobs and equals the
    checks applied graph by graph to freshly parsed graphs."""

    ARGS = ("scan", "--check", "conjecture", "--check", "stability", "--r", "2,3")

    @staticmethod
    def _corpus(path) -> list[str]:
        graphs = [random_graph(1 + i % 16, 0.5, mix64(11, i)) for i in range(1100)]
        graphs += [turan_graph(r, n) for r in (2, 3) for n in range(r + 1, 13)]
        graphs += [random_graph(n, 0.05, mix64(13, n), cap=80) for n in (66, 72, 80)]
        lines = [emit_graph6(g) for g in graphs]
        path.write_text("".join(line + "\n" for line in lines))
        return lines

    def _expected_stdout(self, lines) -> str:
        ood = 0
        violations, equalities, ranked = [], [], []
        for line in lines:
            g = parse_graph6(line)
            for name in ("conjecture", "stability"):
                for params in expand_param_grid(name, {"r": [2, 3]}):
                    for oc in run_check(name, g, params):
                        if oc.status == "ood":
                            ood += 1
                        elif oc.status == "violation":
                            violations.append(oc.record(line))
                        elif oc.status in ("holds", "equality") and oc.slack is not None:
                            ranked.append(oc.record(line))
                            if oc.status == "equality":
                                equalities.append(oc.record(line))
        result = {"graphs_checked": len(lines), "violations": violations,
                  "equalities": equalities, "tightest": tightness_rank(ranked, 10),
                  "out_of_domain": ood, "timing_s": None}
        return json.dumps(result, sort_keys=True, separators=(",", ":")) + "\n"

    def test_jobs_and_graph_by_graph_agree(self, tmp_path, monkeypatch):
        corpus = tmp_path / "mixed.g6"
        lines = self._corpus(corpus)
        env = dict(os.environ, SCL_MAX_N="80")
        outs = []
        for jobs in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "spectral_cliques", "--jobs", jobs, *self.ARGS,
                 "--file", str(corpus)],
                capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        monkeypatch.setenv("SCL_MAX_N", "80")
        assert outs[0] == self._expected_stdout(lines)
