import importlib
import json
import multiprocessing
import subprocess
import sys
import threading
from fractions import Fraction

import networkx as nx
import pytest

from spectral_cliques import (clique_counts, complete_graph, emit_graph6,
                              is_kfree, random_graph, run_check, spectral,
                              stability, turan_graph, walk_counts)
from spectral_cliques.graphs import mix64
from spectral_cliques.scan import (CorpusSpec, ScanConfig, expand_param_grid,
                                   read_graph6, scan, tightness_rank)

from oracles import brute_force_cliques, brute_force_walks, enumerate_labeled, reference_scan

# the package re-exports the ``scan`` function under the module's name
scan_module = importlib.import_module("spectral_cliques.scan")


class TestEnumerate:
    @pytest.mark.parametrize("n,count", [(3, 8), (4, 64)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_labeled(n)) == count

    def test_n6_count(self):
        assert sum(1 for _ in enumerate_labeled(6)) == 32768

    def test_each_exactly_once(self):
        seen = {g.adj for g in enumerate_labeled(4)}
        assert len(seen) == 64

    def test_limit(self):
        with pytest.raises(ValueError):
            next(enumerate_labeled(9))
        with pytest.raises(ValueError):
            next(enumerate_labeled(8))
        # override raises the ceiling to 8
        assert next(iter(enumerate_labeled(8, allow_n8=True))).n == 8


class TestBruteForceOracles:
    def test_cliques_k4_c5(self, k4, c5):
        assert brute_force_cliques(k4).counts == (4, 6, 4, 1)
        assert brute_force_cliques(c5).count(3) == 0

    def test_cliques_random(self):
        for seed in range(50):
            g = random_graph(8, 0.5, seed)
            assert brute_force_cliques(g) == clique_counts(g)

    def test_cliques_limit(self):
        with pytest.raises(ValueError):
            brute_force_cliques(turan_graph(3, 21))

    def test_walks_p3(self, p3):
        prof = brute_force_walks(p3, 3)
        assert prof.totals == (3, 4, 6)
        assert prof == walk_counts(p3, 3)

    def test_walks_k3(self, k3):
        assert brute_force_walks(k3, 4).total(4) == 24

    def test_walks_empty(self):
        from spectral_cliques import empty_graph
        prof = brute_force_walks(empty_graph(4), 3)
        assert [prof.total(l) for l in (1, 2, 3)] == [4, 0, 0]
        assert prof.totals == (4, 0)  # the rows stop where the counts do

    def test_walks_limits(self, k3):
        with pytest.raises(ValueError):
            brute_force_walks(k3, 9)
        with pytest.raises(ValueError):
            brute_force_walks(random_graph(11, 0.5, 0), 2)


class TestParamGrid:
    def test_defaults(self):
        assert expand_param_grid("wilf", {}) == [{}]
        assert expand_param_grid("maxmu", {}) == [{"s": s} for s in (1, 2, 3, 4)]

    @staticmethod
    def _theorem3_rs(g, grid):
        return [(oc.params["r"], oc.params["s"])
                for params in expand_param_grid("theorem3", grid)
                for oc in run_check("theorem3", g, params)]

    def test_theorem3_s_capped_by_r(self, k4):
        pairs = self._theorem3_rs(k4, {"r": [2, 3], "s": [1, 2, 3], "alpha": [0]})
        assert set(pairs) == {(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)}

    def test_theorem3_default_s_expands(self, k4):
        pairs = self._theorem3_rs(k4, {"r": [3], "alpha": [0]})
        assert pairs == [(3, 1), (3, 2), (3, 3)]

    def test_oldin_valid_sentinel(self):
        combos = expand_param_grid("oldin", {"l": [2]})
        assert combos == [{"s": None, "l": 2}]


def _networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


#: the corpus filters as networkx decides them
NX_FILTERS = {
    "connected": nx.is_connected,
    "nonbipartite": lambda h: not nx.is_bipartite(h),
    "kfree:3": lambda h: max(len(c) for c in nx.find_cliques(h)) <= 3,
}


class TestScan:
    def test_exhaustive_n5_theorem1(self):
        res = scan(CorpusSpec(kind="exhaustive", n=5),
                   ScanConfig(checks={"theorem1": {"r": [2, 3]}}))
        assert res.graphs_checked == 1024
        assert res.violations == []

    def test_polyn_equalities_match_recognizer_n4(self):
        from spectral_cliques import is_complete_multipartite_plus_isolated
        res = scan(CorpusSpec(kind="exhaustive", n=4),
                   ScanConfig(checks={"polyn": {}}))
        flagged = {rec["graph6"] for rec in res.equalities}
        expected = {emit_graph6(g) for g in enumerate_labeled(4)
                    if is_complete_multipartite_plus_isolated(g)[0]}
        assert flagged == expected

    def test_filter_kfree(self):
        res = scan(CorpusSpec(kind="exhaustive", n=5, filters=("kfree:2",)),
                   ScanConfig(checks={"wilf": {}}))
        expected = sum(1 for g in enumerate_labeled(5) if is_kfree(g, 3))
        assert res.graphs_checked == expected

    def test_filter_connected_nonbipartite(self):
        from spectral_cliques import is_bipartite, is_connected
        res = scan(CorpusSpec(kind="exhaustive", n=4,
                              filters=("connected", "nonbipartite")),
                   ScanConfig(checks={"momo": {}}))
        expected = sum(1 for g in enumerate_labeled(4)
                       if is_connected(g) and not is_bipartite(g))
        assert res.graphs_checked == expected

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("p", [0.2, 0.5])
    @pytest.mark.parametrize("filters", [("connected",), ("nonbipartite",), ("kfree:3",),
                                         ("connected", "nonbipartite", "kfree:3")])
    def test_filters_on_built_random_graphs(self, filters, p, jobs, monkeypatch):
        """Random graphs of order 12, above ``screen.MASK_MAX_N``, are built
        as ``Graph``s and filtered as a block, which keeps the per-vertex
        counts oldin reads: the scan reports what the reference reports on
        the graphs that networkx's predicates keep."""
        monkeypatch.setattr(scan_module, "_CHUNK_ITEMS", 16)  # three chunks
        graphs = [random_graph(12, p, mix64(3, i)) for i in range(40)]
        kept = [emit_graph6(g) for g in graphs if all(NX_FILTERS[f](_networkx(g)) for f in filters)]
        checks = {"wilf": {}, "theorem1": {"r": [2, 3]}, "oldin": {"l": [2]}}
        got = scan(CorpusSpec(kind="random", n=12, p=p, count=40, seed=3, filters=filters),
                   ScanConfig(checks=checks), jobs=jobs).to_json_dict(deterministic_timing=True)
        del got["timing_s"]
        assert got == reference_scan(kept, checks, 10, 1.0)

    def test_jobs_deterministic(self):
        corpus = CorpusSpec(kind="exhaustive", n=5)
        config = ScanConfig(checks={"theorem1": {"r": [2]}, "polyn": {},
                                    "momo": {}, "oldin": {"l": [2]}})
        a = scan(corpus, config, jobs=1).to_json_dict(deterministic_timing=True)
        b = scan(corpus, config, jobs=2).to_json_dict(deterministic_timing=True)
        assert a == b

    def test_random_corpus_deterministic_and_seeded(self):
        corpus = CorpusSpec(kind="random", n=8, p=0.5, count=60, seed=7)
        config = ScanConfig(checks={"conjecture": {"r": [2, 3]}})
        a = scan(corpus, config, jobs=1)
        b = scan(corpus, config, jobs=2)
        assert a.graphs_checked == 60
        assert a.violations == b.violations == []
        assert a.to_json_dict(True) == b.to_json_dict(True)
        # item i is exactly random_graph(n, p, mix64(seed, i))
        g0 = random_graph(8, 0.5, mix64(7, 0))
        assert g0.n == 8

    def test_file_corpus(self, tmp_path):
        path = tmp_path / "corpus.g6"
        lines = [emit_graph6(turan_graph(2, 4)), emit_graph6(turan_graph(3, 6))]
        path.write_text("# comment\n\n" + "\n".join(lines) + "\n")
        assert read_graph6(str(path)) == ("\n\n" + "\n".join(lines) + "\n").encode("ascii")
        res = scan(CorpusSpec(kind="file", path=str(path)),
                   ScanConfig(checks={"maxmu1": {}}))
        assert res.graphs_checked == 2
        assert len(res.equalities) == 2  # both are balanced and tight

    def test_stability_check_in_scan(self):
        res = scan(CorpusSpec(kind="file", path=_turan_file()),
                   ScanConfig(checks={"stability": {"r": [2, 3]}}))
        assert res.violations == []
        assert res.graphs_checked == 2

    @pytest.mark.parametrize("r,n", [(2, 16), (2, 18), (3, 18)])
    def test_stability_searches_once_per_evaluation(self, r, n, monkeypatch):
        searched = []
        search = stability._search_witness

        def spy(g, *args):
            searched.append(g.n)
            return search(g, *args)

        monkeypatch.setattr(stability, "_search_witness", spy)
        [oc] = run_check("stability", turan_graph(r, n), {"r": r, "alpha": None})
        assert oc.status == "holds"
        assert searched == [n]

    def test_bracketing_once_per_refined_graph(self, monkeypatch):
        counted = []
        count = spectral.eigenvalues_above

        def counting(g, p, q):  # one shift value is one count, however written
            counted.append((g.adj, Fraction(p, q)))
            return count(g, p, q)

        monkeypatch.setattr(spectral, "eigenvalues_above", counting)
        checks = {name: {} for name in ("wilf", "maxmu", "polyn", "theorem1", "theorem2")}
        scan(CorpusSpec(kind="exhaustive", n=5), ScanConfig(checks=checks))
        assert counted
        assert len(counted) == len(set(counted))

    def test_walk_overflow_is_one_out_of_domain_outcome(self, tmp_path):
        k12 = complete_graph(12)
        [oc] = run_check("maxmu", k12, {"s": 40})
        assert (oc.check, oc.params, oc.status) == ("maxmu", {"s": 40}, "ood")
        corpus = tmp_path / "k12.g6"
        corpus.write_text(emit_graph6(k12) + "\n")
        res = scan(CorpusSpec(kind="file", path=str(corpus)),
                   ScanConfig(checks={"maxmu": {"s": [2, 40]}}))
        assert res.out_of_domain == 1
        assert res.violations == []

    def test_out_of_domain_counted(self):
        res = scan(CorpusSpec(kind="exhaustive", n=4),
                   ScanConfig(checks={"conjecture": {"r": [2]}}))
        assert res.graphs_checked == 64
        # graphs with triangles (or at this order nothing else) are skipped
        in_domain = sum(1 for g in enumerate_labeled(4) if is_kfree(g, 3))
        assert res.out_of_domain == 64 - in_domain


class _InProcessPool:
    """Stand-in for a multiprocessing context's ``Pool`` that records its
    size and runs every task in this process, before the caller claims a
    chunk."""

    sizes: list[int] = []

    def __init__(self, processes, initializer, initargs):
        self.sizes.append(processes)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap_unordered(self, fn, tasks):
        return iter([fn(task) for task in tasks])

    def terminate(self):
        pass


def _no_process_start(self):
    raise AssertionError("a real process was started")


#: run with ``python -c``: with spawn as the start method, three scans
#: while this is the only thread (their workers fork on Linux) and three
#: while a helper thread runs (their workers spawn) must print the same
#: bytes and leave no child process behind
_SPAWN_SCRIPT = """
import contextlib, io, multiprocessing, sys, threading
from spectral_cliques.cli import main
from spectral_cliques.scan import _pool_context

multiprocessing.set_start_method("spawn")


def scans(method):
    assert _pool_context().get_start_method() == method
    outs = []
    for jobs in ("1", "2", "3"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["--jobs", jobs, "scan", "--exhaustive-n", "6", "--check", "wilf",
                         "--check", "momo", "--top-k", "7"])
        assert code == 0, (method, jobs, code)
        assert multiprocessing.active_children() == [], (method, jobs)
        outs.append(buf.getvalue())
    return outs


outs = scans("fork" if sys.platform == "linux" else "spawn")
stop = threading.Event()
helper = threading.Thread(target=stop.wait)
helper.start()
try:
    outs += scans("spawn")
finally:
    stop.set()
    helper.join()
assert len(set(outs)) == 1, "stdout differs across --jobs or start methods"
print(len(outs[0]))
"""


#: run with ``python -c FILE``: 600 scans at --jobs 2 of a file whose first
#: line is malformed, in chunks of 3 lines, so that the caller fails on
#: chunk 0 while its worker may still be replying for chunk 1
_FAILING_SCANS = """
import importlib, sys
from spectral_cliques.graphs import Graph6Error
from spectral_cliques.scan import CorpusSpec, ScanConfig, scan

importlib.import_module("spectral_cliques.scan")._CHUNK_ITEMS = 3
for _ in range(600):
    try:
        scan(CorpusSpec(kind="file", path=sys.argv[1]), ScanConfig(checks={"maxmu1": {}}),
             jobs=2)
    except Graph6Error as exc:
        assert str(exc).endswith("line 1: truncated graph6 bit payload"), exc
    else:
        raise AssertionError("the malformed line was not reported")
"""


class TestScanProcesses:
    def test_failing_scans_leave_the_pool(self, tmp_path):
        # a worker terminated while it sent its reply left the pool's result
        # lock taken, and leaving the pool then hung (in 2 of 5 runs of 300)
        corpus = tmp_path / "bad.g6"
        corpus.write_text("F?a\n" + "Bw\n" * 5)
        proc = subprocess.run([sys.executable, "-c", _FAILING_SCANS, str(corpus)],
                              capture_output=True, text=True, timeout=90)
        assert proc.returncode == 0, proc.stderr

    def test_no_more_workers_than_chunks(self, monkeypatch):
        # 600 graphs are two chunks: the caller and one worker scan them
        corpus = CorpusSpec(kind="random", n=6, p=0.5, count=600, seed=3)
        config = ScanConfig(checks={"momo": {}, "wilf": {}})
        expected = scan(corpus, config, jobs=1).to_json_dict(deterministic_timing=True)
        monkeypatch.setattr(_InProcessPool, "sizes", [])
        monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool",
                            lambda ctx, **kwargs: _InProcessPool(**kwargs))
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            _no_process_start)
        got = scan(corpus, config, jobs=64).to_json_dict(deterministic_timing=True)
        assert _InProcessPool.sizes == [1]
        assert got == expected

    def test_each_chunk_claimed_once(self):
        # the caller and three workers, started as a scan starts them, race
        # for 16 chunks; a lost update of the counter would claim an index
        # twice
        corpus = CorpusSpec(kind="random", n=5, p=0.5, count=16 * 512, seed=5)
        chunks = scan_module._make_chunks(corpus)
        ctx = scan_module._pool_context()
        init_args = (corpus, ScanConfig(checks={"momo": {}}), (), ctx.Value("q", 0))
        scan_module._init_scan_worker(*init_args)
        with ctx.Pool(3, scan_module._init_scan_worker, init_args) as pool:
            claimed = pool.imap_unordered(scan_module._claim_chunks, [chunks] * 3)
            indices = [i for i, _ in scan_module._claim_chunks(chunks)]
            for _ in range(3):
                indices += [i for i, _ in claimed.next(timeout=120)]
        assert sorted(indices) == list(range(16))

    def test_spawn_identical_across_jobs(self):
        proc = subprocess.run([sys.executable, "-c", _SPAWN_SCRIPT],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) > 0


class TestPoolContext:
    """Scan workers fork on Linux whatever the default start method,
    unless another thread runs; then they start by the default."""

    @pytest.fixture(autouse=True)
    def spawn_default(self):
        before = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("spawn", force=True)
        yield
        multiprocessing.set_start_method(before, force=True)

    def test_fork_on_linux(self):
        want = "fork" if sys.platform == "linux" else "spawn"
        assert scan_module._pool_context().get_start_method() == want

    def test_default_while_another_thread_runs(self):
        stop = threading.Event()
        helper = threading.Thread(target=stop.wait)
        helper.start()
        try:
            assert scan_module._pool_context().get_start_method() == "spawn"
        finally:
            stop.set()
            helper.join()


def _turan_file():
    import tempfile, os
    fd, path = tempfile.mkstemp(suffix=".g6")
    with os.fdopen(fd, "w") as fh:
        fh.write(emit_graph6(turan_graph(2, 8)) + "\n")
        fh.write(emit_graph6(turan_graph(3, 6)) + "\n")
    return path


class TestTightnessRank:
    def test_order_and_ties(self):
        recs = [
            {"graph6": "B", "check": "x", "params": {}, "lhs": 0, "rhs": 1, "slack": 1.0},
            {"graph6": "A", "check": "x", "params": {}, "lhs": 0, "rhs": 1, "slack": 1.0},
            {"graph6": "C", "check": "x", "params": {}, "lhs": 0, "rhs": 0, "slack": 0.0},
            {"graph6": "D", "check": "x", "params": {}, "lhs": 0, "rhs": 2, "slack": 2.0},
        ]
        top = tightness_rank(recs, 3)
        assert [r["graph6"] for r in top] == ["C", "A", "B"]

    def test_negative_slack_clamped(self):
        recs = [{"graph6": "A", "check": "x", "params": {}, "lhs": 1, "rhs": 1,
                 "slack": -1e-12}]
        assert tightness_rank(recs, 1)[0]["graph6"] == "A"

    def test_turan_conjecture_all_tight(self):
        recs = []
        from spectral_cliques import conjecture_check
        for n in (4, 6):
            g = turan_graph(2, n)
            rep = conjecture_check(g, 2)
            recs.append({"graph6": emit_graph6(g), "check": "conjecture",
                         "params": {"r": 2}, "lhs": rep.lhs, "rhs": rep.rhs,
                         "slack": rep.slack})
        top = tightness_rank(recs, 2)
        assert all(abs(r["slack"]) <= 1e-9 for r in top)

    def test_wilf_tight_on_complete_graphs(self):
        from spectral_cliques import complete_graph, wilf_bound
        recs = []
        for n in range(2, 7):
            g = complete_graph(n)
            rep = wilf_bound(g)
            recs.append({"graph6": emit_graph6(g), "check": "wilf",
                         "params": {}, "lhs": rep.lhs, "rhs": rep.rhs,
                         "slack": rep.slack})
        top = tightness_rank(recs, 5)
        assert len(top) == 5
        assert all(abs(r["slack"]) <= 1e-9 for r in top)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            tightness_rank([], 0)


class TestScanResultShape:
    def test_json_keys(self):
        res = scan(CorpusSpec(kind="exhaustive", n=3),
                   ScanConfig(checks={"wilf": {}}))
        d = res.to_json_dict()
        assert set(d) == {"graphs_checked", "violations", "equalities",
                          "tightest", "out_of_domain", "timing_s"}
        assert d["timing_s"] > 0
        assert res.to_json_dict(deterministic_timing=True)["timing_s"] is None
        json.dumps(d)  # serializable
