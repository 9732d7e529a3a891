"""The scan's array screen: scans report exactly what the graph-by-graph
reporting path reports, the margin is what keeps them equal, and the
screen's arrays reuse one pivot-tree walk per graph."""

import importlib
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_cliques import (cliques, complete_graph, emit_graph6,
                              graph_from_edge_mask, parse_graph6, run_check,
                              screen, turan_graph)
from spectral_cliques.scan import CorpusSpec, ScanConfig, scan

from oracles import reference_scan
from test_batched_spectra import _fail_eigh_on

# the package re-exports the ``scan`` function under the module's name
scan_module = importlib.import_module("spectral_cliques.scan")

#: the n = 6 battery's checks plus the conjecture; walk lengths 17 and 40
#: leave int64 on dense graphs of order 16 (40 leaves 128 bits too)
CHECKS = {
    "wilf": {},
    "maxmu": {"s": [1, 2, 3, 4, 17, 40]},
    "maxmu1": {},
    "polyn": {},
    "theorem1": {"r": [2, 3, 4]},
    "theorem2": {"r": [2, 3]},
    "momo": {},
    "oldin": {"l": [2, 3]},
    "conjecture": {"r": [2, 3]},
}


@st.composite
def corpora(draw):
    """graph6 lines of mixed orders: random labeled graphs on 1..16
    vertices, balanced Turan hosts and complete graphs."""
    lines = []
    for _ in range(draw(st.integers(1, 20))):
        kind = draw(st.sampled_from(["random", "random", "random", "turan", "complete"]))
        if kind == "random":
            n = draw(st.integers(1, 16))
            g = graph_from_edge_mask(n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))
        elif kind == "turan":
            r = draw(st.integers(2, 4))
            g = turan_graph(r, r * draw(st.integers(1, 4)))
        else:
            g = complete_graph(draw(st.integers(1, 16)))
        lines.append(emit_graph6(g))
    return lines


def _scan_lines(lines, checks, top_k, tol_scale):
    fd, path = tempfile.mkstemp(suffix=".g6")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
        res = scan(CorpusSpec(kind="file", path=path),
                   ScanConfig(checks=checks, top_k=top_k, tol_scale=tol_scale))
    finally:
        os.unlink(path)
    out = res.to_json_dict(deterministic_timing=True)
    del out["timing_s"]
    return out


class TestScreenEquivalence:
    # a plan of a few checks leaves room among the tightest instances for
    # evaluations that hold clear of every threshold; with all of them,
    # equalities fill it
    @given(lines=corpora(), top_k=st.sampled_from([1, 10]),
           tol_scale=st.sampled_from([0.0, 1.0]), chunk=st.sampled_from([3, 7, 512]),
           fail=st.one_of(st.none(), st.integers(0, 19)),
           names=st.one_of(st.just(list(CHECKS)),
                           st.lists(st.sampled_from(list(CHECKS)), min_size=1,
                                    max_size=3, unique=True)))
    @settings(max_examples=60, deadline=None)
    def test_scan_matches_graph_by_graph_reference(self, lines, top_k, tol_scale,
                                                   chunk, fail, names):
        checks = {name: CHECKS[name] for name in names}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scan_module, "_CHUNK_ITEMS", chunk)
            if fail is not None:
                _fail_eigh_on(mp, parse_graph6(lines[fail % len(lines)]))
            got = _scan_lines(lines, checks, top_k, tol_scale)
            want = reference_scan(lines, checks, top_k, tol_scale)
        assert got == want

    def test_every_screened_check_is_covered(self):
        screened = {name for name, check in scan_module.CHECKS.items() if check.screen}
        assert screened == set(CHECKS)


class TestMargin:
    """Two labelings of one graph whose theorem1 (r = 4) slacks are equal in
    Python's arithmetic; numpy's ``**`` makes the first one's screened slack
    larger in the last bits.  The first wins the tie on its graph6 string,
    so only the margin keeps it among the tightest."""

    LINES = ["DbO", "DsO"]
    CHECK = {"theorem1": {"r": [4]}}

    def _tightest(self, margin, monkeypatch):
        monkeypatch.setattr(screen, "SCREEN_MARGIN", margin)
        return _scan_lines(self.LINES, self.CHECK, 1, 1.0)["tightest"]

    def test_reference_agrees(self, monkeypatch):
        want = reference_scan(self.LINES, self.CHECK, 1, 1.0)["tightest"]
        assert self._tightest(screen.SCREEN_MARGIN, monkeypatch) == want
        assert [rec["graph6"] for rec in want] == ["DbO"]

    def test_zero_margin_changes_the_output(self, monkeypatch):
        [a, b] = (parse_graph6(line) for line in self.LINES)
        block = screen.Block([a, b], [0, 1], True, False)
        screened = screen.screen_theorem1(block, {"r": 4}, scan_module.DEFAULT_TOLS)
        exact = [run_check("theorem1", g, {"r": 4})[0].slack for g in (a, b)]
        if screened.slack[0, 0] <= screened.slack[1, 0] or exact[0] != exact[1]:
            pytest.skip("numpy's ** agrees with Python's on these eigenvalues here")
        want = self._tightest(screen.SCREEN_MARGIN, monkeypatch)
        assert self._tightest(0.0, monkeypatch) != want

    def test_negative_margin_changes_the_output(self, monkeypatch):
        want = self._tightest(screen.SCREEN_MARGIN, monkeypatch)
        assert self._tightest(-1e-9, monkeypatch) != want


def test_pivot_tree_runs_once_per_graph(monkeypatch):
    roots = []
    tree = cliques._pivot_tree

    def spy(adj, cand, pre, w, rows):
        if pre == 1:  # a root call; every node below holds a vertex or pivot
            roots.append(adj)
        return tree(adj, cand, pre, w, rows)

    monkeypatch.setattr(cliques, "_pivot_tree", spy)
    res = scan(CorpusSpec(kind="exhaustive", n=5),
               ScanConfig(checks={"wilf": {}, "oldin": {"l": [2]}}))
    assert len(roots) == res.graphs_checked == 1024
