"""The scan's array screen: scans report exactly what the graph-by-graph
reporting path reports, the margin is what keeps them equal, and a
block's arrays reuse one walk of its graphs' pivot trees."""

import importlib
import math
import os
import tempfile
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_cliques import (build_graph, cliques, complete_graph, cycle_graph, emit_graph6,
                              graph_from_edge_mask, parse_graph6, random_graph,
                              run_check, screen, turan_graph)
from spectral_cliques import bounds
from spectral_cliques.cli import main
from spectral_cliques.cliques import is_kfree
from spectral_cliques.graphs import mix64
from spectral_cliques.scan import CorpusSpec, ScanConfig, scan
from spectral_cliques.spectral import spectrum
from spectral_cliques.stability import alpha_limit

from oracles import reference_scan
from test_batched_spectra import _fail_lapack_on
from test_scan import CHUNK_BOUNDS, set_chunk_bounds

# the package re-exports the ``scan`` function under the module's name
scan_module = importlib.import_module("spectral_cliques.scan")

#: the n = 6 battery's checks, the conjecture and the two spectral-premise
#: checks; walk lengths 17 and 40 leave int64 on dense graphs of order 16
#: (40 leaves 128 bits too).  Stability runs at its default alpha (None),
#: at 0 and above every r's limit; edge_corollary at 0 and at 0.01, where
#: a Turan host less one edge can meet the premise.
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
    "stability": {"r": [2, 3, 4], "alpha": [None, 0, 1e-3]},
    "edge_corollary": {"r": [2, 3], "alpha": [0, 0.01]},
    "theorem3": {"r": [1, 2, 3], "alpha": [0, 0.05]},
}

#: the two checks that expand s per graph, on explicit s grids: oldin's
#: s = 5 is out of domain below omega 5, theorem3's s = 3 is dropped at r = 2
EXPLICIT_S = {
    "oldin": {"s": [2, 3, 5]},
    "theorem3": {"r": [2, 3], "s": [1, 3], "alpha": [0, 0.25]},
}


def _less_one_edge(g, pick):
    """``g`` without its ``pick``-th edge (modulo the edge count)."""
    edges = list(g.edges())
    if not edges:
        return g
    del edges[pick % len(edges)]
    return build_graph(g.n, edges)


def _two_copies(g):
    """The disjoint union of two copies of ``g``."""
    edges = list(g.edges())
    return build_graph(2 * g.n, edges + [(u + g.n, v + g.n) for u, v in edges])


@st.composite
def corpora(draw):
    """graph6 lines of mixed orders: random labeled graphs on 1..16
    vertices, complete graphs, and the near-extremal hosts of the spectral
    premise: balanced Turan hosts, a Turan host less one edge, and two
    disjoint equal Turan graphs.  Every order stays at most 16, so a failed
    exhaustive witness search stays short."""
    lines = []
    for _ in range(draw(st.integers(1, 20))):
        kind = draw(st.sampled_from(["random", "random", "random", "turan",
                                     "turan-less-edge", "two-turan", "complete"]))
        if kind == "random":
            n = draw(st.integers(1, 16))
            g = graph_from_edge_mask(n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))
        elif kind == "complete":
            g = complete_graph(draw(st.integers(1, 16)))
        else:
            r = draw(st.integers(2, 4))
            q = draw(st.integers(1, (8 if kind == "two-turan" else 16) // r))
            g = turan_graph(r, r * q)
            if kind == "turan-less-edge":
                g = _less_one_edge(g, draw(st.integers(0, 1000)))
            elif kind == "two-turan":
                g = _two_copies(g)
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
           tol_scale=st.sampled_from([0.0, 1.0]), bounds=st.sampled_from(CHUNK_BOUNDS),
           fail=st.one_of(st.none(), st.integers(0, 19)),
           names=st.one_of(st.just(list(CHECKS)),
                           st.lists(st.sampled_from(list(CHECKS)), min_size=1,
                                    max_size=3, unique=True)))
    @settings(max_examples=60, deadline=None)
    def test_scan_matches_graph_by_graph_reference(self, lines, top_k, tol_scale,
                                                   bounds, fail, names):
        checks = {name: CHECKS[name] for name in names}
        with pytest.MonkeyPatch.context() as mp:
            set_chunk_bounds(mp, bounds)
            if fail is not None:
                _fail_lapack_on(mp, parse_graph6(lines[fail % len(lines)]))
            got = _scan_lines(lines, checks, top_k, tol_scale)
            want = reference_scan(lines, checks, top_k, tol_scale)
        assert got == want

    @given(lines=corpora(), top_k=st.sampled_from([1, 10]),
           tol_scale=st.sampled_from([0.0, 1.0]), bounds=st.sampled_from(CHUNK_BOUNDS))
    @settings(max_examples=30, deadline=None)
    def test_explicit_s_matches_graph_by_graph_reference(self, lines, top_k, tol_scale,
                                                         bounds):
        with pytest.MonkeyPatch.context() as mp:
            set_chunk_bounds(mp, bounds)
            got = _scan_lines(lines, EXPLICIT_S, top_k, tol_scale)
            want = reference_scan(lines, EXPLICIT_S, top_k, tol_scale)
        assert got == want

    def test_every_screened_check_is_covered(self):
        screened = {name for name, check in scan_module.CHECKS.items() if check.screen}
        assert screened == set(CHECKS)


class TestMargin:
    """Two labelings of one graph (P4 and an isolated vertex) whose
    theorem1 (r = 4) slacks are equal on their ``eigh`` spectra, as
    printed; the screen's ``eigvalsh`` gives the first a smaller spectral
    radius in the last bits, and so a larger screened slack.  The first
    wins the tie on its graph6 string, so only the margin keeps it among
    the tightest."""

    LINES = ["DOo", "DP_"]
    CHECK = {"theorem1": {"r": [4]}}

    def _tightest(self, margin, monkeypatch):
        monkeypatch.setattr(screen, "SCREEN_MARGIN", margin)
        return _scan_lines(self.LINES, self.CHECK, 1, 1.0)["tightest"]

    def test_reference_agrees(self, monkeypatch):
        want = reference_scan(self.LINES, self.CHECK, 1, 1.0)["tightest"]
        assert self._tightest(screen.SCREEN_MARGIN, monkeypatch) == want
        assert [rec["graph6"] for rec in want] == ["DOo"]

    def test_zero_margin_changes_the_output(self, monkeypatch):
        [a, b] = (parse_graph6(line) for line in self.LINES)
        block = screen.Block([a, b], [0, 1], False)
        screened = scan_module.CHECKS["theorem1"].screen(block, {"r": 4},
                                                         scan_module.DEFAULT_TOLS)
        exact = [run_check("theorem1", g, {"r": 4})[0].slack for g in (a, b)]
        if screened.slack[0, 0] <= screened.slack[1, 0] or exact[0] != exact[1]:
            pytest.skip("the screen's arithmetic agrees with the printed one here")
        want = self._tightest(screen.SCREEN_MARGIN, monkeypatch)
        assert self._tightest(0.0, monkeypatch) != want

    def test_negative_margin_changes_the_output(self, monkeypatch):
        want = self._tightest(screen.SCREEN_MARGIN, monkeypatch)
        assert self._tightest(-1e-9, monkeypatch) != want


class TestPremiseMargin:
    """At alpha 0, T(2, 2q) sits on the spectral premise's cut: mu = q,
    exactly (1 - 1/2) 2q, and so is its LAPACK spectral radius.  The screen
    sends it to the reporting path.  At the default tolerance the brackets
    certify the premise, and edge_corollary reports an equality; at
    tolerance 0 no bracket can show a slack of exactly 0, so both checks
    are inconclusive, neither out of domain nor reported.  A negative
    margin screens them out as out of domain at tolerance 0."""

    LINES = [emit_graph6(turan_graph(2, 2 * q)) for q in (2, 3, 4)]
    CHECK = {"stability": {"r": [2], "alpha": [0]},
             "edge_corollary": {"r": [2], "alpha": [0]}}

    def _scan(self, margin, monkeypatch, tol_scale=0.0):
        monkeypatch.setattr(screen, "SCREEN_MARGIN", margin)
        return _scan_lines(self.LINES, self.CHECK, 10, tol_scale)

    def test_reference_agrees(self, monkeypatch):
        for tol_scale, equalities in ((1.0, len(self.LINES)), (0.0, 0)):
            want = reference_scan(self.LINES, self.CHECK, 10, tol_scale)
            assert self._scan(screen.SCREEN_MARGIN, monkeypatch, tol_scale) == want
            assert want["out_of_domain"] == 0
            assert len(want["equalities"]) == equalities

    def test_negative_margin_changes_the_output(self, monkeypatch):
        want = self._scan(screen.SCREEN_MARGIN, monkeypatch)
        assert self._scan(-1e-9, monkeypatch) != want


def test_premise_screen_reports_only_near_premise_pairs(monkeypatch):
    """Of the 32,768 labeled graphs of order 6, the reporting path sees only
    the (graph, r) pairs whose premise holds or sits within the margin of
    its cut; the count is deterministic and pins the screen's saving.  (On
    order 5 no pair meets the premise: a triangle-free graph of odd order n
    has mu <= sqrt((n^2 - 1) / 4) < n / 2.)"""
    calls = {"stability": 0, "edge_corollary": 0}
    original = scan_module.run_check

    def spy(check, g, params, tols):
        calls[check] += 1
        return original(check, g, params, tols)

    monkeypatch.setattr(scan_module, "run_check", spy)
    res = scan(CorpusSpec(kind="exhaustive", n=6),
               ScanConfig(checks={name: {"r": [2, 3]} for name in calls}))
    want = dict.fromkeys(calls, 0)
    hold = bounds.DEFAULT_TOLS.hold
    for mask in range(1 << 15):
        g = graph_from_edge_mask(6, mask)
        x = bounds.GraphView(g)
        for r in (2, 3):
            for name, alpha in (("stability", alpha_limit(r)), ("edge_corollary", 0)):
                lhs, rhs = bounds.SPECTRAL_PREMISE.sides(x, spectrum(g).mu, r=r, alpha=alpha)
                band = (hold + screen.SCREEN_MARGIN) * max(1.0, abs(lhs), abs(rhs))
                want[name] += is_kfree(g, r + 1) and rhs - lhs >= -band
    assert calls == want == {"stability": 25, "edge_corollary": 25}
    assert 0 < sum(want.values()) < res.graphs_checked // 100


def test_far_premise_failures_past_the_certification_cap_screened_out(monkeypatch):
    """Cycles of order 70 and 80 fail the spectral premise by far: the
    screen counts them out of domain without the reporting path, above
    CERTIFY_MAX_N too, as the graph-by-graph reference does."""
    monkeypatch.setenv("SCL_MAX_N", "80")
    lines = [emit_graph6(cycle_graph(n)) for n in (70, 80)]
    checks = {"stability": {"r": [2], "alpha": [0]},
              "edge_corollary": {"r": [2], "alpha": [0]}}
    calls = []
    original = scan_module.run_check
    monkeypatch.setattr(scan_module, "run_check",
                        lambda *args: calls.append(args) or original(*args))
    got = _scan_lines(lines, checks, 10, 1.0)
    assert calls == []
    assert got == reference_scan(lines, checks, 10, 1.0)
    assert got["out_of_domain"] == 4


def test_exact_counts_past_the_cap_step_aside():
    """oldin at l = 12 on K16 sums k_s(u) w_13(u) to about 10^19, past
    int64: the block refuses the walk counts at its cap, so the screen
    steps aside, and the scan reports what the graph-by-graph reference
    does.  Walks are counted only while every total is below the cap."""
    lines = [emit_graph6(complete_graph(16)), emit_graph6(turan_graph(4, 16))]
    b = screen.Block([parse_graph6(line) for line in lines], [0, 1], True)
    oldin = scan_module.CHECKS["oldin"].screen
    assert oldin(b, {"s": None, "l": 12}, scan_module.DEFAULT_TOLS) is None
    checks = {"oldin": {"l": [12]}}
    assert _scan_lines(lines, checks, 10, 1.0) == reference_scan(lines, checks, 10, 1.0)
    # On C64 and K64 the cap is 23,361,542.  K64's w_4 = 64 * 63^3 is below
    # it and w_5 = 64 * 63^4, about 1e9, is not: a read of length 5 or more
    # raises, and the rows up to 4 stay counted, exact.  Alone, C64 counts
    # up to w_19 = 64 * 2^18.
    b = screen.Block([cycle_graph(64), complete_graph(64)], [0, 1], False)
    assert b.cap == 23_361_542
    for l in (12, 5):
        with pytest.raises(OverflowError):
            b.walks(l)
        with pytest.raises(OverflowError):
            b.w(l)
    assert len(b._walks) == 5
    for l in range(1, 5):
        np.testing.assert_array_equal(b.walks(l), [[2 ** (l - 1)] * 64, [63 ** (l - 1)] * 64])
    np.testing.assert_array_equal(b.w(4), [64 * 8, 64 * 63 ** 3])
    c64 = screen.Block([cycle_graph(64)], [0], False)
    assert c64.w(19).tolist() == [64 * 2 ** 18]
    with pytest.raises(OverflowError):
        c64.w(20)


def test_long_walks_stop_at_the_cap():
    """maxmu at s = 10^6 on the first 4096 masks of order 6: the block
    stops counting walks at the first length whose total reaches the cap,
    a dozen or so steps in, so the screen steps aside at once rather than
    counting 10^6 lengths.  The scan reports what the graph-by-graph
    reference does, each mu^s overflowing to an ood outcome."""
    b = screen.Block.from_bits(6, np.arange(4096, dtype=np.int64), range(4096), False)
    maxmu = scan_module.CHECKS["maxmu"].screen
    with np.errstate(over="ignore"):
        assert maxmu(b, {"s": 10 ** 6}, scan_module.DEFAULT_TOLS) is None
    assert len(b._walks) < 20
    lines = [emit_graph6(g) for g in (complete_graph(6), cycle_graph(6), turan_graph(2, 6))]
    checks = {"maxmu": {"s": [10 ** 6]}}
    got = _scan_lines(lines, checks, 10, 1.0)
    assert got == reference_scan(lines, checks, 10, 1.0)
    assert got["out_of_domain"] == 3


def test_steady_walks_stop_counting():
    """A perfect matching and an edgeless graph, whose walk totals never
    reach the cap: w_l(u) = deg(u) from l = 2 on, so the block stops
    counting at the first step that changes nothing (l = 3) and serves
    every longer length from it."""
    graphs = [build_graph(6, [(0, 1), (2, 3), (4, 5)]), build_graph(6, [])]
    b = screen.Block(graphs, [0, 1], False)
    assert b.w(10 ** 9).tolist() == [6, 0]
    assert len(b._walks) == 4
    assert b.w(1).tolist() == [6, 6] and b.w(2).tolist() == [6, 0]


def test_clique_counts_past_the_cap_step_aside():
    """On K30 and T(5, 30) the block's cap is 48,983,879, and K30 has
    C(30, 15) = 155,117,520 15-cliques: every screen that reads a clique
    count past the cap steps aside (momo's too), wilf, which reads only
    omega and n, still screens, and the scan reports what the
    graph-by-graph reference does."""
    lines = [emit_graph6(complete_graph(30)), emit_graph6(turan_graph(5, 30))]
    b = screen.Block([parse_graph6(line) for line in lines], [0, 1], True)
    assert b.cap == 48_983_879 and b.cliques[0, 15] == b.cap
    checks = {"wilf": {}, "theorem1": {"r": [16]}, "polyn": {}, "momo": {},
              "oldin": {"l": [2]}}
    params = {"wilf": {}, "theorem1": {"r": 16}, "polyn": {}, "momo": {},
              "oldin": {"s": None, "l": 2}}
    screened = {name: scan_module.CHECKS[name].screen(b, params[name], scan_module.DEFAULT_TOLS)
                for name in checks}
    assert [name for name, sc in screened.items() if sc is not None] == ["wilf"]
    assert _scan_lines(lines, checks, 10, 1.0) == reference_scan(lines, checks, 10, 1.0)


def test_blocks_past_order_64_count_in_python_ints(monkeypatch):
    """k_40(K_80) = C(80, 40), about 10^23, is past int64: a block counts
    it exactly, clips it to the cap in its arrays, and primes the reported
    graph with the exact profiles."""
    monkeypatch.setenv("SCL_MAX_N", "80")
    b = screen.Block([complete_graph(80)], [0], True)
    assert b.cliques[0, 40] == b.vertex_cliques[0, 7, 41] == b.cap and b.omega[0] == 80
    [(_, g)] = b.reported(np.ones(1, dtype=bool))
    monkeypatch.setattr(cliques, "pivot_counts", None)  # only the memos can answer
    assert cliques.clique_counts(g).count(40) == math.comb(80, 40)
    assert cliques.vertex_clique_counts(g).count(7, 41) == math.comb(79, 40)


def _primed(counts: list[int]):
    """An edgeless graph of order counts[0] whose clique profile, which the
    block and the reporting path both read, is primed to ``counts``."""
    n = counts[0]
    g = build_graph(n, [])
    cliques.clique_counts.prime(g, cliques.CliqueProfile(
        tuple(counts) + (0,) * (n - len(counts)), len(counts)))
    return g


def _momo_verdicts(g):
    """Whether momo's screen reports ``g``, and its outcome on the
    reporting path.  The block counts nothing itself: it is handed the
    primed profile as its exact counts."""
    b = screen.Block([g], [0], False)
    b._exact = (np.array([(1, *cliques.clique_counts(g).counts)], dtype=np.int64), None)
    [oc] = run_check("momo", g, {})
    return bool(screen.screen_momo(b, {}, scan_module.DEFAULT_TOLS).exact[0]), oc


def test_momo_descent_goes_through_screen_and_report():
    """Moon-Moser is a theorem, so only a primed profile descends: n = 11,
    k = (11, 40, 80, 5), omega = 4 give rho = (-41/11, -5/2, -43/12),
    which descends at t = 2."""
    reported, oc = _momo_verdicts(_primed([11, 40, 80, 5]))
    assert reported
    assert oc.report.ratios == (Fraction(-41, 11), Fraction(-5, 2), Fraction(-43, 12))
    assert (oc.status, oc.params, oc.lhs, oc.rhs) == ("violation", {"t": 2}, -2.5, -43 / 12)


@settings(max_examples=200, deadline=None)
@given(st.integers(11, 16).flatmap(lambda n: st.lists(
    st.integers(1, 10 ** 6), max_size=n - 1).map(lambda rest: [n] + rest)))
def test_momo_screen_agrees_with_fractions(counts):
    """On a random primed profile the int64 screen reports a graph exactly
    where the ratio chain, in Fractions, descends, and the reporting path
    names the first descent."""
    n, k = counts[0], [None] + counts
    rho = [Fraction((t + 1) * k[t + 1], t * k[t]) - Fraction(n, t) for t in range(1, len(counts))]
    first = next((t for t in range(1, len(rho)) if rho[t] < rho[t - 1]), None)
    reported, oc = _momo_verdicts(_primed(counts))
    assert reported == (oc.status == "violation") == (first is not None)
    assert oc.params == ({} if first is None else {"t": first})


def test_pivot_tree_runs_once_per_graph(monkeypatch):
    """A block built from ``Graph``s (orders above ``MASK_MAX_N``) walks the
    pivot trees of all its graphs at once, and that one walk yields k_s and
    k_s(u) of every graph, its reported graphs included; a block built from
    edge bits walks none."""
    walks = []
    counted = cliques.pivot_counts

    def spy(graphs, vertex):
        walks.append((len(graphs), vertex))
        return counted(graphs, vertex)

    monkeypatch.setattr(screen, "pivot_counts", spy)
    monkeypatch.setattr(cliques, "pivot_counts", spy)  # a graph counted on its own
    checks = {"wilf": {}, "oldin": {"l": [2]}}
    lines = [emit_graph6(random_graph(11 + i % 3, 0.5, mix64(3, i))) for i in range(40)]
    assert _scan_lines(lines, checks, 10, 1.0)["graphs_checked"] == 40
    assert walks == [(14, True), (13, True), (13, True)]  # orders 11, 12 and 13
    walks.clear()
    res = scan(CorpusSpec(kind="exhaustive", n=5), ScanConfig(checks=checks))
    assert res.graphs_checked == 1024 and walks == []


def test_theorem3_screen_changes_no_output(monkeypatch, capsys):
    """The screened scan prints what the scan that evaluates every graph
    prints, with under a 25th of the evaluations (6,910 of 196,608).  At
    alpha = 0 the premise at s = r reads (r+1) k_{r+1} >= 0, so every graph
    in domain meets a premise; the screen decides its conclusion too, and
    reports only equalities, violations and the chunk's tightest slacks
    (ties included: many graphs share the least k_{r+1})."""
    argv = ["scan", "--exhaustive-n", "6", "--check", "theorem3", "--r", "2,3",
            "--alpha", "0,0.05,0.25"]
    calls = []
    original = scan_module.run_check

    def spy(check, g, params, tols):
        calls.append(check)
        return original(check, g, params, tols)

    monkeypatch.setattr(scan_module, "run_check", spy)
    assert main(argv) == 0
    screened, evaluated = capsys.readouterr().out, len(calls)
    monkeypatch.setitem(scan_module.CHECKS, "theorem3",
                        replace(scan_module.CHECKS["theorem3"], screen=None))
    calls.clear()
    assert main(argv) == 0
    assert capsys.readouterr().out == screened
    assert evaluated < len(calls) // 3
    assert evaluated < len(calls) // 25
