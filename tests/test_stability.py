import json
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_cliques import (build_graph, cycle_graph, edge_corollary_check,
                              emit_graph6, find_stability_witness, random_graph,
                              stability_premise, stability_report, turan_graph,
                              verify_witness, witness_thresholds)
from spectral_cliques import stability
from spectral_cliques.bounds import DEFAULT_TOLS
from spectral_cliques.cliques import proper_coloring
from spectral_cliques.cli import main
from spectral_cliques.stability import StabilityWitness, alpha_limit

from oracles import exhaustive_witness


class TestPremise:
    def test_t28(self):
        assert stability_premise(turan_graph(2, 8), 2, 0)

    def test_c5_fails(self, c5):
        assert not stability_premise(c5, 2, 0)

    def test_k4_not_kfree(self, k4):
        assert not stability_premise(k4, 2, 0)

    def test_alpha_out_of_range(self):
        g = turan_graph(2, 8)
        assert not stability_premise(g, 2, alpha_limit(2) * 2)
        # a negative alpha is refused, not a failed premise
        with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
            stability_premise(g, 2, -0.1)

    @pytest.mark.parametrize("alpha", [-1, -0.5, "-1e-300", "nan", float("nan"),
                                       "inf", float("-inf")])
    def test_negative_or_non_finite_alpha_refused(self, alpha):
        g = turan_graph(2, 8)
        for call in (lambda: stability_premise(g, 2, alpha),
                     lambda: witness_thresholds(g.n, 2, alpha),
                     lambda: stability_report(g, 2, alpha)):
            with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
                call()

    def test_bad_r(self, c5):
        with pytest.raises(ValueError):
            stability_premise(c5, 1, 0)


class TestPremiseCertified:
    """The spectral premise is decided as every spectral slack is: on the
    balanced Turan hosts mu = (1 - 1/r) n exactly, so at alpha = 0 it sits
    on the cut.  At the default tolerance the brackets show it met; at
    tolerance 0 no positive-width bracket can show a slack of exactly 0,
    so it is undecided, not failed."""

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_turan_hosts_meet_the_premise(self, r):
        for q in range(1, 9):
            g = turan_graph(r, q * r)
            assert stability_premise(g, r, 0) is True
            rep = edge_corollary_check(g, r, 0)
            assert rep.in_domain and rep.holds and rep.equality

    G6 = emit_graph6(turan_graph(4, 12))

    def test_tol_zero_witness_premise_inconclusive(self, capsys):
        assert self.G6 == "KFzf~z{~~~^{"
        assert main(["--tol", "0", "witness", "--g6", self.G6, "--r", "4",
                     "--alpha", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "premise-inconclusive"
        assert payload["premise_ok"] is False and payload["witness"] is None

    def test_tol_zero_edge_corollary_inconclusive(self, capsys):
        assert main(["--tol", "0", "check", "--g6", self.G6, "--check", "edge_corollary",
                     "--r", "4", "--alpha", "0"]) == 0
        [entry] = json.loads(capsys.readouterr().out)
        assert entry["status"] == "inconclusive" and entry["slack"] is None

    def test_tol_zero_scan_counts_no_ood(self, tmp_path, capsys):
        corpus = tmp_path / "t.g6"
        corpus.write_text(self.G6 + "\n")
        assert main(["--tol", "0", "scan", "--file", str(corpus), "--check", "stability",
                     "--check", "edge_corollary", "--r", "4", "--alpha", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["out_of_domain"] == 0
        assert out["violations"] == out["equalities"] == out["tightest"] == []


class TestThresholds:
    def test_t36_values(self):
        a = 2 ** -10 * 3 ** -6
        order_min, degree_min = witness_thresholds(6, 3, a)
        c = a ** (1 / 3)
        assert order_min == pytest.approx((1 - 3 * c) * 6)
        assert degree_min == pytest.approx((2 / 3 - 6 * c) * 6)
        assert 5.7 < order_min < 6.0
        assert 3.5 < degree_min < 4.0


class TestWitnessSearch:
    def test_t36_whole_graph(self, t36):
        a = 2 ** -10 * 3 ** -6
        w = find_stability_witness(t36, 3, a)
        assert w is not None
        assert w.order == 6 and w.min_degree == 4
        assert verify_witness(t36, 3, a, w)

    def test_premise_enforced(self, c5):
        with pytest.raises(ValueError, match="does not hold"):
            find_stability_witness(c5, 2, 1e-5)

    def test_undecided_premise_named(self):
        # mu = 9 sits on the cut, which no bracket decides at tolerance 0
        g = turan_graph(4, 12)
        tols = DEFAULT_TOLS.scaled(0)
        assert stability_premise(g, 4, 0, tols) is None
        with pytest.raises(ValueError, match="undecided"):
            find_stability_witness(g, 4, 0, tols)

    # the ids name the order ranges the search was once split by: the
    # fixtures, orders up to 16 (the former subset search) and above 16 (the
    # former heuristic); one search now serves all three
    @pytest.mark.parametrize("orders", [None, "exhaustive", "heuristic"])
    def test_premise_decided_once_per_verdict(self, orders, t36, c5, monkeypatch):
        hosts = {None: ((t36, 3, "witnessed"), (c5, 2, "premise-failed")),
                 "exhaustive": ((turan_graph(2, 16), 2, "witnessed"),
                                (cycle_graph(15), 2, "premise-failed")),
                 "heuristic": ((turan_graph(3, 18), 3, "witnessed"),
                               (cycle_graph(17), 2, "premise-failed"))}[orders]
        decided = []
        premise = stability.stability_premise

        def spy(g, *args):
            decided.append(g)
            return premise(g, *args)

        monkeypatch.setattr(stability, "stability_premise", spy)
        for g, r, verdict in hosts:
            decided.clear()
            assert stability_report(g, r, 0).verdict == verdict
            assert decided == [g]

    def test_exhaustive_budget(self):
        # the search is exact above 16 vertices too
        g = turan_graph(2, 18)
        w = find_stability_witness(g, 2, 0)
        assert w is not None and w.order == 18 and w.partition == (tuple(range(9)),
                                                                   tuple(range(9, 18)))

    def test_alpha_zero_boundary(self):
        g = turan_graph(2, 8)
        w = find_stability_witness(g, 2, 0)
        assert w is not None and w.order == 8
        assert verify_witness(g, 2, 0, w)
        rep = stability_report(g, 2, 0)
        assert rep.boundary and rep.verdict == "witnessed"

    @pytest.mark.parametrize("r,n", [(2, 6), (2, 8), (2, 10), (2, 12),
                                     (3, 6), (3, 9), (3, 12)])
    def test_turan_family(self, r, n):
        g = turan_graph(r, n)
        a = alpha_limit(r)
        assert stability_premise(g, r, a)
        w = find_stability_witness(g, r, a)
        assert w is not None
        assert verify_witness(g, r, a, w)

    def test_balanced_turan_hosts_witnessed_whole(self):
        for r in range(2, 65):
            for n in range(r, 65, r):
                g = turan_graph(r, n)
                for a in (0, alpha_limit(r)):
                    w = stability._search_witness(g, r, a)
                    assert w is not None and w.order == n, (r, n, a)
                    assert w.partition == proper_coloring(g, r)

    @given(st.integers(min_value=1, max_value=12), st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=2 ** 32), st.sampled_from([2, 3, 4]),
           st.sampled_from([0.0, None, 0.003, 0.01, 0.03]))
    @settings(max_examples=150, deadline=None)
    def test_search_matches_the_subset_oracle(self, n, p, seed, r, alpha):
        # alphas above the limit allow several deletions
        g = random_graph(n, p, seed)
        a = alpha_limit(r) if alpha is None else alpha
        assert stability._search_witness(g, r, a) == exhaustive_witness(g, r, a)

    @pytest.mark.parametrize("host", ["k32_32_plus_5", "c5_blowup_60"])
    def test_order_64_misses_end_quickly(self, host):
        if host == "k32_32_plus_5":
            edges = [(u, v) for u in range(32) for v in range(32, 64)]
            g = build_graph(64, edges + [(0, 1), (2, 3), (4, 5), (32, 33), (34, 35)])
        else:
            edges = [(u, v) for i in range(5) for u in range(12 * i, 12 * i + 12)
                     for v in range(12 * (i + 1) % 60, 12 * (i + 1) % 60 + 12)]
            g = build_graph(60, edges)
        start = time.perf_counter()
        assert stability._search_witness(g, 2, alpha_limit(2)) is None
        assert time.perf_counter() - start < 1.0


class TestVerifyWitness:
    def _witness(self, t36):
        a = 2 ** -10 * 3 ** -6
        return a, find_stability_witness(t36, 3, a)

    def test_tampered_partition_fails(self, t36):
        a, w = self._witness(t36)
        # swap two vertices across classes so a class gains an internal edge
        bad = replace(w, partition=((0, 2), (1, 3), (4, 5)))
        assert not verify_witness(t36, 3, a, bad)

    def test_short_witness_fails(self, t36):
        a, _ = self._witness(t36)
        small = StabilityWitness(vertices=0b1111, partition=((0, 1), (2, 3)),
                                 order=4, min_degree=2)
        assert not verify_witness(t36, 3, a, small)

    def test_vertices_outside_graph(self, t36):
        a, w = self._witness(t36)
        bad = replace(w, vertices=w.vertices | 1 << 10)
        with pytest.raises(ValueError):
            verify_witness(t36, 3, a, bad)

    def test_classes_not_covering(self, t36):
        a, w = self._witness(t36)
        bad = replace(w, partition=w.partition[:-1])
        with pytest.raises(ValueError):
            verify_witness(t36, 3, a, bad)

    def test_too_many_classes(self, t36):
        a, w = self._witness(t36)
        # a 4-class partition is not a 3-partition
        bad = replace(w, partition=((0, 1), (2,), (3,), (4, 5)))
        assert not verify_witness(t36, 3, a, bad)


class TestReport:
    def test_premise_failed_report(self, c5):
        rep = stability_report(c5, 2, 1e-5)
        assert not rep.premise_ok and rep.verdict == "premise-failed"
        assert rep.witness is None

    def test_witnessed_report_serializes(self, t36):
        rep = stability_report(t36, 3, 2 ** -10 * 3 ** -6)
        d = rep.to_dict()
        assert d["verdict"] == "witnessed"
        assert d["witness"]["order"] == 6
        assert d["thresholds"]["order_min"] < 6

    def test_no_exhaustive_miss_on_premise_satisfying_samples(self):
        # bipartite-ish near-extremal inputs for r = 2
        for seed in range(40):
            g = random_graph(8, 0.5, seed)
            for r in (2, 3):
                a = alpha_limit(r)
                if stability_premise(g, r, a):
                    assert find_stability_witness(g, r, a) is not None
