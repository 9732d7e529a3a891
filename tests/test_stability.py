import json
from dataclasses import replace

import pytest

from spectral_cliques import (edge_corollary_check, emit_graph6,
                              find_stability_witness, random_graph,
                              stability_premise, stability_report, turan_graph,
                              verify_witness, witness_thresholds)
from spectral_cliques import stability
from spectral_cliques.cli import main
from spectral_cliques.stability import StabilityWitness, alpha_limit


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
        w = find_stability_witness(t36, 3, a, "exhaustive")
        assert w is not None
        assert w.order == 6 and w.min_degree == 4
        assert verify_witness(t36, 3, a, w)

    def test_t36_heuristic(self, t36):
        a = 2 ** -10 * 3 ** -6
        w = find_stability_witness(t36, 3, a, "heuristic")
        assert w is not None and w.order == 6
        assert verify_witness(t36, 3, a, w)

    def test_premise_enforced(self, c5):
        with pytest.raises(ValueError):
            find_stability_witness(c5, 2, 1e-5)

    @pytest.mark.parametrize("mode", [None, "exhaustive", "heuristic"])
    def test_premise_decided_once_per_verdict(self, mode, t36, c5, monkeypatch):
        decided = []
        premise = stability.stability_premise

        def spy(g, *args):
            decided.append(g)
            return premise(g, *args)

        monkeypatch.setattr(stability, "stability_premise", spy)
        for g, r, verdict in ((t36, 3, "witnessed"), (c5, 2, "premise-failed")):
            decided.clear()
            assert stability_report(g, r, 0, mode).verdict == verdict
            assert decided == [g]

    def test_exhaustive_budget(self):
        g = turan_graph(2, 18)
        with pytest.raises(ValueError):
            find_stability_witness(g, 2, 0, "exhaustive")

    def test_alpha_zero_boundary(self):
        g = turan_graph(2, 8)
        w = find_stability_witness(g, 2, 0, "exhaustive")
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
        w = find_stability_witness(g, r, a, "exhaustive")
        assert w is not None
        assert verify_witness(g, r, a, w)

    def test_heuristic_never_beats_exhaustive(self):
        for r, n in [(2, 6), (2, 8), (3, 6), (3, 9)]:
            g = turan_graph(r, n)
            a = alpha_limit(r)
            we = find_stability_witness(g, r, a, "exhaustive")
            wh = find_stability_witness(g, r, a, "heuristic")
            if wh is not None:
                assert wh.order <= we.order


class TestVerifyWitness:
    def _witness(self, t36):
        a = 2 ** -10 * 3 ** -6
        return a, find_stability_witness(t36, 3, a, "exhaustive")

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
                    assert find_stability_witness(g, r, a, "exhaustive") is not None
