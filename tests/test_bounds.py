import math
from fractions import Fraction

import pytest

from spectral_cliques import (clique_counts, complete_graph, conjecture_check,
                              edge_corollary_check, empty_graph,
                              is_complete_multipartite_plus_isolated,
                              oldin_check, path_graph, polyn_bound,
                              random_graph, theorem1_bound, theorem2_lower,
                              theorem3_conditional, turan_edge_bound,
                              turan_graph, walk_power_bound, wilf_bound)
from spectral_cliques.bounds import Tolerances
from spectral_cliques.scan import run_check

from oracles import enumerate_labeled, reference_outcomes


class TestWilf:
    def test_k3_equality(self, k3):
        rep = wilf_bound(k3)
        assert rep.lhs == pytest.approx(2.0, abs=1e-9)
        assert rep.rhs == pytest.approx(2.0)
        assert rep.holds and rep.equality

    def test_c5(self, c5):
        rep = wilf_bound(c5)
        assert rep.rhs == pytest.approx(2.5)
        assert rep.slack == pytest.approx(0.5, abs=1e-9)
        assert rep.holds and not rep.equality

    def test_empty(self):
        rep = wilf_bound(empty_graph(4))
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.equality


class TestWalkPower:
    def test_k3_s3_equality(self, k3):
        rep = walk_power_bound(k3, 3)
        assert rep.lhs == pytest.approx(8.0, abs=1e-8)
        assert rep.rhs == pytest.approx(8.0)
        assert rep.equality

    def test_c5_s2(self, c5):
        rep = walk_power_bound(c5, 2)
        assert rep.lhs == pytest.approx(4.0, abs=1e-9)
        assert rep.rhs == pytest.approx(5.0)

    def test_s1_matches_wilf(self, c5):
        a = walk_power_bound(c5, 1)
        b = wilf_bound(c5)
        assert a.lhs == pytest.approx(b.lhs) and a.rhs == pytest.approx(b.rhs)

    def test_bad_s(self, c5):
        with pytest.raises(ValueError):
            walk_power_bound(c5, 0)


class TestTuranEdge:
    def test_t24_equality(self):
        rep = turan_edge_bound(turan_graph(2, 4))
        assert rep.lhs == 4.0 and rep.rhs == pytest.approx(4.0)
        assert rep.equality and rep.exact

    def test_c5(self, c5):
        rep = turan_edge_bound(c5)
        assert rep.rhs == pytest.approx(6.25)
        assert rep.holds and not rep.equality

    def test_k4_equality(self, k4):
        rep = turan_edge_bound(k4)
        assert rep.lhs == 6.0 and rep.rhs == pytest.approx(6.0)
        assert rep.equality


class TestPolyn:
    def test_k3_equality(self, k3):
        rep = polyn_bound(k3)
        assert rep.lhs == pytest.approx(8.0, abs=1e-8)
        assert rep.rhs == pytest.approx(8.0, abs=1e-8)
        assert rep.equality

    def test_k22_equality(self, k22):
        rep = polyn_bound(k22)
        assert rep.lhs == pytest.approx(4.0, abs=1e-9)
        assert rep.rhs == pytest.approx(4.0)
        assert rep.equality

    def test_c5_strict(self, c5):
        rep = polyn_bound(c5)
        assert rep.lhs == pytest.approx(4.0, abs=1e-9)
        assert rep.rhs == pytest.approx(5.0)
        assert rep.holds and not rep.equality

    def test_omega_one(self):
        rep = polyn_bound(empty_graph(3))
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.equality

    def test_equality_iff_recognizer_n4(self):
        for g in enumerate_labeled(4):
            assert polyn_bound(g).equality == \
                is_complete_multipartite_plus_isolated(g)[0]


class TestTheorem1:
    def test_k3_r2(self, k3):
        rep = theorem1_bound(k3, 2)
        assert rep.lhs == pytest.approx(8.0, abs=1e-8)
        assert rep.rhs == pytest.approx(9.0, abs=1e-8)
        assert rep.holds

    def test_c5_r2(self, c5):
        rep = theorem1_bound(c5, 2)
        assert rep.lhs == pytest.approx(8.0, abs=1e-8)
        assert rep.rhs == pytest.approx(10.0, abs=1e-8)

    def test_k22_r3_equality(self, k22):
        rep = theorem1_bound(k22, 3)
        assert rep.lhs == pytest.approx(16.0, abs=1e-8)
        assert rep.rhs == pytest.approx(16.0, abs=1e-8)
        assert rep.equality

    @pytest.mark.parametrize("n", [4, 5])
    def test_at_omega_reproduces_polyn_verdict(self, n):
        for g in enumerate_labeled(n):
            omega = clique_counts(g).omega
            if omega < 2:
                continue
            a = theorem1_bound(g, omega)
            b = polyn_bound(g)
            assert a.holds == b.holds
            assert a.equality == b.equality

    def test_bad_r(self, k3):
        with pytest.raises(ValueError):
            theorem1_bound(k3, 1)


class TestTheorem2:
    def test_k4(self, k4):
        rep = theorem2_lower(k4, 2)
        assert rep.lhs == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert rep.rhs == 4.0
        assert rep.holds

    def test_t24_equality(self):
        rep = theorem2_lower(turan_graph(2, 4), 2)
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.rhs == 0.0
        assert rep.holds and rep.equality

    def test_c5_vacuous(self, c5):
        rep = theorem2_lower(c5, 2)
        assert rep.lhs < 0 and rep.rhs == 0.0
        assert rep.holds


class TestTheorem3:
    def test_k4_quarter(self, k4):
        rep = theorem3_conditional(k4, 2, 1, Fraction(1, 4))
        assert rep.in_domain  # 2 < omega(K4) = 4
        # the premise holds (12 >= 16 * 3/4), so the conclusion has a slack
        assert rep.lhs == pytest.approx(8.0 / 3.0)
        assert rep.rhs == 4.0
        assert rep.slack == pytest.approx(4.0 / 3.0)
        assert rep.exact and rep.holds and not rep.equality

    def test_alpha_zero_trivial_conclusion(self, k4):
        rep = theorem3_conditional(k4, 2, 1, 0)
        assert rep.lhs == 0.0
        assert rep.holds

    def test_failed_premise_is_vacuous(self, k4):
        # 12 < 16 * (1/2 + 9/10): a holds with the conclusion's sides, no slack
        rep = theorem3_conditional(k4, 2, 1, Fraction(9, 10))
        assert rep.in_domain
        assert rep.lhs == pytest.approx(9.6) and rep.rhs == 4.0
        assert rep.slack is None
        assert rep.holds and not rep.equality

    def test_c5_out_of_domain(self, c5):
        rep = theorem3_conditional(c5, 2, 1, Fraction(1, 10))
        assert not rep.in_domain  # omega(C5) = 2 is not > r = 2

    def test_alpha_string_and_float_accepted(self, k4):
        a = theorem3_conditional(k4, 2, 1, "0.25")
        b = theorem3_conditional(k4, 2, 1, 0.25)
        assert a.params == b.params == {"r": 2, "s": 1, "alpha": 0.25}
        assert (a.slack, a.holds) == (b.slack, b.holds)

    def test_param_domain(self, k4):
        with pytest.raises(ValueError):
            theorem3_conditional(k4, 2, 3, 0)
        with pytest.raises(ValueError):
            theorem3_conditional(k4, 2, 1, -1)


class TestConjecture:
    def test_t24_equality(self):
        rep = conjecture_check(turan_graph(2, 4), 2)
        assert rep.in_domain
        assert rep.lhs == pytest.approx(4.0, abs=1e-9)
        assert rep.rhs == pytest.approx(4.0)
        assert rep.holds and rep.equality
        assert rep.refined  # equality sits in the re-verification band

    def test_c5(self, c5):
        rep = conjecture_check(c5, 2)
        mu2 = 2.0 * math.cos(2.0 * math.pi / 5.0)
        assert rep.lhs == pytest.approx(4.0 + mu2 ** 2, abs=1e-9)
        assert rep.rhs == pytest.approx(5.0)
        assert rep.holds

    def test_t36_equality_r3(self, t36):
        rep = conjecture_check(t36, 3)
        assert rep.lhs == pytest.approx(16.0, abs=1e-9)
        assert rep.rhs == pytest.approx(16.0)
        assert rep.equality

    def test_not_kfree_out_of_domain(self, k4):
        assert not conjecture_check(k4, 2).in_domain

    def test_small_order_out_of_domain(self):
        # on order r the complete graph exceeds the bound; the claim starts
        # at order r+1
        assert not conjecture_check(complete_graph(2), 2).in_domain
        assert not conjecture_check(complete_graph(3), 3).in_domain

    def test_p4_equality(self):
        # golden-ratio eigenvalues make the two-eigenvalue sum exactly m
        rep = conjecture_check(path_graph(4), 2)
        assert rep.equality


class TestOldin:
    def test_k3_equality(self, k3):
        rep = oldin_check(k3, 2, 2)
        assert rep.lhs == 18.0 and rep.rhs == 18.0
        assert rep.exact and rep.equality

    def test_c5(self, c5):
        rep = oldin_check(c5, 2, 2)
        assert rep.lhs == 40.0 and rep.rhs == 50.0
        assert rep.holds and not rep.equality

    def test_integer_sides_smoke(self):
        for seed in range(10):
            g = random_graph(7, 0.6, seed)
            if clique_counts(g).omega < 2:
                continue
            rep = oldin_check(g, 2, 2)
            assert rep.exact and rep.holds
            assert rep.lhs == int(rep.lhs) and rep.rhs == int(rep.rhs)

    def test_domain(self, c5):
        assert not oldin_check(c5, 3, 2).in_domain  # s > omega
        assert not oldin_check(c5, 1, 2).in_domain  # s < 2
        with pytest.raises(ValueError):
            oldin_check(c5, 2, 1)  # l < 2


class TestEdgeCorollary:
    def test_t24(self):
        rep = edge_corollary_check(turan_graph(2, 4), 2, 0)
        assert rep.in_domain
        assert rep.lhs == pytest.approx(4.0) and rep.rhs == 4.0
        assert rep.equality

    def test_t36(self, t36):
        rep = edge_corollary_check(t36, 3, 0)
        assert rep.in_domain
        assert rep.lhs == pytest.approx(12.0) and rep.rhs == 12.0
        assert rep.equality

    def test_c5_premise_fails(self, c5):
        assert not edge_corollary_check(c5, 2, 0).in_domain


_ALPHAS = ("0", "0.05", "0.25")
ORACLE_GRID = {
    "theorem3": [{"r": r, "s": s, "alpha": a} for r in (2, 3)
                 for s in (None, 1, 2, 3, 4) for a in _ALPHAS],
    "oldin": [{"s": s, "l": l} for s in (None, 1, 2, 3, 5) for l in (2, 3)],
    "edge_corollary": [{"r": r, "alpha": a} for r in (2, 3) for a in _ALPHAS],
}


class TestImplicationOracle:
    """``run_check``'s outcomes of theorem3, oldin and edge_corollary (status,
    sides and slack) equal those of an oracle that reads the paper's
    statements in Fractions on brute-force clique and walk counts, on every
    labeled graph with n <= 5, with default and explicit s (some out of
    range)."""

    @pytest.mark.parametrize("check", sorted(ORACLE_GRID))
    def test_statuses_agree(self, check):
        seen, undecided, vacuous = set(), 0, 0
        for n in range(1, 6):
            for g in enumerate_labeled(n):
                for params in ORACLE_GRID[check]:
                    want = reference_outcomes(check, g, params)
                    if want is None:
                        undecided += 1
                        continue
                    got = [(oc.params, oc.status, oc.lhs, oc.rhs, oc.slack)
                           for oc in run_check(check, g, params)]
                    assert got == want, (n, g.adj, params)
                    seen.update(status for _, status, *_ in want)
                    vacuous += sum(o[1] == "holds" and o[4] is None for o in want)
        # n <= 5 has no theorem3 equality, and edge_corollary's are the
        # premise ties left to the Turan host tests
        assert seen == {"holds", "ood"} | ({"equality"} if check == "oldin" else set())
        assert (vacuous > 0) == (check == "theorem3")
        assert undecided <= 100


class TestToleranceScaling:
    def test_scaled(self):
        tols = Tolerances().scaled(10.0)
        assert tols.hold == pytest.approx(1e-6)
        assert tols.equality == pytest.approx(1e-5)


class TestExhaustiveSmall:
    """Every hard bound holds on all 1024 labeled graphs of order 5."""

    def test_no_violation_n5(self):
        for g in enumerate_labeled(5):
            assert wilf_bound(g).holds
            for s in (1, 2, 3):
                assert walk_power_bound(g, s).holds
            assert turan_edge_bound(g).holds
            assert polyn_bound(g).holds
            for r in (2, 3):
                assert theorem1_bound(g, r).holds
                assert theorem2_lower(g, r).holds
