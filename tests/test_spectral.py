import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_cliques import (WalkOverflowError, build_graph, complete_graph,
                              cycle_graph, empty_graph, graph_from_edge_mask,
                              random_graph, spectral, spectral_radius, spectrum,
                              star_graph, walk_counts, walk_ratio_limit_check)

from oracles import brute_force_walks

graphs_strategy = st.builds(
    lambda n_mask: graph_from_edge_mask(*n_mask),
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(
            min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))))


class TestSpectrum:
    def test_k3(self, k3):
        vals = spectrum(k3).eigenvalues
        assert vals == pytest.approx((2.0, -1.0, -1.0), abs=1e-9)

    def test_turan_t36(self, t36):
        vals = spectrum(t36).eigenvalues
        assert vals == pytest.approx((4.0, 0.0, 0.0, 0.0, -2.0, -2.0), abs=1e-9)

    def test_empty(self):
        assert spectrum(empty_graph(4)).eigenvalues == (0.0, 0.0, 0.0, 0.0)

    def test_star_k13(self):
        vals = spectrum(star_graph(3)).eigenvalues
        root3 = math.sqrt(3.0)
        assert vals == pytest.approx((root3, 0.0, 0.0, -root3), abs=1e-9)

    def test_c5_cycle_formula(self, c5):
        # cycle eigenvalues are 2 cos(2 pi k / n)
        expect = sorted((2.0 * math.cos(2.0 * math.pi * k / 5) for k in range(5)),
                        reverse=True)
        assert spectrum(c5).eigenvalues == pytest.approx(expect, abs=1e-9)

    @given(graphs_strategy)
    @settings(max_examples=40, deadline=None)
    def test_trace_identities(self, g):
        sp = spectrum(g)
        assert abs(sum(sp.eigenvalues)) <= 1e-8 * g.n
        assert abs(sum(x * x for x in sp.eigenvalues) - 2 * g.m) <= 1e-8 * g.n ** 2



class TestSpectralRadius:
    def test_examples(self, c5, k22):
        assert spectral_radius(c5) == pytest.approx(2.0, abs=1e-9)
        assert spectral_radius(k22) == pytest.approx(2.0, abs=1e-9)
        assert spectral_radius(empty_graph(1)) == 0.0


class TestWalkCounts:
    def test_p3_frozen(self, p3):
        prof = walk_counts(p3, 3)
        assert prof.totals == (3, 4, 6)

    def test_k3_powers(self, k3):
        prof = walk_counts(k3, 5)
        assert prof.totals == tuple(3 * 2 ** (l - 1) for l in range(1, 6))

    @given(graphs_strategy)
    @settings(max_examples=40, deadline=None)
    def test_w1_w2(self, g):
        prof = walk_counts(g, 2)
        assert prof.total(1) == g.n
        assert prof.total(2) == 2 * g.m

    @given(graphs_strategy)
    @settings(max_examples=30, deadline=None)
    def test_per_vertex_recursion_and_totals(self, g):
        prof = walk_counts(g, 4)
        for l in range(1, 5):
            assert sum(prof.at(l, u) for u in range(g.n)) == prof.total(l)
        for l in range(2, 5):
            for u in range(g.n):
                nbr_sum = sum(prof.at(l - 1, v) for v in range(g.n)
                              if g.has_edge(u, v))
                assert prof.at(l, u) == nbr_sum
                # every walk from u extends to at most all (l-1)-walks
                assert prof.at(l, u) <= prof.total(l - 1)

    def test_matches_brute_force(self):
        for seed in range(10):
            g = random_graph(7, 0.5, seed)
            assert walk_counts(g, 5) == brute_force_walks(g, 5)

    def test_rows_stop_where_the_counts_do(self):
        g = build_graph(6, [(0, 1), (2, 3), (4, 5)])
        prof = walk_counts(g, 10 ** 9)
        assert prof.per_vertex == ((1,) * 6,) and prof.length == 10 ** 9
        assert prof.total(10 ** 9) == 6 and prof.at(10 ** 9, 5) == 1
        assert walk_counts(g, 3) == brute_force_walks(g, 3)
        g = build_graph(5, [(0, 1), (2, 3)])  # the counts stop at length 2
        assert walk_counts(g, 7).totals == (5, 4)
        assert walk_counts(g, 7) == brute_force_walks(g, 7)

    def test_overflow(self):
        with pytest.raises(WalkOverflowError):
            walk_counts(complete_graph(6), 60)

    def test_bad_length(self, k3):
        with pytest.raises(ValueError):
            walk_counts(k3, 0)

    def test_longer_profile_serves_and_extends(self, monkeypatch):
        fresh = {L: walk_counts(random_graph(9, 0.5, 3), L) for L in range(1, 8)}
        g = random_graph(9, 0.5, 3)
        assert walk_counts(g, 5) == fresh[5]
        assert walk_counts(g, 7) == fresh[7]  # extends the 5-profile
        monkeypatch.setattr(spectral, "_neighbor_lists", None)  # no walk step left
        for L in (2, 4, 1, 6, 3):
            assert walk_counts(g, L) == fresh[L]

    def test_overflow_is_per_length(self):
        g = complete_graph(6)
        with pytest.raises(WalkOverflowError):
            walk_counts(g, 60)
        assert walk_counts(g, 4) == walk_counts(complete_graph(6), 4)
        with pytest.raises(WalkOverflowError):
            walk_counts(g, 60)


class TestWalkRatioLimit:
    def test_k3_exact_at_l2(self, k3):
        rep = walk_ratio_limit_check(k3, 1, tol=1e-9)
        assert rep.converged and rep.l == 2 and rep.error == 0.0
        assert rep.target == pytest.approx(4.0)

    def test_c5_cubed(self, c5):
        rep = walk_ratio_limit_check(c5, 2, tol=1e-6)
        assert rep.converged
        assert rep.target == pytest.approx(8.0, abs=1e-9)

    def test_bipartite_rejected(self):
        with pytest.raises(ValueError):
            walk_ratio_limit_check(cycle_graph(4), 1)

    def test_disconnected_rejected(self):
        g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(ValueError):
            walk_ratio_limit_check(g, 0)

    def test_budget_exhausted_reports_best(self):
        # non-regular, so ratios only converge geometrically
        paw = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        rep = walk_ratio_limit_check(paw, 2, tol=1e-12, l_max=5)
        assert not rep.converged
        assert rep.error > 0 and rep.l <= 5
        # with a real budget the same graph converges
        assert walk_ratio_limit_check(paw, 2, tol=1e-6).converged
