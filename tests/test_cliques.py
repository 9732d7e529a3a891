from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_cliques import (build_graph, clique_counts, complete_graph,
                              complete_multipartite, empty_graph,
                              graph_from_edge_mask,
                              is_complete_multipartite_plus_isolated, is_kfree,
                              moon_moser_check, path_graph, proper_coloring,
                              random_graph, star_graph, turan_graph,
                              vertex_clique_counts)

from oracles import brute_force_cliques, enumerate_labeled

graphs_strategy = st.builds(
    lambda n_mask: graph_from_edge_mask(*n_mask),
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(
            min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))))

# dense enough that pivot-tree leaves hold several pivot vertices
dense_graphs_strategy = st.builds(
    random_graph,
    st.integers(min_value=1, max_value=16),
    st.floats(min_value=0.0, max_value=0.95),
    st.integers(min_value=0, max_value=2**32))


def _count_extensions(adj, allowed, counts, size):
    # visits every clique once, extending by vertices above the current maximum
    a = allowed
    while a:
        low = a & -a
        v = low.bit_length() - 1
        a ^= low
        counts[size] += 1
        nxt = allowed & adj[v] & -(low << 1)
        if nxt:
            _count_extensions(adj, nxt, counts, size + 1)


def oracle_clique_counts(g):
    """(k_1..k_n, omega) by visiting every clique once."""
    counts = [0] * g.n
    _count_extensions(g.adj, g.vertex_mask(), counts, 0)
    omega = max(s + 1 for s, c in enumerate(counts) if c > 0)
    return tuple(counts), omega


def oracle_vertex_rows(g):
    """k_s(u) for s <= omega: u plus each clique of its neighbourhood."""
    omega = oracle_clique_counts(g)[1]
    rows = []
    for u in range(g.n):
        counts = [0] * g.n
        counts[0] = 1
        if g.adj[u]:
            _count_extensions(g.adj, g.adj[u], counts, 1)
        rows.append(tuple(counts[:omega]))
    return tuple(rows)


def subset_vertex_rows(g):
    """k_s(u) for s <= omega by testing every vertex subset."""
    rows = [[0] * g.n for _ in range(g.n)]
    for size in range(1, g.n + 1):
        for members in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(members, 2)):
                for u in members:
                    rows[u][size - 1] += 1
    omega = brute_force_cliques(g).omega
    return tuple(tuple(row[:omega]) for row in rows)


def elementary_symmetric(sizes, s):
    return sum(prod(c) for c in combinations(sizes, s))


class TestCliqueCounts:
    def test_k4(self, k4):
        prof = clique_counts(k4)
        assert prof.counts == (4, 6, 4, 1)
        assert prof.omega == 4

    def test_c5(self, c5):
        prof = clique_counts(c5)
        assert prof.counts == (5, 5, 0, 0, 0)
        assert prof.omega == 2

    def test_t36(self, t36):
        prof = clique_counts(t36)
        assert prof.count(1) == 6 and prof.count(2) == 12
        assert prof.count(3) == 8 and prof.count(4) == 0
        assert prof.omega == 3
        assert prof == brute_force_cliques(t36)

    def test_empty_graph_omega_one(self):
        prof = clique_counts(empty_graph(4))
        assert prof.omega == 1 and prof.counts == (4, 0, 0, 0)

    @given(graphs_strategy)
    @settings(max_examples=60, deadline=None)
    def test_against_subset_enumeration(self, g):
        assert clique_counts(g) == brute_force_cliques(g)

    @given(dense_graphs_strategy)
    @settings(max_examples=80, deadline=None)
    def test_against_enumeration_oracle(self, g):
        prof = clique_counts(g)
        assert (prof.counts, prof.omega) == oracle_clique_counts(g)

    @pytest.mark.parametrize("n", [1, 2, 40, 64])
    def test_complete_graph_closed_form(self, n):
        prof = clique_counts(complete_graph(n))
        assert prof.counts == tuple(comb(n, s) for s in range(1, n + 1))
        assert prof.omega == n

    @pytest.mark.parametrize("parts,isolated", [
        ((3, 3, 3, 2), 0),   # T(4, 11)
        ((4, 4, 4, 4, 4), 0),  # T(5, 20)
        ((5, 4, 2, 1), 3), ((1, 1, 1, 1), 2), ((6, 1), 5),
    ])
    def test_multipartite_closed_form(self, parts, isolated):
        g = (turan_graph(len(parts), sum(parts)) if isolated == 0
             else complete_multipartite(list(parts), isolated))
        prof = clique_counts(g)
        assert prof.omega == len(parts)
        assert prof.count(1) == sum(parts) + isolated
        for s in range(2, g.n + 1):
            assert prof.count(s) == elementary_symmetric(parts, s)

    @given(graphs_strategy)
    @settings(max_examples=40, deadline=None)
    def test_k1_k2_and_omega(self, g):
        prof = clique_counts(g)
        assert prof.count(1) == g.n
        assert prof.count(2) == g.m
        assert prof.count(prof.omega) >= 1
        assert prof.count(prof.omega + 1) == 0


class TestVertexCliqueCounts:
    def test_k3(self, k3):
        per = vertex_clique_counts(k3)
        for u in range(3):
            assert per.count(u, 2) == 2 and per.count(u, 3) == 1

    def test_star(self):
        per = vertex_clique_counts(star_graph(3))
        assert per.count(0, 2) == 3
        assert all(per.count(u, 2) == 1 for u in (1, 2, 3))

    def test_c5_no_triangles(self, c5):
        per = vertex_clique_counts(c5)
        assert all(per.count(u, 3) == 0 for u in range(5))

    @given(dense_graphs_strategy)
    @settings(max_examples=80, deadline=None)
    def test_against_enumeration_oracle(self, g):
        per = vertex_clique_counts(g)
        assert per.rows == oracle_vertex_rows(g)
        assert per.omega == clique_counts(g).omega

    @given(graphs_strategy)
    @settings(max_examples=60, deadline=None)
    def test_against_subset_enumeration(self, g):
        assert vertex_clique_counts(g).rows == subset_vertex_rows(g)

    @pytest.mark.parametrize("n", [1, 2, 40, 64])
    def test_complete_graph_closed_form(self, n):
        per = vertex_clique_counts(complete_graph(n))
        row = tuple(comb(n - 1, s - 1) for s in range(1, n + 1))
        assert per.rows == (row,) * n and per.omega == n

    def test_multipartite_closed_form(self):
        parts, isolated = [5, 4, 2, 1], 3
        g = complete_multipartite(parts, isolated)
        per = vertex_clique_counts(g)
        flag, classes, iso = is_complete_multipartite_plus_isolated(g)
        assert flag and len(iso) == isolated
        for cls in classes:
            others = [len(c) for c in classes if c is not cls]
            row = tuple(elementary_symmetric(others, s - 1) for s in range(1, 5))
            assert all(per.rows[u] == row for u in cls)
        assert all(per.rows[u] == (1, 0, 0, 0) for u in iso)

    @given(graphs_strategy)
    @settings(max_examples=40, deadline=None)
    def test_handshake(self, g):
        prof = clique_counts(g)
        per = vertex_clique_counts(g)
        for s in range(1, prof.omega + 1):
            assert sum(per.count(u, s) for u in range(g.n)) == s * prof.count(s)


class TestMoonMoser:
    def test_k4_constant_chain(self, k4):
        rep = moon_moser_check(k4)
        assert rep.ratios == (Fraction(-1), Fraction(-1), Fraction(-1))
        assert rep.monotone

    def test_c5_single_ratio(self, c5):
        rep = moon_moser_check(c5)
        assert rep.ratios == (Fraction(-3),)
        assert rep.monotone

    def test_k3_plus_isolated(self):
        g = complete_multipartite([1, 1, 1], 1)
        rep = moon_moser_check(g)
        assert rep.ratios == (Fraction(-5, 2), Fraction(-3, 2))
        assert rep.monotone

    def test_omega_one_trivial(self):
        rep = moon_moser_check(empty_graph(3))
        assert rep.ratios == () and rep.monotone

    def test_monotone_exhaustive_n5(self):
        assert all(moon_moser_check(g).monotone for g in enumerate_labeled(5))


class TestRecognizer:
    def test_k22(self, k22):
        flag, classes, isolated = is_complete_multipartite_plus_isolated(k22)
        assert flag and isolated == ()
        assert sorted(classes) == [(0, 1), (2, 3)]

    def test_k3_plus_isolated(self):
        g = complete_multipartite([1, 1, 1], 2)
        flag, classes, isolated = is_complete_multipartite_plus_isolated(g)
        assert flag
        assert classes == ((0,), (1,), (2,))
        assert isolated == (3, 4)

    def test_p3_is_k12(self, p3):
        flag, classes, isolated = is_complete_multipartite_plus_isolated(p3)
        assert flag and isolated == ()
        assert sorted(classes) == [(0, 2), (1,)]

    def test_p4_rejected(self):
        flag, classes, isolated = is_complete_multipartite_plus_isolated(path_graph(4))
        assert not flag and classes is None and isolated is None

    def test_all_isolated(self):
        flag, classes, isolated = is_complete_multipartite_plus_isolated(empty_graph(3))
        assert flag and classes == () and isolated == (0, 1, 2)

    @pytest.mark.parametrize("parts,iso", [
        ([2, 2], 0), ([1, 1, 1], 2), ([3], 0), ([4, 2, 1], 1), ([2, 2, 2], 0),
    ])
    def test_roundtrip_on_generated(self, parts, iso):
        g = complete_multipartite(parts, iso)
        flag, classes, isolated = is_complete_multipartite_plus_isolated(g)
        assert flag
        # rebuilding from the output must reproduce the labeled graph
        rebuilt_edges = []
        for i, a in enumerate(classes):
            for b in classes[i + 1:]:
                rebuilt_edges.extend((u, v) for u in a for v in b)
        rebuilt = build_graph(g.n, rebuilt_edges)
        assert rebuilt == g

    def test_class_count_matches_omega(self):
        for seed in range(30):
            g = random_graph(7, 0.5, seed)
            flag, classes, isolated = is_complete_multipartite_plus_isolated(g)
            if flag and classes:
                stripped_omega = clique_counts(g).omega
                assert len(classes) == stripped_omega

    @given(graphs_strategy)
    @settings(max_examples=60, deadline=None)
    def test_accept_iff_rebuild_equal(self, g):
        flag, classes, isolated = is_complete_multipartite_plus_isolated(g)
        if not flag:
            return
        rebuilt_edges = []
        for i, a in enumerate(classes):
            for b in classes[i + 1:]:
                rebuilt_edges.extend((u, v) for u in a for v in b)
        assert build_graph(g.n, rebuilt_edges) == g


class TestColoring:
    def test_c5(self, c5):
        assert proper_coloring(c5, 2) is None
        classes = proper_coloring(c5, 3)
        assert classes is not None
        assert sorted(v for c in classes for v in c) == list(range(5))
        for cls in classes:
            for i, u in enumerate(cls):
                for v in cls[i + 1:]:
                    assert not c5.has_edge(u, v)

    def test_k4_needs_four(self, k4):
        assert proper_coloring(k4, 3) is None
        assert proper_coloring(k4, 4) is not None

    def test_deterministic(self, c5):
        assert proper_coloring(c5, 3) == proper_coloring(c5, 3)

    def test_mask_colors_in_host_labels(self, c5):
        # C5 less vertex 2 is the path 3-4-0-1
        assert proper_coloring(c5, 2, 0b11011) == ((0, 3), (1, 4))
        assert proper_coloring(c5, 1, 0b11011) is None

    def test_bad_r(self, c5):
        with pytest.raises(ValueError):
            proper_coloring(c5, 0)


class TestKFree:
    def test_examples(self, c5, k4, t36):
        assert is_kfree(c5, 3)
        assert not is_kfree(k4, 4)
        assert is_kfree(t36, 4)

    def test_bad_k(self, c5):
        with pytest.raises(ValueError):
            is_kfree(c5, 1)
