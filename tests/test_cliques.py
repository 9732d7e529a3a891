import random
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_cliques import (build_graph, cliques, clique_counts, complete_graph,
                              complete_multipartite, empty_graph,
                              graph_from_edge_mask,
                              is_complete_multipartite_plus_isolated, is_kfree,
                              moon_moser_check, path_graph, proper_coloring,
                              random_graph, star_graph, turan_graph,
                              vertex_clique_counts)
from spectral_cliques.spectral import adjacency_stack

from oracles import brute_force_cliques, brute_force_vertex_cliques, enumerate_labeled

graphs_strategy = st.builds(
    lambda n_mask: graph_from_edge_mask(*n_mask),
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(
            min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))))

# batches of one order, each graph of its own density
batch_strategy = st.integers(min_value=1, max_value=12).flatmap(lambda n: st.lists(
    st.builds(random_graph, st.just(n), st.floats(min_value=0.0, max_value=1.0),
              st.integers(min_value=0, max_value=2**32)),
    min_size=1, max_size=6))

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


def multipartite_rows(parts, isolated):
    """k_s at [s] and k_s(u) at [u][s], 0 <= s <= n, of the complete
    multipartite graph with ``parts`` and ``isolated`` extra vertices."""
    n = sum(parts) + isolated
    k = [1, n] + [elementary_symmetric(parts, s) for s in range(2, n + 1)]
    rows = []
    for i, size in enumerate(parts):
        others = parts[:i] + parts[i + 1:]
        rows += [[0] + [elementary_symmetric(others, s - 1) for s in range(1, n + 1)]] * size
    rows += [[0, 1] + [0] * (n - 1)] * isolated
    return k, rows


class TestPivotCounts:
    """``pivot_counts`` walks the trees of a whole batch at once."""

    @given(batch_strategy)
    @settings(max_examples=60, deadline=None)
    def test_batches_against_subset_oracles(self, graphs):
        k, kv = cliques.pivot_counts(adjacency_stack(graphs), True)
        assert k.dtype == kv.dtype == np.int64
        for g, row, rows in zip(graphs, k.tolist(), kv.tolist()):
            assert row == [1, *brute_force_cliques(g).counts]
            assert rows == [r[:g.n + 1] for r in brute_force_vertex_cliques(g)]

    @given(batch_strategy)
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_its_graphs_one_at_a_time(self, graphs):
        k, kv = cliques.pivot_counts(adjacency_stack(graphs), True)
        assert np.array_equal(cliques.pivot_counts(adjacency_stack(graphs), False)[0], k)
        for i, g in enumerate(graphs):
            one, per = cliques.pivot_counts(adjacency_stack([g]), True)
            assert np.array_equal(one[0], k[i]) and np.array_equal(per[0], kv[i])

    @pytest.mark.parametrize("n", [63, 64, 65, 80])
    def test_complete_graphs_across_word_boundaries(self, n, monkeypatch):
        """K_n is one root-to-leaf path; k_{40}(K_80) is about 10^23, past
        int64, and is counted in Python ints from order 65 on."""
        monkeypatch.setenv("SCL_MAX_N", "80")
        g = complete_graph(n)
        k, kv = cliques.pivot_counts(adjacency_stack([g, g]), True)
        assert k.dtype == (np.int64 if n <= 64 else object)
        assert k.tolist() == [[comb(n, s) for s in range(n + 1)]] * 2
        assert kv[1].tolist() == [[0] + [comb(n - 1, s - 1) for s in range(1, n + 1)]] * n
        prof = clique_counts(complete_graph(n))
        assert prof.counts == tuple(comb(n, s) for s in range(1, n + 1)) and prof.omega == n

    @pytest.mark.parametrize("n", [1, 2, 11, 64, 65])
    def test_edgeless_graphs(self, n, monkeypatch):
        monkeypatch.setenv("SCL_MAX_N", "65")
        k, kv = cliques.pivot_counts(adjacency_stack([empty_graph(n)]), True)
        assert k.tolist() == [[1, n] + [0] * (n - 1)]
        assert kv[0].tolist() == [[0, 1] + [0] * (n - 1)] * n

    def test_block_wider_than_the_row_cap(self, monkeypatch):
        """1,100 roots are more than one step expands, and leaf batches
        hold leaves of several graphs; each graph still counts as alone."""
        widths = []
        leaves = cliques._leaves

        def spy(adj):
            for batch in leaves(adj):
                widths.append(len(np.unique(batch[0])))
                yield batch

        monkeypatch.setattr(cliques, "_leaves", spy)
        graphs = [random_graph(12, (0.3, 0.6, 0.9)[i % 3], i) for i in range(1100)]
        k, kv = cliques.pivot_counts(adjacency_stack(graphs), True)
        assert max(widths) > 1
        for i, g in enumerate(graphs):
            one, per = cliques.pivot_counts(adjacency_stack([g]), True)
            assert np.array_equal(one[0], k[i]) and np.array_equal(per[0], kv[i])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scattered_components_across_word_boundaries(self, seed, monkeypatch):
        """Six G(12, 0.6) and one G(8, 0.6), their 80 vertices shuffled:
        a pivot's non-neighbours span both words and every component, and
        the counts are the components' brute-force counts."""
        monkeypatch.setenv("SCL_MAX_N", "80")
        rng = random.Random(seed)
        label = rng.sample(range(80), 80)
        parts = [random_graph(size, 0.6, 10 * seed + i)
                 for i, size in enumerate([12] * 6 + [8])]
        edges, want, rows, at = [], [1] + [0] * 80, [None] * 80, 0
        for part in parts:
            edges += [(label[at + u], label[at + v]) for u, v in part.edges()]
            for s, c in enumerate(brute_force_cliques(part).counts, 1):
                want[s] += c
            for u, row in enumerate(brute_force_vertex_cliques(part)):
                rows[label[at + u]] = row[:part.n + 1] + [0] * (80 - part.n)
            at += part.n
        k, kv = cliques.pivot_counts(adjacency_stack([build_graph(80, edges)]), True)
        assert k[0].tolist() == want and kv[0].tolist() == rows

    @pytest.mark.parametrize("parts,isolated", [
        ((1,), 0), ((3, 3, 3, 2), 0), ((6, 6, 6, 6, 6, 6), 0), ((5, 4, 2, 1), 3),
        ((1, 1, 1, 1), 2), ((6, 1), 5), ((32, 32), 0), ((33, 33, 10), 4)])
    def test_multipartite_graphs_with_isolated_vertices(self, parts, isolated, monkeypatch):
        """(33, 33, 10) with 4 isolated vertices has order 80: its sets
        span two words, and its held children cross the word boundary."""
        monkeypatch.setenv("SCL_MAX_N", "80")
        g = complete_multipartite(list(parts), isolated)
        k, kv = cliques.pivot_counts(adjacency_stack([g, empty_graph(g.n), g]), True)
        want, rows = multipartite_rows(list(parts), isolated)
        assert k[0].tolist() == k[2].tolist() == want
        assert kv[0].tolist() == kv[2].tolist() == rows

    def test_wide_tree_expands_at_most_the_row_cap(self, monkeypatch):
        """T(6, 36) has 6^6 = 46,656 leaves; no step of its walk expands
        more than ``TREE_ROWS`` rows, and its counts are exact."""
        steps = []
        expand = cliques._expand

        def spy(adj, n, rows):
            steps.append(len(rows[0]))
            return expand(adj, n, rows)

        monkeypatch.setattr(cliques, "_expand", spy)
        g = turan_graph(6, 36)
        k, kv = cliques.pivot_counts(adjacency_stack([g]), True)
        assert max(steps) == cliques.TREE_ROWS
        want, rows = multipartite_rows([6] * 6, 0)
        assert k[0].tolist() == want and kv[0].tolist() == rows


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
