import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_cliques import (Graph6Error, build_graph, complement,
                              complete_graph, complete_multipartite,
                              cycle_graph, emit_graph6, empty_graph,
                              graph_from_edge_mask, is_bipartite, is_connected,
                              parse_graph6, path_graph, random_graph,
                              spectrum, star_graph, turan_graph)
from spectral_cliques.graphs import (SplitMix64, mask_from, mask_members, mix64,
                                     random_edge_mask)


def random_small_graph(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    return graph_from_edge_mask(n, mask)


graphs_strategy = st.builds(
    lambda n_mask: graph_from_edge_mask(*n_mask),
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(
            min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))))


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
        assert g.m == 3
        assert g.degrees == (2, 2, 2)

    def test_empty(self):
        g = build_graph(3, [])
        assert g.m == 0
        assert g.degrees == (0, 0, 0)

    def test_cycle5(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert g.degrees == (2, 2, 2, 2, 2)

    def test_duplicate_edges_ignored(self):
        g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            build_graph(3, [(1, 1)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError):
            build_graph(3, [(0, 3)])

    def test_over_cap(self):
        with pytest.raises(ValueError):
            build_graph(65, [])

    def test_cached_fields_consistent(self):
        g = build_graph(4, [(0, 1), (2, 3), (1, 2)])
        assert g.m == sum(g.degrees) // 2
        for u in range(g.n):
            assert g.adj[u] >> u & 1 == 0  # zero diagonal
            for v in range(g.n):
                assert g.has_edge(u, v) == g.has_edge(v, u)

    def test_memo_ignored_by_equality_and_hash(self):
        a, b = complete_graph(4), complete_graph(4)
        spectrum(a)
        assert a.memo and not b.memo
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)


class TestGenerators:
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_turan_edge_count(self, r, q):
        g = turan_graph(r, q * r)
        assert g.m == r * (r - 1) * q * q // 2

    def test_turan_examples(self):
        assert turan_graph(2, 4).m == 4
        assert turan_graph(3, 6).m == 12
        assert turan_graph(4, 4).m == 6

    def test_turan_larger_classes_first(self):
        g = turan_graph(2, 5)
        # classes {0,1,2} and {3,4}
        assert not g.has_edge(0, 1) and not g.has_edge(3, 4)
        assert g.has_edge(2, 3)

    def test_turan_bad_r(self):
        with pytest.raises(ValueError):
            turan_graph(5, 3)

    def test_multipartite(self):
        g = complete_multipartite([2, 2])
        assert g.m == 4
        g = complete_multipartite([1, 1, 1], 2)
        assert g.n == 5 and g.m == 3
        assert g.degrees[3] == 0 and g.degrees[4] == 0
        g = complete_multipartite([3])
        assert g.n == 3 and g.m == 0

    def test_multipartite_errors(self):
        with pytest.raises(ValueError):
            complete_multipartite([], 0)
        with pytest.raises(ValueError):
            complete_multipartite([0, 2])

    def test_named(self):
        assert complete_graph(4).m == 6
        assert empty_graph(4).m == 0
        assert cycle_graph(4).degrees == (2, 2, 2, 2)
        assert path_graph(2).m == 1
        assert star_graph(3).degrees == (3, 1, 1, 1)


class TestComplement:
    def test_k4(self):
        assert complement(complete_graph(4)).m == 0

    def test_c5_self_complementary(self):
        co = complement(cycle_graph(5))
        # complement of the 5-cycle is 2-regular and connected: a 5-cycle
        assert co.degrees == (2, 2, 2, 2, 2)
        assert is_connected(co)

    def test_k22_two_disjoint_edges(self):
        co = complement(turan_graph(2, 4))
        assert sorted(co.edges()) == [(0, 1), (2, 3)]

    @given(graphs_strategy)
    @settings(max_examples=60, deadline=None)
    def test_involution_and_degrees(self, g):
        co = complement(g)
        assert complement(co) == g
        assert all(co.degrees[u] == g.n - 1 - g.degrees[u] for u in range(g.n))


class TestTraversal:
    def test_c5(self):
        g = cycle_graph(5)
        assert is_connected(g) and not is_bipartite(g)

    def test_c4(self):
        g = cycle_graph(4)
        assert is_connected(g) and is_bipartite(g)

    def test_2k2(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert not is_connected(g) and is_bipartite(g)

    def test_single_vertex(self):
        g = empty_graph(1)
        assert is_connected(g) and is_bipartite(g)


class TestGraph6:
    def test_k3_bw(self):
        assert emit_graph6(complete_graph(3)) == "Bw"
        g = parse_graph6("Bw")
        assert g.n == 3 and g.m == 3

    def test_k2(self):
        assert emit_graph6(complete_graph(2)) == "A_"
        assert parse_graph6("A_").m == 1

    @given(graphs_strategy)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, g):
        assert parse_graph6(emit_graph6(g)) == g

    def test_round_trip_long_header(self, monkeypatch):
        monkeypatch.setenv("SCL_MAX_N", "80")
        g = random_graph(64, 0.3, 7)
        line = emit_graph6(g)
        assert line.startswith("~")
        assert parse_graph6(line) == g

    def test_parse_whitespace(self):
        assert parse_graph6("Bw\n").m == 3

    @pytest.mark.parametrize("bad", ["", "B#", "#w", "Bw~extra", "B", "~?"])
    def test_malformed(self, bad):
        with pytest.raises(Graph6Error):
            parse_graph6(bad)

    def test_order_over_cap(self):
        line = emit_graph6(random_graph(64, 0.5, 1))
        # decodes fine at the default cap, fails at a reduced one
        assert parse_graph6(line).n == 64
        with pytest.raises(Graph6Error):
            parse_graph6(line, cap=10)


class TestRandomGraph:
    def test_extremes(self):
        assert random_graph(6, 0.0, 3).m == 0
        assert random_graph(6, 1.0, 3).m == 15

    def test_deterministic(self):
        a = random_graph(6, 0.5, 42)
        b = random_graph(6, 0.5, 42)
        assert a == b

    def test_seed_sensitivity(self):
        assert random_graph(8, 0.5, 1) != random_graph(8, 0.5, 2)

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            random_graph(5, 1.5, 0)

    @pytest.mark.parametrize("n,p,seed,line", [
        (1, 0.5, 0, "@"), (5, 0.5, 42, "D[w"), (7, 0.3, 3, "FgaG_"),
        (10, 0.7, 11, "IuuLS\\]zg"), (11, 0.5, 5, "JnnT?o~rYu?"),
        (20, 0.4, 2024, "SS`WSoex`YGtVkJpgY]g_WvXhRS@r@J[?"),
        (20, 0.9, 7, "Sy~~{y~~~lvR^^Nn~]~}|~~^|~n^~nV~{")])
    def test_pinned_graphs(self, n, p, seed, line):
        """Graphs drawn pair by pair, before the edge mask was split out."""
        assert emit_graph6(random_graph(n, p, seed)) == line
        assert graph_from_edge_mask(n, random_edge_mask(n, p, seed)) == parse_graph6(line)

    def test_edge_mask_checks(self):
        with pytest.raises(ValueError, match="vertex count 7 outside 1..5"):
            random_edge_mask(7, 0.5, 0, cap=5)
        with pytest.raises(ValueError, match="edge probability"):
            random_edge_mask(5, -0.1, 0)

    def test_splitmix_reference_stream(self):
        # frozen reference outputs; the generator is part of the
        # reproducibility contract
        rng = SplitMix64(42)
        assert [rng.next_u64() for _ in range(3)] == [
            13679457532755275413,
            2949826092126892291,
            5139283748462763858,
        ]

    def test_mix64_stable(self):
        assert mix64(7, 0) != mix64(7, 1)
        assert mix64(7, 1) == mix64(7, 1)


class TestMasks:
    def test_round_trip(self):
        assert mask_members(mask_from([5, 1, 3])) == (1, 3, 5)
        assert mask_from([]) == 0
        assert mask_members(0) == ()
