"""Blocks built from edge bits: every array equals the one built from
``Graph``s, the reported graphs carry the same memos, the corpus filters
agree with their graph predicates, and malformed lines of small order keep
their errors."""

import importlib

import numpy as np
import pytest

from spectral_cliques import (build_graph, cliques, clique_counts, complete_graph, complete_multipartite,
                              cycle_graph, emit_graph6, empty_graph, graph_from_edge_mask,
                              is_bipartite, is_connected, is_kfree, path_graph, random_graph,
                              screen, vertex_clique_counts)
from spectral_cliques.cli import main
from spectral_cliques.graphs import mix64
from spectral_cliques.spectral import adjacency_stack, spectrum


def _masks(n):
    return np.arange(1 << n * (n - 1) // 2, dtype=np.int64)


def _edge_mask(g):
    """The edge mask of ``g``, as ``graph_from_edge_mask`` reads it."""
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    return sum(1 << b for b, (i, j) in enumerate(pairs) if g.has_edge(i, j))


def _assert_blocks_agree(n, masks):
    graphs = [graph_from_edge_mask(n, mask) for mask in masks.tolist()]
    want = screen.Block(graphs, range(len(graphs)), True)
    lines = np.frombuffer("".join(emit_graph6(g) for g in graphs).encode("ascii"),
                          dtype=np.uint8).reshape(len(graphs), -1)
    every = np.ones(len(graphs), dtype=bool)
    for got in (screen.Block.from_bits(n, masks, range(len(masks)), True),
                screen.Block.from_bits(n, screen.graph6_masks(lines, n), range(len(masks)), True)):
        np.testing.assert_array_equal(got.masks, masks)
        np.testing.assert_array_equal(got.m, want.m)
        assert got.adj.dtype == want.adj.dtype == np.uint8
        np.testing.assert_array_equal(got.adj, want.adj)
        np.testing.assert_array_equal(got.adj.sum(axis=2), [g.degrees for g in graphs])
        np.testing.assert_array_equal(got.eigenvalues(every), want.eigenvalues(every))
        np.testing.assert_array_equal(got.cliques, want.cliques)
        np.testing.assert_array_equal(got.omega, want.omega)
        np.testing.assert_array_equal(got.vertex_cliques, want.vertex_cliques)


@pytest.mark.parametrize("n", range(1, 7))
def test_every_labeled_graph_up_to_six(n):
    _assert_blocks_agree(n, _masks(n))


def test_every_64th_graph_of_order_seven():
    _assert_blocks_agree(7, _masks(7)[::64])


@pytest.mark.parametrize("n", [8, 9, 10])
def test_seeded_graphs_of_order_eight_to_ten(n):
    graphs = [random_graph(n, p, mix64(n, i)) for i, p in enumerate((0.2, 0.5, 0.8) * 20)]
    graphs += [complete_graph(n), empty_graph(n)]
    _assert_blocks_agree(n, np.array([_edge_mask(g) for g in graphs], dtype=np.int64))


def test_reported_graphs_carry_the_pivot_tree_profiles(monkeypatch):
    """The graphs a block of edge masks reports carry the clique profiles
    the block counted on its vertex subsets, which are those of the pivot
    tree; neither the block nor its reported graphs walk a tree."""
    n = 7
    masks = _masks(n)[5::4099]
    rows = np.zeros(len(masks), dtype=bool)
    rows[::2] = True
    tree = [graph_from_edge_mask(n, mask) for mask in masks[rows].tolist()]
    cliques.prime_profiles(tree, *cliques.pivot_counts(adjacency_stack(tree), True))
    want = [(spectrum(g), clique_counts(g), vertex_clique_counts(g)) for g in tree]
    monkeypatch.setattr(screen, "pivot_counts", None)  # no tree is walked from here on
    monkeypatch.setattr(cliques, "pivot_counts", None)
    b = screen.Block.from_bits(n, masks, np.arange(len(masks)) * 3, True)
    # read, as a plan with wilf and oldin reads them
    b.eigenvalues(np.ones(len(masks), dtype=bool)), b.vertex_cliques
    reported = b.reported(rows)
    assert [pos for pos, _ in reported] == (np.flatnonzero(rows) * 3).tolist()
    monkeypatch.setattr(cliques, "subset_profile", None)  # only the memos can answer
    assert [g for _, g in reported] == tree
    assert [(spectrum(g), clique_counts(g), vertex_clique_counts(g))
            for _, g in reported] == want


def _filter_graphs(n):
    """``Graph``s of order n for the filters: sparse and dense random
    graphs, a path, cycles of n and of n - 1 vertices (one odd, one even),
    K_{a,b} with and without isolated vertices, and a matching of many
    components with a path of three vertices, or a triangle, on the
    last three."""
    graphs = [random_graph(n, p, mix64(n, i)) for i, p in
              enumerate((0.02, 0.05, 0.1, 0.2, 0.5, 0.8 if n <= 16 else 0.5) * 3)]
    graphs += [path_graph(n), cycle_graph(n), build_graph(n, [(u, (u + 1) % (n - 1))
                                                            for u in range(n - 1)]),
               complete_multipartite([n // 2, n - n // 2]), complete_multipartite([1, n - 1]),
               complete_multipartite([n // 3, n - 2 - n // 3], 2)]
    matching = [(u, u + 1) for u in range(0, n - 4, 2)] + [(n - 3, n - 2), (n - 2, n - 1)]
    graphs += [build_graph(n, matching), build_graph(n, matching + [(n - 3, n - 1)])]
    return graphs


@pytest.mark.parametrize("n,built", [
    *(pytest.param(n, False, id=str(n)) for n in range(1, 7)),
    *(pytest.param(n, True, id=f"graphs-{n}") for n in (11, 16, 40, 64, 80))])
def test_filters_agree_with_graph_predicates(n, built, monkeypatch):
    """On a block of edge masks (every labeled graph of order n) and on a
    block of ``Graph``s (:func:`_filter_graphs`, order 80 under
    SCL_MAX_N=80) the filters agree with the graph predicates."""
    if n > 64:
        monkeypatch.setenv("SCL_MAX_N", str(n))
    if built:
        graphs = _filter_graphs(n)
        b = screen.Block(graphs, range(len(graphs)), False)
    else:
        masks = _masks(n)
        graphs = [graph_from_edge_mask(n, mask) for mask in masks.tolist()]
        b = screen.Block.from_bits(n, masks, range(len(masks)), False)
    want = np.array([is_connected(g) for g in graphs])
    np.testing.assert_array_equal(screen.connected(b), want)
    bipartite = np.array([is_bipartite(g) for g in graphs])
    np.testing.assert_array_equal(screen.bipartite(b), bipartite)
    if n > 2:  # both outcomes of both filters are met
        assert want.any() and not want.all() and bipartite.any() and not bipartite.all()
    for r in range(1, min(n, 12) + 1):
        np.testing.assert_array_equal(b.omega <= r, [is_kfree(g, r + 1) for g in graphs])


def test_bipartite_rounds_follow_diameter_not_components(monkeypatch):
    """A perfect matching on 64 vertices (32 components of diameter 1) and
    64 isolated vertices are decided in one round and a last one that
    changes nothing, however many components they have."""
    graphs = [build_graph(64, [(u, u + 1) for u in range(0, 64, 2)]), build_graph(64, [])]
    b = screen.Block(graphs, range(2), False)
    rounds = []
    real = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda a, c: rounds.append(1) or real(a, c))
    assert screen.bipartite(b).tolist() == [True, True]
    assert len(rounds) == 2


def _bad_lines():
    """(bad line, message, environment) for a malformed line of small order."""
    return [("F?a b", "invalid graph6 character ' '", {}),
            ("F?a", "truncated graph6 bit payload", {}),
            ("F?ab??", "trailing characters after graph6 payload", {}),
            ("I" + "?" * 7, "truncated graph6 bit payload", {}),
            ("F?ab?", "graph6 order 7 outside 1..6", {"SCL_MAX_N": "6"})]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("bad,message,env", _bad_lines())
def test_malformed_small_order_line_exits_2(tmp_path, monkeypatch, capsys, jobs, bad,
                                            message, env):
    """The bad line is line 700, in the second chunk of 512 lines of order 6."""
    monkeypatch.setattr(importlib.import_module("spectral_cliques.scan"),
                        "_CHUNK_ENTRIES", 36 * 512)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    good = emit_graph6(random_graph(6, 0.5, 1))
    lines = [good] * 800
    lines[699] = bad
    corpus = tmp_path / "c.g6"
    corpus.write_text("\n".join(lines) + "\n")
    code = main(["--jobs", jobs, "scan", "--file", str(corpus), "--check", "wilf"])
    assert code == 2
    assert f"error: {corpus}, line 700: {message}" in capsys.readouterr().err
