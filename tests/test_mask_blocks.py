"""Blocks built from edge bits: every array equals the one built from
``Graph``s, the reported graphs carry the same memos, the corpus filters
agree with their graph predicates, and malformed lines of small order keep
their errors."""

import numpy as np
import pytest

from spectral_cliques import (cliques, clique_counts, complete_graph, emit_graph6,
                              empty_graph, graph_from_edge_mask, is_bipartite,
                              is_connected, is_kfree, random_graph, screen,
                              vertex_clique_counts)
from spectral_cliques.cli import main
from spectral_cliques.graphs import mix64
from spectral_cliques.spectral import spectrum


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
    for got in (screen.Block.from_bits(n, masks, range(len(masks))),
                screen.Block.from_bits(n, screen.graph6_masks(lines, n), range(len(masks)))):
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
    cliques.prime_profiles(tree, *cliques.pivot_counts(tree, True))
    want = [(spectrum(g), clique_counts(g), vertex_clique_counts(g)) for g in tree]
    monkeypatch.setattr(screen, "pivot_counts", None)  # no tree is walked from here on
    monkeypatch.setattr(cliques, "pivot_counts", None)
    b = screen.Block.from_bits(n, masks, np.arange(len(masks)) * 3)
    # read, as a plan with wilf and oldin reads them
    b.eigenvalues(np.ones(len(masks), dtype=bool)), b.vertex_cliques
    reported = b.reported(rows)
    assert [pos for pos, _ in reported] == (np.flatnonzero(rows) * 3).tolist()
    monkeypatch.setattr(cliques, "subset_hits", None)  # only the memos can answer
    assert [g for _, g in reported] == tree
    assert [(spectrum(g), clique_counts(g), vertex_clique_counts(g))
            for _, g in reported] == want


@pytest.mark.parametrize("n", range(1, 7))
def test_filters_agree_with_graph_predicates(n):
    masks = _masks(n)
    graphs = [graph_from_edge_mask(n, mask) for mask in masks.tolist()]
    b = screen.Block.from_bits(n, masks, range(len(masks)))
    np.testing.assert_array_equal(screen.connected(b), [is_connected(g) for g in graphs])
    np.testing.assert_array_equal(screen.bipartite(b), [is_bipartite(g) for g in graphs])
    for r in range(1, n + 1):
        np.testing.assert_array_equal(b.omega <= r, [is_kfree(g, r + 1) for g in graphs])


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
    """The bad line is line 700, in the second chunk of 512 lines."""
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
