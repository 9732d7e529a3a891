"""Each one-slack check is one ``bounds.Formula``: its sides on a screen
block's arrays agree with its sides graph by graph, and a new check is one
registry entry."""

import importlib
import os

import numpy as np
import pytest

from spectral_cliques import (bounds, cli, complete_graph, cycle_graph, emit_graph6,
                              graph_from_edge_mask, random_graph, screen)
from spectral_cliques.graphs import mix64
from spectral_cliques.scan import CorpusSpec, ScanConfig, expand_param_grid, scan
from spectral_cliques.spectral import spectrum

from oracles import reference_scan
from test_batched_spectra import lapack_calls  # noqa: F401 (a fixture)
from test_screen import _scan_lines

scan_module = importlib.import_module("spectral_cliques.scan")

FORMULAS = {f.name: f for f in (bounds.WILF, bounds.MAXMU, bounds.MAXMU1, bounds.POLYN,
                                bounds.THEOREM1, bounds.THEOREM2, bounds.CONJECTURE)}


def _blocks():
    """Every labeled graph with n <= 5, and random graphs of orders 6..16,
    grouped by order."""
    blocks = [[graph_from_edge_mask(n, mask) for mask in range(1 << n * (n - 1) // 2)]
              for n in range(1, 6)]
    blocks += [[random_graph(n, p, mix64(n, i)) for i, p in enumerate((0.2, 0.5, 0.8) * 4)]
               for n in range(6, 17)]
    return blocks


BLOCKS = _blocks()


@pytest.mark.parametrize("name", sorted(FORMULAS))
def test_block_sides_agree_with_graph_sides(name):
    """The assumption SCREEN_MARGIN rests on: the screen's arithmetic is
    within 1e-12 of the reported figures, relative to their scale."""
    f = FORMULAS[name]
    checked = 0
    for graphs in BLOCKS:
        b = screen.Block(graphs, range(len(graphs)), False)
        for params in expand_param_grid(name, {}):
            skip = np.zeros(len(graphs), dtype=bool) | f.gate(b, **params)
            if f.trivial is not None:
                skip |= f.trivial(b)
            vals = b.eigenvalues(np.ones(len(graphs), dtype=bool))
            mus = (vals[:, 0], vals[:, 1] if b.n > 1 else np.zeros(len(graphs)))
            with np.errstate(divide="ignore", invalid="ignore"):
                sides = f.sides(b, *mus[:f.ranks], **params)
            lhs, rhs = (np.broadcast_to(np.asarray(v, dtype=float), skip.shape) for v in sides)
            for i in np.flatnonzero(~skip):
                g = graphs[i]
                want = f.sides(bounds.GraphView(g), *spectrum(g).eigenvalues[:f.ranks],
                               **params)
                want = [float(v) for v in want]
                scale = max(1.0, *map(abs, want))
                assert abs(lhs[i] - want[0]) <= 1e-12 * scale, (emit_graph6(g), params)
                assert abs(rhs[i] - want[1]) <= 1e-12 * scale, (emit_graph6(g), params)
                checked += 1
    assert checked > 1000


@pytest.mark.parametrize("name", sorted(FORMULAS))
def test_a_plan_solves_eigenvalues_iff_its_formula_reads_them(name, lapack_calls):
    scan(CorpusSpec(kind="exhaustive", n=5), ScanConfig(checks={name: {}}))
    assert bool(lapack_calls["eigvalsh"]) == (FORMULAS[name].ranks > 0)


def test_a_check_declares_nothing_about_the_spectrum(monkeypatch):
    """A copy of edge_corollary's entry, written by hand, scans as
    edge_corollary does: its screen reads mu, and the block solves it."""
    entry = scan_module.CHECKS["edge_corollary"]
    monkeypatch.setitem(scan_module.CHECKS, "copy",
                        scan_module.Check(entry.defaults, entry.evaluate,
                                          screen=entry.screen))
    corpus = CorpusSpec(kind="exhaustive", n=6)
    want, got = (scan(corpus, ScanConfig(checks={name: {}})).to_json_dict(True)
                 for name in ("edge_corollary", "copy"))
    assert got == want
    assert want["equalities"] and want["out_of_domain"]


def test_a_new_check_is_one_registry_entry(monkeypatch, tmp_path):
    """A new check, registered as one entry, scans as the graph-by-graph
    reference does.  ``toy``, mu <= n - 1, holds with equality exactly on
    complete graphs.  ``half``, 2 mu <= n, is violated by K3 and every
    larger complete graph, with equality on K2 and C4: its violations go
    through the screen and the reporting path, and the CLI exits 1 with a
    reproducer.  (At tolerance 0 a spectral equality cannot be certified
    and is not reported.)"""
    for f in (bounds.Formula("toy", lambda x, mu: (mu, x.n - 1)),
              bounds.Formula("half", lambda x, mu: (2 * mu, x.n))):
        monkeypatch.setitem(scan_module.CHECKS, f.name, scan_module.formula_check(f, {}))
    lines = [emit_graph6(graph_from_edge_mask(5, mask)) for mask in range(0, 1 << 10, 7)]
    lines += [emit_graph6(complete_graph(n)) for n in range(1, 9)]
    lines.append(emit_graph6(cycle_graph(4)))
    for name, top_k, tol_scale, violations, equalities in (
            ("toy", 3, 1.0, 0, 8), ("toy", 10, 0.0, 0, 0),
            ("half", 3, 1.0, 59, 2), ("half", 10, 0.0, 59, 0)):
        want = reference_scan(lines, {name: {}}, top_k, tol_scale)
        assert _scan_lines(lines, {name: {}}, top_k, tol_scale) == want
        assert len(want["violations"]) == violations
        assert len(want["equalities"]) == equalities
        assert want["graphs_checked"] == len(lines)
    corpus, out = tmp_path / "c.g6", tmp_path / "artifacts"
    corpus.write_text("".join(line + "\n" for line in lines))
    assert cli.main(["scan", "--file", str(corpus), "--check", "half",
                     "--artifact-dir", str(out)]) == 1
    assert os.listdir(out) == ["violation_reproducer.json"]
