"""Exact clique statistics and structural recognizers.

Counting walks the clique tree once: every clique is visited exactly one
time by extending with vertices above the current maximum, so the counts
of all sizes fall out of a single traversal over bit-mask intersections.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, mask_members, per_graph


@dataclass(frozen=True)
class CliqueProfile:
    """Exact clique counts k_1..k_n and the clique number.

    k_1 = n (vertices are 1-cliques), k_2 = m, and k_s = 0 for s > omega.
    An edgeless graph on n >= 1 vertices has omega = 1.
    """

    counts: tuple[int, ...]
    omega: int

    def count(self, s: int) -> int:
        if s < 1:
            raise ValueError("clique size must be >= 1")
        return self.counts[s - 1] if s <= len(self.counts) else 0


@dataclass(frozen=True)
class VertexCliqueProfile:
    """Per-vertex clique counts k_s(u) for 1 <= s <= omega."""

    rows: tuple[tuple[int, ...], ...]
    omega: int

    def count(self, u: int, s: int) -> int:
        if s < 1:
            raise ValueError("clique size must be >= 1")
        row = self.rows[u]
        return row[s - 1] if s <= len(row) else 0


def _count_extensions(adj: tuple[int, ...], allowed: int, counts: list[int],
                      size: int) -> None:
    # each pick extends the current clique with a vertex above all previous
    a = allowed
    while a:
        low = a & -a
        v = low.bit_length() - 1
        a ^= low
        counts[size] += 1
        nxt = allowed & adj[v] & -(low << 1)
        if nxt:
            _count_extensions(adj, nxt, counts, size + 1)


@per_graph
def clique_counts(g: Graph) -> CliqueProfile:
    """Exact k_s for every s, via recursive neighborhood intersection."""
    counts = [0] * g.n
    _count_extensions(g.adj, g.vertex_mask(), counts, 0)
    omega = max(s + 1 for s, c in enumerate(counts) if c > 0)
    return CliqueProfile(tuple(counts), omega)


@per_graph
def vertex_clique_counts(g: Graph) -> VertexCliqueProfile:
    """Exact k_s(u): cliques through u are u plus a clique in its
    neighborhood."""
    omega = clique_counts(g).omega
    rows = []
    for u in range(g.n):
        counts = [0] * max(g.n, 1)
        counts[0] = 1
        if g.adj[u]:
            _count_extensions(g.adj, g.adj[u], counts, 1)
        rows.append(tuple(counts[:omega]))
    return VertexCliqueProfile(tuple(rows), omega)


@dataclass(frozen=True)
class MoMoReport:
    """Clique-ratio chain rho_t = (t+1) k_{t+1} / (t k_t) - n/t, 1 <= t < omega.

    Ratios are exact rationals; ``monotone`` means the chain never
    decreases.
    """

    ratios: tuple[Fraction, ...]
    monotone: bool

    def to_dict(self) -> dict:
        return {"ratios": [str(r) for r in self.ratios], "monotone": self.monotone}


def moon_moser_check(g: Graph) -> MoMoReport:
    """Evaluate the clique-ratio chain in exact rational arithmetic."""
    prof = clique_counts(g)
    n = g.n
    ratios = []
    for t in range(1, prof.omega):
        ratios.append(Fraction((t + 1) * prof.count(t + 1), t * prof.count(t))
                      - Fraction(n, t))
    monotone = all(a <= b for a, b in zip(ratios, ratios[1:]))
    return MoMoReport(tuple(ratios), monotone)


def is_complete_multipartite_plus_isolated(
        g: Graph) -> tuple[bool, tuple[tuple[int, ...], ...] | None, tuple[int, ...] | None]:
    """Recognize complete multipartite graphs with extra isolated vertices.

    Strips degree-0 vertices, then demands that non-adjacency on the rest
    is an equivalence relation (equivalently: the complement of the rest is
    a disjoint union of cliques, the classes).  Returns (flag, classes,
    isolated); classes are ordered by their smallest vertex.
    """
    isolated = tuple(u for u in range(g.n) if g.degrees[u] == 0)
    rest = g.vertex_mask() & ~sum(1 << u for u in isolated)
    if rest == 0:
        return True, (), isolated
    classes = []
    remaining = rest
    while remaining:
        v = (remaining & -remaining).bit_length() - 1
        cand = rest & ~g.adj[v]
        bits = cand
        while bits:
            low = bits & -bits
            u = low.bit_length() - 1
            bits ^= low
            if rest & ~g.adj[u] != cand:
                return False, None, None
        classes.append(mask_members(cand))
        remaining &= ~cand
    return True, tuple(classes), isolated


def proper_coloring(g: Graph, r: int) -> tuple[tuple[int, ...], ...] | None:
    """Partition V into at most r independent sets by backtracking.

    Deterministic in vertex order; new color indices are capped at one past
    the current maximum to skip symmetric assignments.  Returns the
    nonempty classes, or None when no proper r-coloring exists.
    """
    if r < 1:
        raise ValueError("color count must be >= 1")
    n = g.n
    colors = [-1] * n
    class_masks = [0] * r

    def assign(u: int, used: int) -> bool:
        if u == n:
            return True
        row = g.adj[u]
        for c in range(min(used + 1, r - 1) + 1):
            if class_masks[c] & row:
                continue
            colors[u] = c
            class_masks[c] |= 1 << u
            if assign(u + 1, max(used, c)):
                return True
            class_masks[c] &= ~(1 << u)
        colors[u] = -1
        return False

    if not assign(0, -1):
        return None
    return tuple(mask_members(cm) for cm in class_masks if cm)


def is_kfree(g: Graph, k: int) -> bool:
    """True iff the graph has no clique of k vertices."""
    if k < 2:
        raise ValueError("forbidden clique size must be >= 2")
    return clique_counts(g).omega < k
