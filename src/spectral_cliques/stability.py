"""Induced r-partite witness search for near-extremal K_{r+1}-free graphs.

A premise-satisfying graph (spectral radius at least (1 - 1/r - alpha) n)
must contain an induced r-partite subgraph of order above (1 - 3 a^(1/3)) n
whose minimum degree, measured against the host order n, stays above
(1 - 1/r - 6 a^(1/3)) n.  The thresholds are strict for alpha > 0; at
alpha = 0 strictness would demand order > n, so that boundary case is
checked non-strictly and flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .bounds import (CERTIFY_MAX_N, DEFAULT_TOLS, SPECTRAL_PREMISE, Formula, Tolerances,
                     premise_holds)
from .cliques import proper_coloring
from .graphs import Graph, mask_from, mask_members
from .spectral import EigensolverError


@dataclass(frozen=True)
class StabilityWitness:
    """Induced subgraph plus its independent-class partition.

    ``vertices`` is a bit-mask over the host graph; ``min_degree`` is
    measured inside the induced subgraph.
    """

    vertices: int
    partition: tuple[tuple[int, ...], ...]
    order: int
    min_degree: int

    def to_dict(self) -> dict:
        return {
            "vertices": list(mask_members(self.vertices)),
            "classes": [list(c) for c in self.partition],
            "order": self.order,
            "min_degree": self.min_degree,
        }


@dataclass(frozen=True)
class StabilityReport:
    """Result of one witness search, including the evaluated thresholds."""

    premise_ok: bool
    r: int
    alpha: float
    order_min: float
    degree_min: float
    witness: StabilityWitness | None
    # witnessed | exhaustive-miss | inconclusive (a miss above
    # CERTIFY_MAX_N) | premise-failed | premise-inconclusive | ood
    verdict: str
    boundary: bool

    def to_dict(self) -> dict:
        return {
            "premise_ok": self.premise_ok,
            "r": self.r,
            "alpha": self.alpha,
            "thresholds": {"order_min": self.order_min, "degree_min": self.degree_min},
            "witness": self.witness.to_dict() if self.witness else None,
            "verdict": self.verdict,
            "boundary": self.boundary,
        }


def alpha_limit(r: int) -> float:
    """Largest admissible alpha for a given r >= 2."""
    if r < 2:
        raise ValueError("r must be >= 2")
    return 2.0 ** -10 / r ** 6


def stability_alpha(r: int, alpha) -> float:
    """The stability alpha at r as a float, None standing for
    :func:`alpha_limit`.  r < 2 and a negative or non-finite alpha are
    refused (ValueError): the theorem and its thresholds need 0 <= alpha."""
    limit = alpha_limit(r)
    a = limit if alpha is None else float(alpha)
    if not 0.0 <= a < math.inf:
        raise ValueError("alpha must be finite and >= 0")
    return a


def witness_thresholds(n: int, r: int, alpha: float) -> tuple[float, float]:
    """(order threshold, min-degree threshold) for a host of order n."""
    c = stability_alpha(r, alpha) ** (1.0 / 3.0)
    return (1.0 - 3.0 * c) * n, (1.0 - 1.0 / r - 6.0 * c) * n


#: K_{r+1}-free, alpha at most 2^-10 r^-6, and mu >= (1 - 1/r - alpha) n
STABILITY_PREMISE = replace(SPECTRAL_PREMISE, name="stability_premise", gate=lambda x, r, alpha:
                            alpha > alpha_limit(r) or x.omega > r)
#: the stability check as a scan screens it (its conclusion is a search)
STABILITY = Formula("stability", None, premise=STABILITY_PREMISE, slots=lambda x, r, alpha: [
    ({"r": r, "alpha": stability_alpha(r, alpha)}, True)])


def stability_premise(g: Graph, r: int, alpha,
                      tols: Tolerances = DEFAULT_TOLS) -> bool | None:
    """K_{r+1}-free, alpha at most 2^-10 r^-6, and spectral radius at
    least (1 - 1/r - alpha) n (up to the hold epsilon, certified near the
    cut); None where the eigenvalue brackets cannot decide it.  Raises
    ValueError where :func:`stability_alpha` does."""
    return premise_holds(STABILITY_PREMISE, g, {"r": r, "alpha": stability_alpha(r, alpha)}, tols)


def _order_ok(order: int, thr: float, boundary: bool, n: int) -> bool:
    if boundary:
        return order >= n
    return order > thr


def _degree_ok(deg: int, thr: float, boundary: bool, n: int, r: int) -> bool:
    if boundary:
        # threshold (1 - 1/r) n is rational; compare exactly
        return Fraction(deg) >= Fraction((r - 1) * n, r)
    return deg > thr


def find_stability_witness(g: Graph, r: int, alpha,
                           tols: Tolerances = DEFAULT_TOLS) -> StabilityWitness | None:
    """Search for an induced r-partite subgraph meeting both thresholds.

    The search is exact up to ``CERTIFY_MAX_N`` vertices: it returns the
    largest witness, lexicographically least among those of its order, or
    None when there is none.  Above that only the whole graph is tried.
    A premise that fails, or that the eigenvalue brackets cannot decide,
    raises ValueError.
    """
    premise = stability_premise(g, r, alpha, tols)
    if premise is None:
        raise ValueError("stability premise is undecided for this graph")
    if not premise:
        raise ValueError("stability premise does not hold for this graph")
    return _search_witness(g, r, alpha)


def _search_witness(g: Graph, r: int, alpha) -> StabilityWitness | None:
    """:func:`find_stability_witness` on a graph whose premise holds.

    Deletion sets are searched by size j = 0, 1, ..., up to the most the
    order threshold allows, each kept set branching on an obstruction that
    every witness inside it must leave out: a vertex below the degree
    threshold (degrees only fall as vertices go), an odd cycle at r = 2
    (Reed, Smith and Vetta's odd cycle transversal tree), or every vertex
    when r >= 3 and the set has no proper r-coloring.  Every witness with j
    deletions is reached at level j, so the first level with one holds all
    the largest witnesses.
    """
    n = g.n
    a = float(alpha)
    boundary = a == 0.0
    thr_o, thr_d = witness_thresholds(n, r, a)
    min_size = n if boundary else max(1, min(n, math.floor(thr_o) + 1))
    need = next((d for d in range(n + 1) if _degree_ok(d, thr_d, boundary, n, r)), n + 1)
    most = n - min_size if n <= CERTIFY_MAX_N else 0  # deletions tried
    level = {g.vertex_mask()}
    for _ in range(most + 1):
        found, below = {}, set()
        for keep in level:
            classes, branches = _classes_or_branches(g, r, keep, need)
            if classes is None:
                below.update(keep & ~(1 << v) for v in branches)
            else:
                found[keep] = classes
        if found:
            keep = min(found, key=mask_members)
            dmin = min((g.adj[v] & keep).bit_count() for v in mask_members(keep))
            return StabilityWitness(keep, found[keep], keep.bit_count(), dmin)
        level = below
    return None


def _classes_or_branches(g: Graph, r: int, keep: int, need: int):
    """(classes, None) when the graph induced on ``keep`` has minimum
    degree at least ``need`` and a proper r-coloring, with
    :func:`proper_coloring`'s classes; otherwise (None, vertices of which
    every witness inside ``keep`` leaves out at least one)."""
    members = mask_members(keep)
    low = next((v for v in members if (g.adj[v] & keep).bit_count() < need), None)
    if low is not None:
        return None, (low,)
    if r == 2:
        return _bipartition(g, members, keep)
    classes = proper_coloring(g, r, keep)
    return classes, (None if classes else members)


def _bipartition(g: Graph, members: tuple[int, ...], keep: int):
    """A BFS 2-coloring of the graph induced on ``keep`` that puts the least
    vertex of each component on side 0, as the backtracking of
    :func:`proper_coloring` does at r = 2: (classes, None), or (None, the
    vertices of an odd cycle) at the first edge inside a side."""
    side, parent = {}, {}
    for root in members:
        if root in side:
            continue
        side[root], parent[root] = 0, None
        queue = [root]
        for u in queue:
            for v in mask_members(g.adj[u] & keep):
                if v not in side:
                    side[v], parent[v] = side[u] ^ 1, u
                    queue.append(v)
                elif side[v] == side[u]:
                    up, vp = _tree_path(parent, u), _tree_path(parent, v)
                    top = next(i for i, x in enumerate(up) if x in vp)
                    return None, tuple(up[:top + 1]) + tuple(vp[:vp.index(up[top])])
    classes = tuple(tuple(v for v in members if side[v] == s) for s in (0, 1))
    return tuple(c for c in classes if c), None


def _tree_path(parent: dict, v: int) -> list[int]:
    """v and its ancestors in a BFS tree, up to the root."""
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def verify_witness(g: Graph, r: int, alpha, w: StabilityWitness,
                   tols: Tolerances = DEFAULT_TOLS) -> bool:
    """Recompute everything a witness claims.

    Structural damage (vertices outside the graph, classes that overlap or
    fail to cover the witness set) raises; constraint failures (too many
    classes, an intra-class edge, a missed threshold) return False.
    """
    full = g.vertex_mask()
    if w.vertices & ~full:
        raise ValueError("witness vertices outside the graph")
    union = 0
    for cls in w.partition:
        cm = mask_from(cls)
        if cm & ~w.vertices:
            raise ValueError("class vertex outside the witness set")
        if cm & union:
            raise ValueError("witness classes overlap")
        union |= cm
    if union != w.vertices:
        raise ValueError("witness classes do not cover the witness set")
    if len(w.partition) > r:
        return False
    for cls in w.partition:
        cm = mask_from(cls)
        for v in cls:
            if g.adj[v] & cm:
                return False
    members = mask_members(w.vertices)
    if not members:
        return False
    order = len(members)
    dmin = min((g.adj[v] & w.vertices).bit_count() for v in members)
    n = g.n
    a = float(alpha)
    boundary = a == 0.0
    thr_o, thr_d = witness_thresholds(n, r, a)
    return _order_ok(order, thr_o, boundary, n) and _degree_ok(dmin, thr_d, boundary, n, r)


def stability_report(g: Graph, r: int, alpha,
                     tols: Tolerances = DEFAULT_TOLS) -> StabilityReport:
    """Premise check plus witness search, with the thresholds used.

    The verdict is "witnessed", "exhaustive-miss", "inconclusive" (a miss
    above ``CERTIFY_MAX_N`` vertices, where only the whole graph is tried),
    "premise-failed", "premise-inconclusive" (the eigenvalue brackets
    cannot decide it), or "ood" when the eigensolver fails on the graph;
    only a premise that holds runs a search.
    """
    try:
        premise = stability_premise(g, r, alpha, tols)
        verdict = {None: "premise-inconclusive", False: "premise-failed"}.get(premise)
    except EigensolverError:
        premise, verdict = False, "ood"
    w = _search_witness(g, r, alpha) if premise else None
    if premise:
        verdict = ("witnessed" if w is not None
                   else "exhaustive-miss" if g.n <= CERTIFY_MAX_N else "inconclusive")
    a = float(alpha)
    thr_o, thr_d = witness_thresholds(g.n, r, a)
    return StabilityReport(bool(premise), r, a, thr_o, thr_d, w, verdict, a == 0.0)
