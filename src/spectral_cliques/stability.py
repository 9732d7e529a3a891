"""Induced r-partite witness search for near-extremal K_{r+1}-free graphs.

A premise-satisfying graph (spectral radius at least (1 - 1/r - alpha) n)
must contain an induced r-partite subgraph of order above (1 - 3 a^(1/3)) n
whose minimum degree, measured against the host order n, stays above
(1 - 1/r - 6 a^(1/3)) n.  The thresholds are strict for alpha > 0; at
alpha = 0 strictness would demand order > n, so that boundary case is
checked non-strictly and flagged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .bounds import DEFAULT_TOLS, SPECTRAL_PREMISE, Formula, Tolerances, premise_holds
from .cliques import proper_coloring
from .graphs import Graph, mask_from, mask_members
from .spectral import EigensolverError

EXHAUSTIVE_MAX_N = 16


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
    search_mode: str
    # witnessed | heuristic-miss | exhaustive-miss | premise-failed |
    # premise-inconclusive | ood
    verdict: str
    boundary: bool

    def to_dict(self) -> dict:
        return {
            "premise_ok": self.premise_ok,
            "r": self.r,
            "alpha": self.alpha,
            "thresholds": {"order_min": self.order_min, "degree_min": self.degree_min},
            "witness": self.witness.to_dict() if self.witness else None,
            "search_mode": self.search_mode,
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


def find_stability_witness(g: Graph, r: int, alpha, mode: str = "exhaustive",
                           tols: Tolerances = DEFAULT_TOLS) -> StabilityWitness | None:
    """Search for an induced r-partite subgraph meeting both thresholds.

    Exhaustive mode enumerates vertex subsets by decreasing size (refused
    above n = 16), lexicographic within a size, and returns the first hit,
    so results are deterministic.  Heuristic mode r-partitions the whole
    vertex set greedily, strips vertices on intra-class edges, peels below
    the degree threshold, and keeps the outcome only if both thresholds
    pass.
    """
    if not stability_premise(g, r, alpha, tols):
        raise ValueError("stability premise does not hold for this graph")
    return _search_witness(g, r, alpha, mode)


def _search_witness(g: Graph, r: int, alpha, mode: str) -> StabilityWitness | None:
    """:func:`find_stability_witness` on a graph whose premise holds."""
    if mode not in ("exhaustive", "heuristic"):
        raise ValueError(f"unknown search mode {mode!r}")
    n = g.n
    a = float(alpha)
    boundary = a == 0.0
    thr_o, thr_d = witness_thresholds(n, r, a)
    if mode == "exhaustive":
        if n > EXHAUSTIVE_MAX_N:
            raise ValueError(f"exhaustive witness search limited to n <= {EXHAUSTIVE_MAX_N}")
        min_size = n if boundary else max(1, min(n, math.floor(thr_o) + 1))
        for size in range(n, min_size - 1, -1):
            for combo in itertools.combinations(range(n), size):
                mask = mask_from(combo)
                dmin = min((g.adj[v] & mask).bit_count() for v in combo)
                if not _degree_ok(dmin, thr_d, boundary, n, r):
                    continue
                classes = proper_coloring(g, r, mask)
                if classes is not None:
                    return StabilityWitness(mask, classes, size, dmin)
        return None
    return _heuristic_witness(g, r, thr_o, thr_d, boundary)


def _heuristic_partition(g: Graph, r: int) -> list[int]:
    """Greedy descending-degree assignment, then single-vertex moves to a
    local minimum of the intra-class edge count.  Ties break on the lower
    class index / vertex index."""
    n = g.n
    part = [-1] * n
    class_masks = [0] * r
    for v in sorted(range(n), key=lambda v: (-g.degrees[v], v)):
        best = min(range(r), key=lambda c: (g.adj[v] & class_masks[c]).bit_count())
        part[v] = best
        class_masks[best] |= 1 << v
    improved = True
    while improved:
        improved = False
        for v in range(n):
            c = part[v]
            here = (g.adj[v] & class_masks[c]).bit_count()
            best_c, best_cost = c, here
            for c2 in range(r):
                if c2 == c:
                    continue
                cost = (g.adj[v] & class_masks[c2]).bit_count()
                if cost < best_cost:
                    best_c, best_cost = c2, cost
            if best_c != c:
                class_masks[c] &= ~(1 << v)
                class_masks[best_c] |= 1 << v
                part[v] = best_c
                improved = True
    return part


def _heuristic_witness(g: Graph, r: int, thr_o: float, thr_d: float,
                       boundary: bool) -> StabilityWitness | None:
    n = g.n
    part = _heuristic_partition(g, r)
    class_masks = [0] * r
    for v, c in enumerate(part):
        class_masks[c] |= 1 << v
    keep = 0
    for v in range(n):
        if g.adj[v] & class_masks[part[v]] == 0:
            keep |= 1 << v
    # peel anything under the degree threshold, lowest degree first
    while keep:
        members = mask_members(keep)
        degs = {v: (g.adj[v] & keep).bit_count() for v in members}
        failing = [v for v in members if not _degree_ok(degs[v], thr_d, boundary, n, r)]
        if not failing:
            break
        drop = min(failing, key=lambda v: (degs[v], v))
        keep &= ~(1 << drop)
    if keep == 0:
        return None
    order = keep.bit_count()
    if not _order_ok(order, thr_o, boundary, n):
        return None
    dmin = min((g.adj[v] & keep).bit_count() for v in mask_members(keep))
    classes = tuple(mask_members(cm & keep) for cm in class_masks if cm & keep)
    return StabilityWitness(keep, classes, order, dmin)


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


def _search_mode(n: int, mode: str | None) -> str:
    """``mode``, or with none the order's: exhaustive up to
    EXHAUSTIVE_MAX_N vertices, heuristic above."""
    if mode is None:
        return "exhaustive" if n <= EXHAUSTIVE_MAX_N else "heuristic"
    return mode


def stability_report(g: Graph, r: int, alpha, mode: str | None = None,
                     tols: Tolerances = DEFAULT_TOLS) -> StabilityReport:
    """Premise check plus witness search, with the thresholds and the
    search mode used.

    The verdict is "witnessed", "exhaustive-miss", "heuristic-miss",
    "premise-failed", "premise-inconclusive" (the eigenvalue brackets
    cannot decide it), or "ood" when the eigensolver fails on the graph;
    only a premise that holds runs a search.  With no mode, the search
    follows the graph's order (:func:`_search_mode`).
    """
    mode = _search_mode(g.n, mode)
    try:
        premise = stability_premise(g, r, alpha, tols)
        verdict = {None: "premise-inconclusive", False: "premise-failed"}.get(premise)
    except EigensolverError:
        premise, verdict = False, "ood"
    w = _search_witness(g, r, alpha, mode) if premise else None
    if premise:
        verdict = "witnessed" if w is not None else f"{mode}-miss"
    a = float(alpha)
    thr_o, thr_d = witness_thresholds(g.n, r, a)
    return StabilityReport(bool(premise), r, a, thr_o, thr_d, w, mode, verdict, a == 0.0)
