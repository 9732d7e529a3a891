"""Exact clique statistics and structural recognizers.

Clique counts come from a pivot tree (Jain and Seshadhri, "The Power of
Pivoting for Exact Clique Counting", WSDM 2020), not from visiting every
clique.  A node of the tree holds h vertices, has q pivot vertices, and
its candidates are the common neighbours of all of them.  It picks the
candidate p with the most candidate neighbours as its pivot.  A clique
among the candidates either avoids every candidate outside N(p) + p and
lies under the child that adds p to the pivots (candidates N(p)), or its
first such vertex v is held in a child of its own (candidates N(v), less
the non-neighbours of p handled before v).  A node with at most one
candidate is a leaf, its last candidate joining the pivots.  A leaf
stands for the 2^q cliques made of its held vertices and any subset of its
pivots: C(q, j) cliques of size h + j.  Each held vertex lies in all of
them, each pivot vertex in C(q - 1, j) of size h + 1 + j, as a held vertex
of a leaf with h + 1 held and q - 1 pivot vertices would.  A complete graph
is one root-to-leaf path.

:func:`pivot_counts` walks the trees of all the graphs of one order at
once, on numpy arrays.  It reads their adjacency stack, the uint8 (graphs,
n, n) array a screen block holds, and packs each row into ceil(n / 64)
uint64 words.  A frontier row is one node of one graph, its candidate,
held and pivot sets each that many words.  Every
step takes at most ``TREE_ROWS`` rows off the top of a stack, so a wide
tree is walked depth-first in bounded memory.  Leaves are not enumerated
but gathered, about ``TREE_ROWS`` at a time, and histogrammed: per graph
by (h, q), and for per-vertex counts per vertex by the (h, q) of the leaf
it is held in, or (h + 1, q - 1) where it is a pivot.  Every row stays
ordered by graph, so a batch of leaves comes from few graphs, and its
histograms span only those.  Contracting the histograms with C(q, j)
gives k_s and k_s(u).  Up to order 64 that is done in int64, which is
exact: every term and partial sum is at most the count it adds up to, and
k_s <= C(64, 32) < 2^63.  Above order 64 the contraction runs on Python
ints.  ``np.bitwise_count`` counts the set bits, hence numpy 2.

A single graph of order up to ``MASK_MAX_N`` is counted without a tree,
on the tables of its 2^n vertex subsets that blocks of edge masks use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from .graphs import Graph, mask_members, per_graph
from .spectral import adjacency_stack

#: graphs of this order or less are counted on their vertex subsets: the
#: 2^n subsets stay few and the n(n-1)/2 edge bits (48 with graph6
#: padding) fit an int64
MASK_MAX_N = 10

#: the pivot tree expands at most this many frontier rows in one step, and
#: histograms its leaves once at least this many are gathered
TREE_ROWS = 1024

#: orders whose counts, and contractions, fit int64
_INT64_MAX_N = 64


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


# ---------------------------------------------------------------------------
# vertex subsets, up to MASK_MAX_N


@functools.lru_cache(maxsize=None)
def edge_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j), i < j, of order n in edge-mask order."""
    return np.triu_indices(n, 1)


@functools.lru_cache(maxsize=None)
def _subsets(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the 2^n vertex subsets S of order n: the edge mask of the
    complete graph on S, and the 0/1 float matrices that sum a row of
    subset hits by size s (column s) and by vertex and size (column
    u (n + 1) + s)."""
    member = np.arange(1 << n)[:, None] >> np.arange(n) & 1
    i, j = edge_pairs(n)
    edges = ((member[:, i] & member[:, j]) << np.arange(len(i))).sum(axis=1)
    by_size = (member.sum(axis=1)[:, None] == np.arange(n + 1)).astype(float)
    by_vertex = (member[:, :, None] * by_size[:, None, :]).reshape(1 << n, n * (n + 1))
    return edges, by_size, by_vertex


def subset_profile(masks: np.ndarray, n: int,
                   vertex: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact k_s at [g, s] for 0 <= s <= n of the graphs of order n whose
    edge masks (int64, as :func:`graphs.graph_from_edge_mask` reads them)
    are ``masks`` and, with ``vertex``, k_s(u) at [g, u, s]: their vertex
    subsets that are cliques, summed by size and by vertex and size."""
    edges, by_size, by_vertex = _subsets(n)
    hits = ((masks[:, None] & edges) == edges).astype(float)  # [g, S]: S is a clique
    # sums of at most 2^MASK_MAX_N ones: exact in floats
    k = (hits @ by_size).astype(np.int64)
    if not vertex:
        return k, None
    return k, (hits @ by_vertex).astype(np.int64).reshape(len(masks), n, n + 1)


# ---------------------------------------------------------------------------
# the pivot tree, at any order


@functools.lru_cache(maxsize=None)
def _bit_words(n: int) -> tuple[np.ndarray, np.ndarray]:
    """[v]: the mask words of {v}, and of the vertices below v."""
    v = np.arange(n)
    one = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    one[v, v // 64] = np.uint64(1) << (v % 64).astype(np.uint64)
    return one, np.bitwise_or.accumulate(one, axis=0) ^ one


@functools.lru_cache(maxsize=None)
def _binomials(n: int) -> np.ndarray:
    """C(q, j) at [q, j] for 0 <= q, j <= n: int64 up to order 64, else
    Python ints."""
    return np.array([[comb(q, j) for j in range(n + 1)] for q in range(n + 1)],
                    dtype=np.int64 if n <= _INT64_MAX_N else object)


def _members(words: np.ndarray, n: int) -> np.ndarray:
    """[row, v]: whether vertex v is in the set that row ``words`` holds."""
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little").view(bool)


def _split(rows: tuple) -> tuple[tuple, tuple]:
    """Frontier ``rows`` (graph, candidates, held, pivots) split into their
    leaves, as (graph, held, pivots), and the rows to expand, with their
    candidate counts appended."""
    g, cand, held, piv = rows
    size = np.bitwise_count(cand).sum(axis=1, dtype=np.intp)
    leaf = size <= 1
    inner = ~leaf
    return ((g[leaf], held[leaf], piv[leaf] | cand[leaf]),
            (g[inner], cand[inner], held[inner], piv[inner], size[inner]))


def _expand(adj: np.ndarray, n: int, rows: tuple) -> tuple:
    """The children (graph, candidates, held, pivots) of the frontier
    ``rows`` that :func:`_split` leaves to expand, in the pivot trees of the
    graphs of order n whose neighbourhoods ``adj`` holds, ordered by graph:
    the rows expanded next, and the leaves gathered together, then come
    from few graphs."""
    g, cand, held, piv, size = rows
    one, below = _bit_words(n)
    # each row's pivot: most candidate neighbours, the lowest on ties
    r = np.repeat(np.arange(len(g)), size)
    v = np.flatnonzero(_members(cand, n)) - r * n
    degree = np.bitwise_count(adj[g[r] * n + v] & cand[r]).sum(axis=1, dtype=np.intp)
    best = np.maximum.reduceat(degree * n + (n - 1 - v), np.cumsum(size) - size)
    p = n - 1 - best % n
    pnbrs = adj[g * n + p]
    # a held child per non-neighbour of the pivot, low bits first
    rest = cand & ~pnbrs & ~one[p]
    at = np.flatnonzero(_members(rest, n))
    r = at // n
    v = at - r * n
    children = (np.concatenate([g, g[r]]),
                np.concatenate([cand & pnbrs, cand[r] & ~(rest[r] & below[v]) & adj[g[r] * n + v]]),
                np.concatenate([held, held[r] | one[v]]),
                np.concatenate([piv | one[p], piv[r]]))
    if g[0] != g[-1]:  # rows of several graphs: merge the two ordered runs
        order = np.argsort(children[0], kind="stable")
        children = tuple(a[order] for a in children)
    return children


def _leaves(adj: np.ndarray):
    """The leaves of the pivot trees of the graphs whose adjacency stack
    is ``adj``, in batches (graph, held, pivots) of at least ``TREE_ROWS``
    rows but the last, at most ``TREE_ROWS`` rows expanded at a time, the
    deepest first."""
    count, n = adj.shape[:2]
    # [g n + v, word]: the neighbourhood of v in graph g, little-endian bits
    # in ceil(n / 64) uint64 words
    octets = np.zeros((count * n, (n + 63) // 64 * 8), dtype=np.uint8)
    octets[:, :(n + 7) // 8] = np.packbits(adj.reshape(count * n, n), axis=1, bitorder="little")
    words = octets.view("<u8").astype(np.uint64, copy=False)
    full = np.repeat(np.bitwise_or.reduce(_bit_words(n)[0], axis=0)[None], count, axis=0)
    empty = np.zeros_like(full)
    leaves, rows = _split((np.arange(count), full, empty, empty))
    found, size = [leaves], len(leaves[0])
    stack = [rows]
    while stack:
        rows = stack.pop()
        if len(rows[0]) > TREE_ROWS:
            stack.append(tuple(a[:-TREE_ROWS] for a in rows))
            rows = tuple(a[-TREE_ROWS:] for a in rows)
        if len(rows[0]):
            leaves, rows = _split(_expand(words, n, rows))
            found.append(leaves)
            size += len(leaves[0])
            stack.append(rows)
            if size >= TREE_ROWS:
                yield tuple(map(np.concatenate, zip(*found)))
                found, size = [], 0
    if found:
        yield tuple(map(np.concatenate, zip(*found)))


def pivot_counts(adj: np.ndarray, vertex: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact k_s at [g, s] for 0 <= s <= n of the graphs of one order n
    whose 0/1 adjacency matrices are ``adj`` (uint8, (graphs, n, n), as
    :func:`spectral.adjacency_stack` gives them) and, with ``vertex``,
    k_s(u) at [g, u, s], from one walk of their pivot trees; int64 arrays
    up to order 64, arrays of Python ints above."""
    count, n = adj.shape[:2]
    binomials = _binomials(n)
    k = np.zeros((count, n + 1), dtype=binomials.dtype)
    kv = np.zeros((count, n, n + 1), dtype=binomials.dtype) if vertex else None
    side = n + 2  # a leaf's (h, q) is coded h side + q
    for g, held, piv in _leaves(adj):
        # the histograms span only the graphs this batch holds leaves of
        seen = np.bincount(g, minlength=count) > 0
        present = np.flatnonzero(seen)
        width = len(present)
        g = (np.cumsum(seen) - 1)[g]
        h = np.bitwise_count(held).sum(axis=1, dtype=np.intp)
        q = np.bitwise_count(piv).sum(axis=1, dtype=np.intp)
        code = h * side + q
        shifted = code + side - 1  # (h + 1, q - 1), where a pivot vertex counts
        seen = np.zeros(side * side, dtype=bool)
        seen[code] = True
        if vertex:
            seen[shifted[q > 0]] = True
        codes = np.flatnonzero(seen)
        column = np.cumsum(seen) - 1
        # the leaves by (code, graph), contracted with C(q, s - h) at [code, s]
        hc, qc = np.divmod(codes, side)
        j = np.arange(n + 1) - hc[:, None]
        contract = np.where(j >= 0, binomials[qc[:, None], np.maximum(j, 0)], 0)
        cells = len(codes) * width
        row = column[code] * width + g
        k[present] += np.bincount(row, minlength=cells).reshape(len(codes), width).T @ contract
        if vertex:
            # the held vertices of each leaf, then its pivots, as flat
            # [leaf, u] positions moved to [code, graph, u]
            at = np.flatnonzero(_members(np.concatenate([held, piv]), n))
            row = np.concatenate([row, column[shifted] * width + g])
            move = (row - np.arange(len(row))) * n
            hist = np.bincount(at + np.repeat(move, np.concatenate([h, q])), minlength=cells * n)
            kv[present] += (hist.reshape(len(codes), width * n).T @ contract).reshape(width, n, n + 1)
    return k, kv


# ---------------------------------------------------------------------------
# profiles


def _profiles(row: list, rows: list | None) -> tuple[CliqueProfile, VertexCliqueProfile | None]:
    """The profiles of one graph's exact counts: k_s at ``row[s]`` and, if
    given, k_s(u) at ``rows[u][s]`` (0 <= s <= n)."""
    omega = sum(1 for c in row[1:] if c)
    per = None if rows is None else VertexCliqueProfile(
        tuple(tuple(r[1:omega + 1]) for r in rows), omega)
    return CliqueProfile(tuple(row[1:]), omega), per


def prime_profiles(graphs: Sequence[Graph], counts: np.ndarray,
                   vertex_counts: np.ndarray | None) -> None:
    """Store in each graph's memo the profiles of its exact counts: row g
    of ``counts`` (k_s at [g, s], 0 <= s <= n) and of ``vertex_counts``
    (k_s(u) at [g, u, s]) where given."""
    per = [None] * len(graphs) if vertex_counts is None else vertex_counts.tolist()
    for g, row, rows in zip(graphs, counts.tolist(), per):
        prof, vprof = _profiles(row, rows)
        clique_counts.prime(g, prof)
        if vprof is not None:
            vertex_clique_counts.prime(g, vprof)


def _count(g: Graph, vertex: bool) -> tuple[CliqueProfile, VertexCliqueProfile | None]:
    """One graph's profiles, per-vertex too with ``vertex``: on its vertex
    subsets up to ``MASK_MAX_N``, else on its own pivot tree."""
    adj = adjacency_stack([g])
    if g.n <= MASK_MAX_N:
        i, j = edge_pairs(g.n)
        k, kv = subset_profile((adj[:, i, j].astype(np.int64) << np.arange(len(i))).sum(axis=1),
                               g.n, vertex)
    else:
        k, kv = pivot_counts(adj, vertex)
    return _profiles(k[0].tolist(), None if kv is None else kv[0].tolist())


@per_graph
def clique_counts(g: Graph) -> CliqueProfile:
    """Exact k_s for every s."""
    return _count(g, False)[0]


@per_graph
def vertex_clique_counts(g: Graph) -> VertexCliqueProfile:
    """Exact k_s(u) for 1 <= s <= omega, counted as :func:`clique_counts`
    counts.  The count yields the totals too, so it primes
    :func:`clique_counts`: call this first when both are needed, and the
    graph is counted once."""
    prof, per = _count(g, True)
    clique_counts.prime(g, prof)
    return per


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


def proper_coloring(g: Graph, r: int,
                    mask: int | None = None) -> tuple[tuple[int, ...], ...] | None:
    """Partition the vertex set ``mask`` (default: all of V) into at most r
    independent sets of the induced subgraph, by backtracking.

    Deterministic in vertex order; new color indices are capped at one past
    the current maximum to skip symmetric assignments.  Returns the
    nonempty classes in host labels, or None when no proper r-coloring
    exists.
    """
    if r < 1:
        raise ValueError("color count must be >= 1")
    members = mask_members(g.vertex_mask() if mask is None else mask)
    class_masks = [0] * r

    def assign(i: int, used: int) -> bool:
        if i == len(members):
            return True
        u = members[i]
        row = g.adj[u]
        for c in range(min(used + 1, r - 1) + 1):
            if class_masks[c] & row:
                continue
            class_masks[c] |= 1 << u
            if assign(i + 1, max(used, c)):
                return True
            class_masks[c] &= ~(1 << u)
        return False

    if not assign(0, -1):
        return None
    return tuple(mask_members(cm) for cm in class_masks if cm)


def is_kfree(g: Graph, k: int) -> bool:
    """True iff the graph has no clique of k vertices."""
    if k < 2:
        raise ValueError("forbidden clique size must be >= 2")
    return clique_counts(g).omega < k
