"""Exact clique statistics and structural recognizers.

Clique counts come from a pivot tree (Jain and Seshadhri, "The Power of
Pivoting for Exact Clique Counting", WSDM 2020), not from visiting every
clique.  A node of the tree holds h vertices, has q pivot vertices, and
its candidates are the common neighbours of all of them.  It picks the
candidate p with the most candidate neighbours as its pivot.  A clique
among the candidates either avoids every candidate outside N(p) + p and
lies under the child that adds p to the pivots (candidates N(p)), or its
first such vertex v is held in a child of its own (candidates N(v), less
the non-neighbours of p handled before v).  A leaf, with no candidates
left, stands for the 2^q cliques made of its held vertices and any subset
of its pivots: C(q, j) cliques of size h + j.  Each held vertex lies in
all of them, each pivot vertex in C(q - 1, j) of size h + 1 + j.  A complete
graph is one root-to-leaf path.
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


def _pivot_tree(adj: tuple[int, ...], cand: int, pre: int, w: int,
                rows: list[int] | None) -> int:
    """Clique counts below one node of the pivot tree, packed in an int.

    A count vector c_0, c_1, ... is packed as sum(c_s << s * w), which is
    the polynomial sum(c_s x^s) at x = 2^w.  ``pre`` is x^h (1 + x)^q for
    the node's h held and q pivot vertices, so a leaf's cliques are ``pre``
    itself.  When ``rows`` is given, ``rows[u]`` gains the packed counts of
    the cliques through u under the node: all of a held child's cliques,
    and x / (1 + x) times a pivot child's.  Every slot counts distinct
    vertex sets of one size, fewer than 2^n, so w = n keeps the slots apart
    and the division exact.
    """
    top = cand.bit_count() - 1
    best = -1
    c = cand
    while c:
        low = c & -c
        c ^= low
        d = (adj[low.bit_length() - 1] & cand).bit_count()
        if d > best:
            best = d
            pivot = low
            if d == top:
                break
    p = pivot.bit_length() - 1
    # a child with fewer than two candidates is a leaf or one pivot away
    # from one; both are counted in place, which saves most calls
    total = 0
    rest = cand & ~adj[p] ^ pivot
    if rest:
        held = pre << w
        while rest:
            low = rest & -rest
            rest ^= low
            cand ^= low
            v = low.bit_length() - 1
            sub = cand & adj[v]
            if not sub:
                s = held
            elif sub & (sub - 1):
                s = _pivot_tree(adj, sub, held, w, rows)
            else:
                s = held + (held << w)
                if rows is not None:
                    rows[sub.bit_length() - 1] += held << w
            total += s
            if rows is not None:
                rows[v] += s
    sub = cand & adj[p]
    pre += pre << w
    if not sub:
        s = pre
    elif sub & (sub - 1):
        s = _pivot_tree(adj, sub, pre, w, rows)
    else:
        s = pre + (pre << w)
        if rows is not None:
            rows[sub.bit_length() - 1] += pre << w
    if rows is not None:
        rows[p] += s // ((1 << w) + 1) << w
    return total + s


def _unpack(packed: int, w: int, omega: int) -> tuple[int, ...]:
    # slots 1..omega; a plain loop is several times faster than a generator
    mask = (1 << w) - 1
    out = []
    for _ in range(omega):
        packed >>= w
        out.append(packed & mask)
    return tuple(out)


def _profile(packed: int, n: int) -> CliqueProfile:
    omega = (packed.bit_length() - 1) // n
    return CliqueProfile(_unpack(packed, n, omega) + (0,) * (n - omega), omega)


@per_graph
def clique_counts(g: Graph) -> CliqueProfile:
    """Exact k_s for every s, from the pivot tree."""
    return _profile(_pivot_tree(g.adj, g.vertex_mask(), 1, g.n, None), g.n)


@per_graph
def vertex_clique_counts(g: Graph) -> VertexCliqueProfile:
    """Exact k_s(u) for 1 <= s <= omega, from the same pivot tree.  The
    tree walk also yields the totals, so it primes :func:`clique_counts`
    too: call this first when both are needed, and the tree runs once."""
    rows = [0] * g.n
    prof = _profile(_pivot_tree(g.adj, g.vertex_mask(), 1, g.n, rows), g.n)
    clique_counts.prime(g, prof)
    return VertexCliqueProfile(tuple(_unpack(r, g.n, prof.omega) for r in rows),
                               prof.omega)


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
