"""Array screens: which evaluations of a scan chunk must be reported.

Almost every evaluation of a scan holds by a wide margin and is never
printed.  A screen evaluates one check, for one parameter combination, on
every graph of one vertex order in a chunk at once, on numpy arrays (a
``Block``): the eigenvalues of a stacked LAPACK ``eigvalsh``, an int64
clique-count matrix, and walk counts from int64 matmuls.  A block counts
each of these the first time a screen reads it, and solves eigenvalues
per row, on first read: a screen asks only for the rows its domain gate
leaves live, so a plan whose screens read no eigenvalue solves none, and
a graph every gate rules out is never solved.  Domain gates are integer
logic and are decided exactly.  An evaluation goes through
``scan.run_check`` and the reporting path only when its screened slack may
lie near a verdict threshold, when it may be among the chunk's tightest
instances, or when its graph's eigensolver failed; every other one is a
``holds`` or an out-of-domain outcome that builds no object.

A block holds its graphs as edge masks up to order ``MASK_MAX_N`` (graph6
lines are decoded to masks from uint8 rows, :func:`graph6_masks`), and
as ``Graph``s above; only ``Block`` knows which.  A ``Graph`` is built
only for a graph with a reported evaluation.  Every block-wide
computation reads the block's uint8 adjacency stack: the eigenvalues,
walk counts, the corpus filters :func:`connected` and :func:`bipartite`,
and the pivot tree (:func:`cliques.pivot_counts`), but for the clique
profile of a block of masks, counted on its vertex-subset tables.  A
reported graph's memo is primed with what the block computed: its
``eigh`` spectrum (the solve every printed figure is pinned to, run in
one stack for the reported graphs alone) where the block solved its
eigenvalues, and its exact clique profile, so the reporting path
recomputes neither.  A reported graph of a block of masks whose
eigenvalues the block solved also gets its characteristic polynomial,
from one stack, which certification reads; any other graph computes its
own at its first certified verdict.

Every check but momo is a ``bounds.Formula``, screened by running its
slots, gate, premise and sides on the block's arrays (:func:`formula_screen`).
A screened float slack differs from the reported one only by rounding
(numpy's ``**``, the floats of maxmu1's exact sides, ``eigvalsh`` against
``eigh``), far inside ``SCREEN_MARGIN``; printed figures always come from
the reporting path.  Exact sides are decided in ints.  A premise that
fails clear of the reporting path's doubt makes an outcome out of domain,
or for theorem3 a vacuous ``holds``.  momo's screen, exact in int64, is
written here.  Every count a screen reads must lie below its block's
``cap``; where one does not, the screen steps aside and the reporting path
evaluates every graph.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .bounds import SCREEN_MARGIN, Formula, Tolerances
from .cliques import MASK_MAX_N, edge_pairs, pivot_counts, prime_profiles, subset_profile
from .graphs import Graph, graph6_width, graph_from_edge_mask
from .spectral import (STACK_ENTRIES, adjacency_stack, char_poly, char_polys, prime_rows,
                       stacked_eigenvalues)

#: :func:`_signs` clamps a rational side to within this bound of 0, which
#: every int64 side (below 2^61, see ``Block``) lies well inside
_INT64_SAFE = 1 << 62


def graph6_masks(lines: np.ndarray, n: int) -> np.ndarray:
    """The edge masks of well-formed graph6 lines of order n <= MASK_MAX_N,
    given as uint8 rows of 1 + ``graph6_width(n)`` characters, as int64.
    A payload, read as one big-endian int, holds its pairs column by
    column from the top bit down, above the padding."""
    width = graph6_width(n)
    chars = lines[:, 1:].astype(np.int64) - 63
    payloads = (chars << 6 * np.arange(width - 1, -1, -1)).sum(axis=1)
    i, j = edge_pairs(n)
    shifts = 6 * width - 1 - (j * (j - 1) // 2 + i)
    return ((payloads[:, None] >> shifts & 1) << np.arange(len(i))).sum(axis=1)


class Block:
    """The graphs of one vertex order in a chunk, as arrays.

    A block is built from ``Graph``s or, for an order up to MASK_MAX_N,
    from edge masks (:meth:`from_bits`), with no ``Graph`` at all.  ``pos``
    holds the graphs' positions in the chunk.  A block counts what a
    screen reads, the first time it is read: its exact clique profile
    (k_s, and k_s(u) when the block is built with ``vertex``) and walk
    counts.  It solves per row, on first read: the eigenvalues
    (:meth:`eigenvalues`) of the rows a screen asks for and no earlier
    read solved, in one stacked ``eigvalsh``.  The profile of a block of
    ``Graph``s comes from one walk of the pivot trees of all its graphs
    at once (:func:`cliques.pivot_counts` on :attr:`adj`); from masks, k_s
    is the number of s-subsets whose complete graph's edge mask the
    graph's mask covers, and k_s(u) the number of those that hold u.
    :meth:`reported` hands
    out the ``Graph``s of the rows that take the reporting path, with what
    the block computed primed into their memos: the exact clique profiles
    it counted, and the pinned ``eigh`` spectrum, solved there for the
    reported graphs the block solved alone (from masks, with their
    characteristic polynomials).  :meth:`take` keeps some of a
    block's graphs, and what it has counted of them.
    The adjacency matrices are kept as bytes (n^2 per graph) and widened
    to floats or int64 at most STACK_ENTRIES entries at a time.

    Every count a formula or momo's screen reads, k_s, k_s(u) and w_l
    (through :meth:`k`, :meth:`kw` and :meth:`w`), is below ``cap`` =
    isqrt(2^61) // (n + 1), or the read raises OverflowError.  n + 1 times
    a product of two counts then stays below 2^61, so no exact side or
    comparison of two wraps int64.  Clique counts are clipped to ``cap``
    as they enter the screen's arrays; walks are counted only while their
    totals stay below it (:meth:`walks`).
    """

    def __init__(self, graphs: Sequence[Graph], pos: Sequence[int], vertex: bool) -> None:
        self.graphs = np.fromiter(graphs, dtype=object, count=len(graphs))
        self.masks = None
        self.n = graphs[0].n
        self.m = np.array([g.m for g in graphs], dtype=np.int64)
        self.pos = np.asarray(pos, dtype=np.intp)
        self.vertex = vertex
        self._vals: np.ndarray | None = None
        self._solved: np.ndarray | None = None
        self._kw: dict[int, np.ndarray] = {}

    @classmethod
    def from_bits(cls, n: int, masks: np.ndarray, pos: Sequence[int], vertex: bool) -> "Block":
        """The block of the graphs of order n <= MASK_MAX_N whose edge
        masks (int64, as :func:`graph_from_edge_mask` reads them) are
        ``masks``."""
        i, j = edge_pairs(n)
        edges = (masks[:, None] >> np.arange(len(i)) & 1).astype(np.uint8)
        b = cls.__new__(cls)
        b.graphs = None
        b.masks = masks
        b.n = n
        b.m = edges.sum(axis=1, dtype=np.int64)
        b.adj = np.zeros((len(masks), n, n), dtype=np.uint8)
        b.adj[:, i, j] = edges
        b.adj[:, j, i] = edges
        b.pos = np.asarray(pos, dtype=np.intp)
        b.vertex = vertex
        b._vals = b._solved = None
        b._kw = {}
        return b

    def take(self, keep: np.ndarray, vertex: bool) -> "Block":
        """The block of the graphs ``keep`` marks, built with ``vertex``.
        It holds every array this block holds of them (each holds one
        entry per graph), and the clique profile where this block counted
        one with what ``vertex`` asks for; walks, and a profile short of
        k_s(u), are counted afresh."""
        b = copy.copy(self)
        b.vertex = vertex
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                setattr(b, name, value[keep])
        if "_exact" in vars(self) and not (vertex and self._exact[1] is None):
            b._exact = tuple(None if a is None else a[keep] for a in self._exact)
        else:
            b.__dict__.pop("_exact", None)
        b.__dict__.pop("_walks", None)
        b._kw = {}
        return b

    def reported(self, rows: np.ndarray) -> list[tuple[int, Graph]]:
        """(position, Graph) of each graph that ``rows`` marks.  Where the
        block solved a graph's eigenvalues, its memo holds its ``eigh``
        spectrum, solved here in one stack for those marked graphs alone,
        and on a block of masks its characteristic polynomial too, from
        one stack again; where the block counted cliques, their exact
        profiles."""
        picked = np.flatnonzero(rows)
        if self.masks is None:
            graphs = self.graphs[picked].tolist()
        else:
            graphs = [graph_from_edge_mask(self.n, mask)
                      for mask in self.masks[picked].tolist()]
        if "_exact" in vars(self):
            counts, vertex_counts = self._exact
            prime_profiles(graphs, counts[picked],
                           None if vertex_counts is None else vertex_counts[picked])
        if self._solved is not None:
            solved = self._solved[picked]
            kept = [g for g, s in zip(graphs, solved.tolist()) if s]
            adj = self.adj[picked[solved]]
            prime_rows(kept, stacked_eigenvalues(adj))
            if self.masks is not None:
                for g, chi in zip(kept, char_polys(adj)):
                    char_poly.prime(g, chi)
        return list(zip(self.pos[picked].tolist(), graphs))

    def eigenvalues(self, rows: np.ndarray) -> np.ndarray:
        """Every graph's eigenvalues, each row descending, solved by one
        stacked ``eigvalsh`` for the graphs ``rows`` marks that no earlier
        read solved; a row of NaN where a graph is not solved, or where
        the solver failed on it."""
        if self._solved is None:
            self._vals = np.full((len(self.m), self.n), np.nan)
            self._solved = np.zeros(len(self.m), dtype=bool)
        need = rows & ~self._solved
        if need.any():
            self._vals[need] = stacked_eigenvalues(self.adj[need], np.linalg.eigvalsh)
            self._solved |= need
        return self._vals

    @functools.cached_property
    def cap(self) -> int:
        return math.isqrt(1 << 61) // (self.n + 1)

    @functools.cached_property
    def adj(self) -> np.ndarray:
        return adjacency_stack(self.graphs)

    @functools.cached_property
    def _exact(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Exact k_s at [g, s] for 0 <= s <= n and, when the block was built
        with ``vertex``, k_s(u) at [g, u, s]: on the vertex subsets of
        edge masks, else from one walk of the pivot trees of the block's
        graphs."""
        if self.masks is None:
            return pivot_counts(self.adj, self.vertex)
        return subset_profile(self.masks, self.n, self.vertex)

    @functools.cached_property
    def omega(self) -> np.ndarray:
        return np.count_nonzero(self.cliques[:, 1:], axis=1).astype(np.int64)

    @functools.cached_property
    def cliques(self) -> np.ndarray:
        """k_s in column s for 0 <= s <= n + 1 (k_0 = 1, k_{n+1} = 0), each
        clipped to :attr:`cap`."""
        out = np.zeros((len(self.m), self.n + 2), dtype=np.int64)
        out[:, :self.n + 1] = np.minimum(self._exact[0], self.cap)
        return out

    @functools.cached_property
    def vertex_cliques(self) -> np.ndarray:
        """k_s(u) at [:, u, s] for 1 <= s <= max omega + 1 (column 0 and
        slots past a graph's omega are 0), each clipped to :attr:`cap`."""
        n = self.n
        out = np.zeros((len(self.m), n, int(self.omega.max()) + 2), dtype=np.int64)
        width = min(out.shape[2], n + 1)
        out[:, :, :width] = np.minimum(self._exact[1][:, :, :width], self.cap)
        return out

    def _below_cap(self, counts: np.ndarray) -> np.ndarray:
        if counts.size and int(counts.max()) >= self.cap:
            raise OverflowError("a count reaches the block's cap")
        return counts

    def k(self, s: int) -> np.ndarray:
        """k_s of every graph, zero past the block's order."""
        k = self.cliques
        return self._below_cap(k[:, s]) if s < k.shape[1] else np.zeros(len(k), dtype=np.int64)

    def w(self, l: int) -> np.ndarray:
        """w_l, the l-walk total of every graph."""
        return self.walks(l).sum(axis=1)

    def kw(self, s: int, l: int) -> np.ndarray:
        """The sum over u of k_s(u) w_l(u) of every graph, zero past the
        largest omega."""
        if l not in self._kw:
            walks = self.walks(l)  # each w_l(u) <= w_l, below the cap
            ks = self._below_cap(self.vertex_cliques)
            self._kw[l] = np.matmul(walks[:, None, :], ks)[:, 0]
        kw = self._kw[l]
        return kw[:, s] if s < kw.shape[1] else np.zeros(len(kw), dtype=np.int64)

    @functools.cached_property
    def _walks(self) -> list[np.ndarray]:
        """w_l(u) at [l][:, u] for the lengths counted so far (row 0 is zero)."""
        return [np.zeros((len(self.m), self.n), dtype=np.int64),
                np.ones((len(self.m), self.n), dtype=np.int64)]

    def walks(self, l: int) -> np.ndarray:
        """w_l(u), the l-walks starting at u, at [:, u].  Walks are counted
        while every total is below :attr:`cap`, so no step wraps, and until
        a step leaves every count as it was, as every later one then does.
        No total decreases from l = 2 on, so a length whose total reaches
        the cap raises OverflowError.  A graph with a vertex of degree 2
        has w_l >= 2^(l/2) and any other is steady from l = 2, so at most
        2 log2(cap) + 2 steps are ever taken."""
        rows = self._walks
        # int64 copies of the 0/1 matrices, STACK_ENTRIES at a time
        step = max(1, STACK_ENTRIES // (self.n * self.n))
        while len(rows) <= l and not np.array_equal(rows[-1], rows[-2]):
            last = np.concatenate([
                np.matmul(self.adj[lo:lo + step].astype(np.int64), rows[-1][lo:lo + step, :, None])
                for lo in range(0, len(self.m), step)])[..., 0]
            if int(last.sum(axis=1).max()) >= self.cap:
                raise OverflowError("a walk total reaches the block's cap")
            rows.append(last)
        return rows[min(l, len(rows) - 1)]


def connected(b: Block) -> np.ndarray:
    """Whether each graph of a block is connected: the vertices reached
    from vertex 0, spread by one stacked matrix-vector product a round
    until a round reaches no new vertex, are all."""
    a = b.adj.astype(float)
    reach = np.zeros((len(a), b.n, 1))
    reach[:, 0] = 1.0
    while True:
        grown = np.minimum(reach + np.matmul(a, reach), 1.0)
        if np.array_equal(grown, reach):
            return reach.all(axis=(1, 2))
        reach = grown


def bipartite(b: Block) -> np.ndarray:
    """Whether each graph of a block is bipartite: no edge joins two
    vertices of one parity once every vertex holds a key 2 l + p, a vertex
    l of its component (its label) and the parity p of a walk from it to l.

    Every vertex starts as its own label with parity 0, so an isolated
    vertex is done at once and every component starts from all its
    vertices in the same round.  A round lowers each key to the least of
    its neighbours' keys with the parity flipped and of its label's key
    with the parities added (a jump to the label's label), until no key
    changes.  Then each component's vertices hold its least vertex as
    their label, and on a bipartite graph every parity is that of a proper
    2-colouring.  The rounds grow with the components' diameters, not with
    their number; each reads the edge list once."""
    k, n = len(b.adj), b.n
    # each edge appears twice, as entry (i n + dst) n + src % n of graph i
    flat = np.flatnonzero(b.adj.reshape(-1).view(bool))
    dst = flat // n
    src = dst - dst % n + flat % n
    key = 2 * np.arange(k * n)
    while True:
        spread = key[key >> 1] ^ (key & 1)
        np.minimum.at(spread, dst, key[src] ^ 1)
        if np.array_equal(spread, key):
            break
        key = spread
    odd = np.zeros(k, dtype=bool)
    odd[dst[(key[src] ^ key[dst]) & 1 == 0] // n] = True
    return ~odd


@dataclass
class Screen:
    """One check and parameter combination, screened on one block.

    ``exact`` marks the graphs whose evaluation takes the reporting path.
    For the others, ``ood`` counts their out-of-domain outcomes, and every
    other outcome is a ``holds``.  ``slack`` and ``scale`` (graphs x
    outcome slots) hold the slack of each outcome that holds clear of every
    threshold, NaN elsewhere; they rank the chunk's tightest instances.
    """

    exact: np.ndarray
    ood: np.ndarray
    slack: np.ndarray
    scale: np.ndarray


ScreenFn = Callable[[Block, dict, Tolerances], "Screen | None"]


def _scale(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def _signs(lhs, rhs) -> np.ndarray | None:
    """sign(rhs - lhs) in ints, where rhs is an int64 array and lhs one too
    or a rational q (a > q iff a > floor(q), a < q iff a < ceil(q)); else
    None."""
    if not (isinstance(rhs, np.ndarray) and rhs.dtype.kind == "i"):
        return None
    if isinstance(lhs, np.ndarray):
        return np.sign(rhs - lhs) if lhs.dtype.kind == "i" else None
    if not isinstance(lhs, (int, Fraction)):
        return None
    lo, hi = (min(max(end, -_INT64_SAFE), _INT64_SAFE) for end in (math.floor(lhs), math.ceil(lhs)))
    return (rhs > lo).astype(np.int64) - (rhs < hi)


def _sides(f: Formula, b: Block, params: dict, rows: np.ndarray):
    """``f``'s sides as floats, and the exact sign of its slack (or None).
    Eigenvalues are solved for the graphs ``rows`` marks alone; the sides
    of the others are meaningless."""
    count = len(rows)
    mus = ()
    if f.ranks:
        vals = b.eigenvalues(rows)
        mus = (vals[:, 0], vals[:, 1] if b.n > 1 else np.zeros(count))[:f.ranks]
    lhs, rhs = f.sides(b, *mus, **params)
    signs = _signs(lhs, rhs)
    lhs, rhs = (np.asarray(side, dtype=float) if isinstance(side, np.ndarray)
                else np.full(count, float(side)) for side in (lhs, rhs))
    return lhs, rhs, signs


def _premise_clear(f: Formula, b: Block, params: dict, tols: Tolerances, live: np.ndarray):
    """Where the premise ``f`` holds, and where it fails (its gate and the
    graphs not ``live`` included), clear of the reporting path's doubt:
    exactly, or by the margin around -hold * scale, outside which the
    reporting path decides a premise on its floats too
    (:func:`bounds.premise_holds`).  Only the graphs left live by its gate
    are solved."""
    gated = ~live | f.gate(b, **params)
    lhs, rhs, signs = _sides(f, b, params, ~gated)
    if signs is not None:
        return ~gated & (signs >= 0), gated | (signs < 0)
    slack, band = rhs - lhs, (tols.hold + SCREEN_MARGIN) * _scale(lhs, rhs)
    return ~gated & (slack > band), gated | (slack < -band)


def _slot(f: Formula, b: Block, params: dict, present, tols: Tolerances, count: int):
    """One outcome of ``f`` on a block: where it is live (in domain, premise
    not failed), out of domain and sure (premise holding clear), and
    :func:`_sides` of the live graphs."""
    ood = np.zeros(count, dtype=bool) | f.gate(b, **params)
    live = ~ood
    if present is not True:  # an outcome only some graphs have
        ood &= present
        live &= present
    sure = live
    if f.premise is not None:
        holds, fails = _premise_clear(f.premise, b, params, tols, live)
        if not f.vacuous:
            ood |= live & fails
        live = live & ~fails
        sure = live & holds
    if f.sides is None:
        return live, ood, sure
    return live, ood, sure, *_sides(f, b, params, live)


def _columns(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0][:, None] if len(arrays) == 1 else np.stack(arrays, axis=1)


def formula_screen(f: Formula) -> ScreenFn:
    """The screen of formula ``f``.  Per outcome, graphs its gate marks,
    or whose premise fails clear (unless vacuous), are out of domain; the
    others are reported unless their premise holds clear and their slack
    clears the hold and equality thresholds by the margin (a failed
    spectrum's NaN never does), or for exact sides is positive.  polyn's
    trivial outcomes are always reported.  Params the slots or gate refuse,
    or a count that may leave int64, make the screen step aside."""
    def run(b: Block, params: dict, tols: Tolerances) -> Screen | None:
        count = len(b.m)
        try:
            slots = f.slots(b, **params)
            cols = [_slot(f, b, p, present, tols, count) for p, present in slots]
        except (ValueError, ArithmeticError):
            return None
        none = np.empty((count, 0))
        if not cols:
            return Screen(np.zeros(count, dtype=bool), np.zeros(count, dtype=np.int64),
                          none, none)
        live, ood, sure, *sides = zip(*cols)
        live, ood, sure = _columns(live), _columns(ood), _columns(sure)
        if f.sides is None:  # never clear: every live outcome is reported, unranked
            return Screen(live.any(axis=1), ood.sum(axis=1), none, none)
        lhs, rhs = _columns(sides[0]), _columns(sides[1])
        slack, scale = rhs - lhs, _scale(lhs, rhs)
        if sides[2][0] is not None:  # exact sides
            clear = _columns(sides[2]) > 0
        else:
            clear = slack > (max(abs(tols.hold), abs(tols.equality)) + SCREEN_MARGIN) * scale
        if f.trivial is not None:
            clear &= ~f.trivial(b)[:, None]
        ranked = sure & clear
        return Screen((live & ~ranked).any(axis=1), ood.sum(axis=1),
                      np.where(ranked, slack, np.nan), scale)
    return run


def screen_momo(b: Block, params: dict, tols: Tolerances) -> Screen | None:
    # rho_t = ((t+1) k_{t+1} - n k_t) / (t k_t) for 1 <= t < omega must not
    # decrease; compared by cross-multiplying, exactly.  An outcome never
    # ranks among the tightest.  With every k_s below cap, |num| and den
    # stay below n cap, and each cross-product below 2^61.
    k = b.cliques
    n = b.n
    if int(k.max()) >= b.cap:
        return None
    om = b.omega
    t = np.arange(1, n)
    num = (t + 1) * k[:, 2:n + 1] - n * k[:, 1:n]
    den = t * k[:, 1:n]
    descent = num[:, :-1] * den[:, 1:] > num[:, 1:] * den[:, :-1]
    # the pair (t, t + 1) exists when t + 1 < omega
    exists = t[None, :-1] + 1 < om[:, None]
    none = np.empty((len(om), 0))
    return Screen((descent & exists).any(axis=1), np.zeros(len(om), dtype=np.int64),
                  none, none)


def screen_chunk(blocks: Sequence[Block], size: int, combos: Sequence[tuple[str, dict]],
                 screens: Sequence[ScreenFn | None], tols: Tolerances,
                 top_k: int) -> tuple[np.ndarray, int]:
    """Which evaluations of a chunk of ``size`` graphs take the reporting path.

    ``blocks`` hold the graphs to scan; a position no block holds is never
    taken.  ``combos`` are the plan's (check, params) pairs in order and
    ``screens`` the screen of each check, or None.  Returns a (combos x
    size) array, True where ``run_check`` must evaluate, and the number of
    out-of-domain outcomes among the rest.  An evaluation is kept for the
    chunk's top_k tightest instances when its clamped slack, less its
    margin, is at most the top_k-th smallest clamped slack plus margin
    among the outcomes that hold clear of every threshold (all of which
    are candidates).
    """
    take = np.zeros((len(combos), size), dtype=bool)
    for b in blocks:
        take[:, b.pos] = True
    # a power that overflows gives inf or NaN, which is never far from a
    # threshold, so the reporting path decides that evaluation
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        screened = [(ci, b, fn(b, params, tols))
                    for ci, ((_, params), fn) in enumerate(zip(combos, screens))
                    if fn is not None for b in blocks]
    screened = [item for item in screened if item[2] is not None]
    ood = 0
    if screened:
        pool = np.concatenate([
            (np.maximum(sc.slack, 0.0) + SCREEN_MARGIN * sc.scale).ravel()
            for _, _, sc in screened])
        pool = pool[~np.isnan(pool)]
        bar = np.partition(pool, top_k - 1)[top_k - 1] if len(pool) >= top_k else np.inf
        for ci, b, sc in screened:
            tight = (np.maximum(sc.slack, 0.0) - SCREEN_MARGIN * sc.scale <= bar).any(axis=1)
            keep = sc.exact | tight
            take[ci, b.pos] = keep
            ood += int(sc.ood[~keep].sum())
    return take, ood
