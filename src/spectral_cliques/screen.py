"""Array screens: which evaluations of a scan chunk must be reported.

Almost every evaluation of a scan holds by a wide margin and is never
printed.  A screen evaluates one check, for one parameter combination, on
every graph of one vertex order in a chunk at once, on numpy arrays: the
eigenvalues of the stacked LAPACK solve, an int64 clique-count matrix from
one pivot-tree walk per graph, and walk counts from int64 matrix products.
Domain gates are integer logic and are decided exactly.  An evaluation goes
through ``scan.run_check`` and the reporting path only when its screened
slack may lie near a verdict threshold, when it may be among the chunk's
tightest instances, or when its graph's eigensolver failed; every other one
is a ``holds`` or an out-of-domain outcome that builds no object.

``stability`` and ``edge_corollary`` apply only under a spectral premise
(K_{r+1}-free and mu at least ``bounds.premise_cut``), which almost no graph
of a random corpus meets.  Their screen decides the premise alone: a graph
that fails it clear of the margin is out of domain, and every other one is
reported, since neither check has a slack to screen on (a stability outcome
never ranks; an edge_corollary outcome that meets the premise is printed or
ranked by the reporting path).

The seven one-slack checks are screened by running their own
``bounds.Formula`` on the block's arrays (:func:`formula_screen`), so a
screened slack differs from the reported one only by rounding (numpy's
``**``, the floats of maxmu1's exact sides), a few units in the last
place.  That is far inside ``SCREEN_MARGIN``; printed figures always come
from the reporting path.  The screens of ``oldin`` and ``momo`` (exact in
int64) and of the spectral premise are written here.  Where an int64
count or product could overflow, the screen steps aside and the reporting
path evaluates every graph.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import Formula, Tolerances, exact_alpha, premise_cut
from .cliques import clique_counts, vertex_clique_counts
from .graphs import Graph
from .spectral import STACK_ENTRIES, adjacency_stack, prime_rows, stacked_eigenvalues
from .stability import alpha_limit, stability_alpha

#: a screened slack counts as far from a threshold, or from the chunk's
#: tightest instances, only when it clears them by this much times its
#: scale max(1, |lhs|, |rhs|); the screen's arithmetic is within a few
#: units in the last place (about 1e-15 relative) of the reported figures
SCREEN_MARGIN = 1e-9

#: int64 products stay below this bound, so a sum of two cannot overflow
_INT64_SAFE = 1 << 62


class Block:
    """The graphs of one vertex order in a chunk, as arrays.

    ``pos`` holds the graphs' positions in the chunk.  With ``spectra`` the
    block solves the graphs' LAPACK spectra in stacks; :meth:`prime` stores
    them in the memos of the graphs that will be reported.  Clique counts,
    per-vertex clique counts and walk counts are computed when a screen
    first asks for them; with ``vertex`` the per-vertex counts come first,
    so that one pivot-tree walk per graph fills both memo entries.  The
    adjacency matrices are kept as bytes (n^2 per graph) and widened to
    floats or int64 at most STACK_ENTRIES entries at a time.
    """

    def __init__(self, graphs: Sequence[Graph], pos: Sequence[int],
                 spectra: bool, vertex: bool) -> None:
        self.graphs = graphs
        self.pos = np.asarray(pos, dtype=np.intp)
        self.n = graphs[0].n
        self.vertex = vertex
        self.m = np.array([g.m for g in graphs], dtype=np.int64)
        self.vals = self.mu = self.mu2 = None
        if spectra:
            self.vals = stacked_eigenvalues(self.adj)
            self.mu = self.vals[:, 0]
            self.mu2 = self.vals[:, 1] if self.n > 1 else np.zeros(len(graphs))
        self._walks: np.ndarray | None = None

    def prime(self, rows: np.ndarray) -> None:
        """Prime the spectra of the graphs that ``rows`` marks."""
        if self.vals is not None:
            picked = np.flatnonzero(rows)
            prime_rows([self.graphs[i] for i in picked], self.vals[picked])

    @functools.cached_property
    def adj(self) -> np.ndarray:
        return adjacency_stack(self.graphs)

    @functools.cached_property
    def _profiles(self) -> list:
        if self.vertex:
            for g in self.graphs:
                vertex_clique_counts(g)
        return [clique_counts(g) for g in self.graphs]

    @functools.cached_property
    def omega(self) -> np.ndarray:
        return np.array([prof.omega for prof in self._profiles], dtype=np.int64)

    @functools.cached_property
    def cliques(self) -> np.ndarray | None:
        """k_s in column s for 0 <= s <= n + 1 (k_0 = 1, k_{n+1} = 0), or
        None when (n + 1) k_s may leave int64."""
        try:
            counts = np.array([prof.counts for prof in self._profiles], dtype=np.int64)
        except OverflowError:
            return None
        if (self.n + 1) * int(counts.max()) >= _INT64_SAFE:
            return None
        out = np.zeros((len(self.graphs), self.n + 2), dtype=np.int64)
        out[:, 0] = 1
        out[:, 1:self.n + 1] = counts
        return out

    @functools.cached_property
    def vertex_cliques(self) -> np.ndarray | None:
        """k_s(u) at [:, u, s] for 1 <= s <= max omega + 1 (column 0 and
        slots past a graph's omega are 0), or None when a count leaves
        int64."""
        out = np.zeros((len(self.graphs), self.n, int(self.omega.max()) + 2),
                       dtype=np.int64)
        try:
            for i, g in enumerate(self.graphs):
                prof = vertex_clique_counts(g)
                out[i, :, 1:prof.omega + 1] = prof.rows
        except OverflowError:
            return None
        return out

    def k(self, s: int) -> np.ndarray:
        """k_s of every graph, zero past the block's order; OverflowError
        where :attr:`cliques` is None."""
        k = self.cliques
        if k is None:
            raise OverflowError("a clique count may leave int64")
        return k[:, s] if s < k.shape[1] else np.zeros(len(k), dtype=np.int64)

    def w(self, l: int) -> np.ndarray:
        """w_l, the l-walk total of every graph; OverflowError where
        :meth:`walks` is None."""
        walks = self.walks(l)
        if walks is None:
            raise OverflowError("a walk count may leave int64")
        return walks[:, l].sum(axis=1)

    @functools.cached_property
    def _maxdeg(self) -> int:
        return max(max(g.degrees) for g in self.graphs)

    def walks(self, L: int) -> np.ndarray | None:
        """w_l(u), the l-walks starting at u, at [:, l, u] for 1 <= l <= L
        (row 0 is zero), or None when n * maxdeg^(L-1), which bounds every
        walk total up to length L, reaches 2^63."""
        if self.n * self._maxdeg ** (L - 1) >= 1 << 63:
            return None
        if self._walks is None:
            self._walks = np.zeros((len(self.graphs), 2, self.n), dtype=np.int64)
            self._walks[:, 1] = 1
        have = self._walks.shape[1]
        if have <= L:
            more = np.empty((len(self.graphs), L + 1 - have, self.n), dtype=np.int64)
            # int64 copies of the 0/1 matrices, STACK_ENTRIES at a time
            step = max(1, STACK_ENTRIES // (self.n * self.n))
            for lo in range(0, len(self.graphs), step):
                a = self.adj[lo:lo + step].astype(np.int64)
                last = self._walks[lo:lo + step, -1]
                for j in range(L + 1 - have):
                    last = more[lo:lo + step, j] = np.matmul(a, last[..., None])[..., 0]
            self._walks = np.concatenate([self._walks, more], axis=1)
        return self._walks[:, :L + 1]


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


def formula_screen(f: Formula) -> ScreenFn:
    """The screen of a one-slack check, ``f``'s gate and sides on a block's
    arrays.  Graphs the gate marks are out of domain.  The others are
    reported unless their slack clears the hold and equality thresholds by
    the margin (a failed spectrum's NaN never does); polyn's trivial ones
    always are.  Params the gate refuses, or a count that may leave int64,
    make the screen step aside."""
    def run(b: Block, params: dict, tols: Tolerances) -> Screen | None:
        try:
            ood = np.zeros(len(b.m), dtype=bool) | f.gate(b, **params)
            lhs, rhs = f.sides(b, *(b.mu, b.mu2)[:f.ranks], **params)
        except (ValueError, OverflowError):
            return None
        lhs, rhs = (np.broadcast_to(np.asarray(side, dtype=float), ood.shape)
                    for side in (lhs, rhs))
        slack = rhs - lhs
        scale = _scale(lhs, rhs)
        thr = max(abs(tols.hold), abs(tols.equality)) + SCREEN_MARGIN
        far = (slack > thr * scale) & ~ood
        if f.trivial is not None:
            far &= ~f.trivial(b)
        return Screen(~far & ~ood, ood.astype(np.int64),
                      np.where(far, slack, np.nan)[:, None], scale[:, None])
    return run


def screen_oldin(b: Block, params: dict, tols: Tolerances) -> Screen | None:
    l = params["l"]
    if l < 2:
        return None
    walks = b.walks(l + 1)
    per = b.vertex_cliques
    k = b.cliques
    if walks is None or per is None or k is None:
        return None
    n = b.n
    totals = walks[:, l].sum(axis=1)
    bound = max(n * int(per.max()) * int(walks[:, l:l + 2].max()) * 2,
                n * int(k.max()) * int(totals.max()))
    if bound >= _INT64_SAFE:
        return None
    om = b.omega
    top = int(om.max())
    s = params["s"]
    sizes = np.arange(2, top + 1) if s is None else np.array([s])
    valid = (sizes[None, :] >= 2) & (sizes[None, :] <= om[:, None])
    ood = np.zeros(len(om), dtype=np.int64) if s is None else (~valid[:, 0]).astype(np.int64)
    cols = np.clip(sizes, 0, top)  # any column of an invalid slot will do
    # sum_u k_s(u) w_{l+1}(u) - k_{s+1}(u) w_l(u)  and  (s-1) k_s w_l
    lhs = (np.einsum("gus,gu->gs", per[:, :, cols], walks[:, l + 1])
           - np.einsum("gus,gu->gs", per[:, :, cols + 1], walks[:, l]))
    rhs = (sizes - 1)[None, :] * k[:, cols] * totals[:, None]
    # reported where the exact slack is not positive (an equality or a
    # violation) in an outcome slot that exists
    far = valid & (rhs > lhs)
    lhs_f, rhs_f = lhs.astype(float), rhs.astype(float)
    return Screen((valid & ~far).any(axis=1), ood, np.where(far, rhs_f - lhs_f, np.nan),
                  _scale(lhs_f, rhs_f))


def screen_momo(b: Block, params: dict, tols: Tolerances) -> Screen | None:
    # rho_t = ((t+1) k_{t+1} - n k_t) / (t k_t) for 1 <= t < omega must not
    # decrease; compared by cross-multiplying, exactly
    k = b.cliques
    n = b.n
    if k is None or 2 * n * n * int(k.max()) ** 2 >= _INT64_SAFE:
        return None
    om = b.omega
    t = np.arange(1, n)
    num = (t + 1) * k[:, 2:n + 1] - n * k[:, 1:n]
    den = t * k[:, 1:n]
    descent = num[:, :-1] * den[:, 1:] > num[:, 1:] * den[:, :-1]
    # the pair (t, t + 1) exists when t + 1 < omega
    exists = t[None, :-1] + 1 < om[:, None]
    exact = (descent & exists).any(axis=1)
    return _unranked(exact, np.zeros(len(om), dtype=bool))


def screen_stability(b: Block, params: dict, tols: Tolerances) -> Screen | None:
    r = params["r"]
    try:
        a = stability_alpha(r, params["alpha"])
    except ValueError:
        return None  # the reporting path raises the same error
    if a > alpha_limit(r):
        return _unranked(np.zeros(len(b.m), dtype=bool), np.ones(len(b.m), dtype=bool))
    return _premise(b, r, a, tols)


def screen_edge_corollary(b: Block, params: dict, tols: Tolerances) -> Screen | None:
    r = params["r"]
    try:
        a = exact_alpha(params["alpha"])
    except (ValueError, ArithmeticError):
        a = None
    if r < 2 or a is None:
        return None  # the reporting path raises the same error
    return _premise(b, r, float(a), tols)


def _premise(b: Block, r: int, alpha: float, tols: Tolerances) -> Screen:
    """The spectral premise: K_{r+1}-free (exact) and mu at least
    ``bounds.premise_cut``.  A graph below the cut by more than the margin
    is out of domain; every other one is reported, a failed spectrum's NaN
    included."""
    cut = premise_cut(b.n, r, alpha, tols)
    ood = (b.omega > r) | (b.mu < cut - SCREEN_MARGIN * max(1.0, abs(cut)))
    return _unranked(~ood, ood)


def _unranked(exact: np.ndarray, ood: np.ndarray) -> Screen:
    """A screen whose outcomes never rank among the tightest: those not
    reported are out of domain where ``ood`` marks them, else ``holds``."""
    none = np.empty((len(exact), 0))
    return Screen(exact, ood.astype(np.int64), none, none)


def screen_chunk(graphs: Sequence[Graph], combos: Sequence[tuple[str, dict]],
                 screens: Sequence[ScreenFn | None], tols: Tolerances, top_k: int,
                 spectra: bool, vertex: bool) -> tuple[np.ndarray, int]:
    """Which evaluations of a chunk take the reporting path.

    ``combos`` are the plan's (check, params) pairs in order and ``screens``
    the screen of each check, or None.  Returns a (combos x graphs) array,
    True where ``run_check`` must evaluate, and the number of out-of-domain
    outcomes among the rest.  An evaluation is kept for the chunk's top_k
    tightest instances when its clamped slack, less its margin, is at most
    the top_k-th smallest clamped slack plus margin among the outcomes that
    hold clear of every threshold (all of which are candidates).
    """
    take = np.ones((len(combos), len(graphs)), dtype=bool)
    by_order: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        by_order.setdefault(g.n, []).append(i)
    blocks = [Block([graphs[i] for i in pos], pos, spectra, vertex)
              for pos in by_order.values()]
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
    for b in blocks:
        b.prime(take[:, b.pos].any(axis=0))
    return take, ood
