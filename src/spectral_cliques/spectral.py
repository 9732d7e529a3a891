"""Adjacency eigenvalues and exact walk counting.

Only eigenvalues are kept: every inequality of the paper reads the spectral
radius or the second eigenvalue alone.  They come from dense symmetric
diagonalization (LAPACK ``eigh`` through numpy, its eigenvectors dropped;
a scan's screen reads ``eigvalsh``, which skips them).
When a verdict sits close to the tolerance band, an eigenvalue is bracketed
between rationals by exact integer counts instead (``eigenvalue_bracket``):
the eigenvalues above a rational are counted by Descartes' rule of signs on
the characteristic polynomial (``roots_above``), whose integer
coefficients are computed once per graph, by Faddeev-LeVerrier modulo
primes, for a whole stack of graphs at once (``char_polys``).  A bracket
reads the graph through that polynomial and dyadic ints alone, so it is
cached on those and shared by every graph of a process.
Walk counts are exact integers throughout; floating point enters only at
the final division of the ratio-limit check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graphs import Graph, is_bipartite, is_connected, mask_members, per_graph

INT128_MAX = (1 << 127) - 1

#: a first eigenvalue bracket has ends on the grid of 2^-(BRACKET_BITS+1),
#: at least 2^-(BRACKET_BITS+1) ~ 4.7e-10 from the LAPACK value, far above
#: LAPACK's error on any order up to the hard cap
BRACKET_BITS = 30

#: eigenvalue brackets are shared by every graph of a process, keyed on its
#: characteristic polynomial and dyadic ints alone; at most this many are
#: kept, the least recently used dropped first
SHARED_BRACKETS = 1 << 12

#: a stacked LAPACK solve holds at most this many matrix entries (2 MiB of
#: float64): 5,349 graphs of order 7, 40 of order 80, one of order 512
STACK_ENTRIES = 1 << 18

#: the 7 largest primes below 2^31, largest first: characteristic
#: polynomials are computed modulo the first few (:func:`_moduli`), and an
#: order up to ``bounds.CERTIFY_MAX_N``, the largest that certification
#: reads them at, needs them all
PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
          2147483543)


class WalkOverflowError(OverflowError):
    """A walk total left the 128-bit range; the requested length is too large."""


class EigensolverError(ArithmeticError):
    """LAPACK's eigensolver did not converge on a graph."""


@dataclass(frozen=True)
class Spectrum:
    """All adjacency eigenvalues, sorted descending."""

    eigenvalues: tuple[float, ...]

    @property
    def mu(self) -> float:
        return self.eigenvalues[0]


def adjacency_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """0/1 adjacency matrices of graphs of one order, shape (k, n, n), uint8.

    Each bit row becomes ceil(n/8) little-endian bytes, which numpy unpacks,
    so every order up to the hard cap takes the same route.
    """
    n = graphs[0].n
    width = (n + 7) // 8
    raw = b"".join(row.to_bytes(width, "little") for g in graphs for row in g.adj)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(graphs), n, width)
    return np.unpackbits(packed, axis=-1, count=n, bitorder="little")


def _eigh(a: np.ndarray) -> np.ndarray:
    return np.linalg.eigh(a)[0]


def _solve_rows(adj: np.ndarray, solve: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    # A stacked solve equals one call per matrix bit for bit.  eigh and
    # eigvalsh differ in the last bits (about 10 units in the last place
    # at most, measured), so printed figures come from eigh alone; the
    # screen, which clears every threshold by SCREEN_MARGIN, reads eigvalsh.
    try:
        vals = solve(adj.astype(float))
    except np.linalg.LinAlgError:
        if len(adj) == 1:
            return np.full((1, adj.shape[-1]), np.nan)
        return np.concatenate([_solve_rows(adj[i:i + 1], solve) for i in range(len(adj))])
    order = np.argsort(vals, axis=-1)[:, ::-1]
    return vals[np.arange(len(vals))[:, None], order]


def stacked_eigenvalues(adj: np.ndarray,
                        solve: Callable[[np.ndarray], np.ndarray] = _eigh) -> np.ndarray:
    """Eigenvalues of a (k, n, n) stack of adjacency matrices, each row
    sorted descending; an empty stack gives a (0, n) array.

    ``solve`` maps a float stack to its eigenvalues: LAPACK ``eigh`` with
    its eigenvectors dropped, to which every reported figure is pinned, or
    ``np.linalg.eigvalsh`` for the screen.  The matrices are solved in
    stacks of at most STACK_ENTRIES entries.  If a stack fails to converge,
    its matrices are solved one at a time, and a matrix that fails alone
    gets a row of NaN.
    """
    n = adj.shape[-1]
    step = max(1, STACK_ENTRIES // (n * n))
    return np.concatenate([np.empty((0, n))] + [_solve_rows(adj[lo:lo + step], solve)
                                                for lo in range(0, len(adj), step)])


def prime_rows(graphs: Sequence[Graph], vals: np.ndarray) -> None:
    """Store each graph's row of eigenvalues (as :func:`stacked_eigenvalues`
    gives them) in its memo, where ``spectrum(g)`` finds it.  A graph whose
    row is NaN, which the solver failed on, is left out, so its own
    ``spectrum`` call raises."""
    for g, row in zip(graphs, vals.tolist()):
        if row[0] == row[0]:  # not NaN
            spectrum.prime(g, Spectrum(tuple(row)))


@per_graph
def spectrum(g: Graph) -> Spectrum:
    """All n eigenvalues of the 0/1 adjacency matrix, sorted descending,
    from LAPACK (:func:`stacked_eigenvalues` on a stack of one).  Raises
    EigensolverError if the solver does not converge.
    """
    row = stacked_eigenvalues(adjacency_stack([g]))[0].tolist()
    if row[0] != row[0]:  # NaN
        raise EigensolverError("LAPACK eigh failed to converge")
    return Spectrum(tuple(row))


def _moduli(n: int) -> tuple[int, ...]:
    """The fewest of PRIMES whose product exceeds twice every |c_k| of a
    graph of order n.  c_k is (-1)^k times the sum of the C(n, k)
    principal k-by-k minors of A, and such a minor, whose rows hold at
    most k - 1 ones, is at most (k - 1)^(k/2) by Hadamard's inequality."""
    bound_sq = max(math.comb(n, k) ** 2 * max(k - 1, 0) ** k for k in range(n + 1))
    product = 1
    for count, p in enumerate(PRIMES, 1):
        product *= p
        if product * product > 4 * bound_sq:
            return PRIMES[:count]
    raise ValueError(f"order {n} needs more than {len(PRIMES)} primes")


def _leverrier(adj: np.ndarray, primes: tuple[int, ...], which: np.ndarray) -> np.ndarray:
    """c_0, ..., c_n of each matrix of a (k, n, n) uint8 stack, matrix i
    modulo primes[which[i]], as int64 residues at [i, :].

    Faddeev-LeVerrier: M_1 = I, c_j = -tr(A M_j) / j and M_{j+1} =
    A M_j + c_j I.  The M_j are kept in float64, where a product A M with
    0/1 entries in A is exact while n max|M| stays below 2^53, and are
    reduced (into (-p, p)) only before a product that could pass it."""
    count, n = len(adj), adj.shape[-1]
    a = adj.astype(float)
    mods = np.array(primes, dtype=np.int64)[which]
    p = mods.astype(float)[:, None, None]
    inv = np.array([[pow(j, -1, q) for q in primes] for j in range(1, n + 1)],
                   dtype=np.int64)[:, which]
    diag = np.arange(n)
    out = np.ones((count, n + 1), dtype=np.int64)
    m = np.zeros_like(a)
    top = 0  # no |entry| of m exceeds top
    for j in range(1, n + 1):
        if n * (top + PRIMES[0]) >= 1 << 53:
            m -= np.floor(m / p) * p
            top = PRIMES[0]
        m[:, diag, diag] += out[:, j - 1, None]
        m = np.matmul(a, m)
        top = n * (top + PRIMES[0])
        trace = (m[:, diag, diag].astype(np.int64) % mods[:, None]).sum(axis=1)
        out[:, j] = -trace % mods * inv[j - 1] % mods
    return out


def char_polys(adj: np.ndarray) -> list[tuple[int, ...]]:
    """The characteristic polynomial det(xI - A) of each matrix of a
    (k, n, n) uint8 stack of adjacency matrices, as its integer
    coefficients (1, c_1, ..., c_n), highest degree first.

    Each is computed modulo as many primes below 2^31 as its size needs
    (:func:`_moduli`) and joined by the Chinese remainder theorem; the
    stack of (matrix, prime) pairs runs at most STACK_ENTRIES entries at a
    time."""
    count, n = len(adj), adj.shape[-1]
    primes = _moduli(n)
    rows = np.repeat(adj, len(primes), axis=0)
    which = np.tile(np.arange(len(primes)), count)
    step = max(1, STACK_ENTRIES // (n * n))
    residues = np.concatenate([np.ones((0, n + 1), dtype=np.int64)] + [
        _leverrier(rows[lo:lo + step], primes, which[lo:lo + step])
        for lo in range(0, len(rows), step)])
    modulus = math.prod(primes)
    weights = np.array([modulus // p * pow(modulus // p, -1, p) for p in primes], dtype=object)
    coeffs = residues.reshape(count, len(primes), n + 1).transpose(0, 2, 1).astype(object)
    coeffs = coeffs.dot(weights) % modulus
    return [tuple(c - modulus if 2 * c > modulus else c for c in row) for row in coeffs.tolist()]


@per_graph
def char_poly(g: Graph) -> tuple[int, ...]:
    """The coefficients (1, c_1, ..., c_n) of det(xI - A), highest degree
    first (:func:`char_polys` on a stack of one)."""
    return char_polys(adjacency_stack([g]))[0]


def roots_above(chi: tuple[int, ...], p: int, q: int) -> int:
    """Number of roots above p/q, a non-integer rational with q > 0, of a
    monic integer polynomial with only real roots, given as its
    coefficients highest degree first, counted with multiplicity; the
    adjacency eigenvalues above p/q when chi is :func:`char_poly`.

    They are as many as the positive roots t of q^n chi((p + t)/q).  That
    polynomial in t has integer coefficients and only real roots, and 0 is
    none of them: a rational root of the monic integer chi is an integer.
    So by Descartes' rule of signs, exact on a real-rooted polynomial, its
    positive roots are as many as the sign changes in its coefficients.
    """
    if p % q == 0:
        raise ValueError(f"shift {p}/{q} is an integer")
    # q^n chi(y/q) = sum_k c_k q^k y^(n-k), highest degree first; then
    # y = p + t by n rounds of synthetic division by y - p
    coeffs = list(chi)
    power = 1
    for k in range(1, len(coeffs)):
        power *= q
        coeffs[k] *= power
    n = len(coeffs) - 1
    for i in range(n, 0, -1):
        for j in range(1, i + 1):
            coeffs[j] += p * coeffs[j - 1]
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def eigenvalue_bracket(g: Graph, rank: int, halvings: int) -> tuple[int, int, int] | None:
    """(lo, hi, q): non-integer dyadic rationals lo/q < hi/q with
    lo/q < mu_rank < hi/q, where mu_rank is the rank-th largest adjacency
    eigenvalue, proven by exact counts (:func:`roots_above`).  The
    denominator q is 2^(BRACKET_BITS + 1 + 2 * halvings), one power of two
    for every rank, so brackets read together share it.

    With no halvings the bracket is about 2^-29 wide around the LAPACK
    value; it is None if the counts refute that value.  Each halving splits
    the previous bracket at a non-integer dyadic point near its middle and
    keeps the half that holds the eigenvalue, at the cost of one count.

    The graph is read through its characteristic polynomial and
    j = floor(mu_rank * 2^BRACKET_BITS) of its LAPACK value alone, so a
    bracket is a pure function of ints, cached on them for every graph of
    this process: graphs of one polynomial (cospectral ones, copies of one
    graph) share the brackets of equal j.
    """
    j = math.floor(spectrum(g).eigenvalues[rank - 1] * (1 << BRACKET_BITS))
    return _bracket(char_poly(g), rank, j, halvings)


@functools.lru_cache(maxsize=SHARED_BRACKETS)
def _bracket(chi: tuple[int, ...], rank: int, j: int,
             halvings: int) -> tuple[int, int, int] | None:
    if halvings == 0:
        lo, hi, q = 2 * j - 1, 2 * j + 3, 1 << (BRACKET_BITS + 1)
        if roots_above(chi, lo, q) >= rank > roots_above(chi, hi, q):
            return lo, hi, q
        return None
    prev = _bracket(chi, rank, j, halvings - 1)
    if prev is None:
        return None
    # two more bits: the midpoint, and a quarter step off it if it is an integer
    lo, hi, q = (4 * end for end in prev)
    mid = (lo + hi) // 2
    if mid % q == 0:
        mid += (hi - lo) // 4
    d = math.gcd(mid, q)
    return (mid, hi, q) if roots_above(chi, mid // d, q // d) >= rank else (lo, mid, q)


def spectral_radius(g: Graph) -> float:
    """Largest adjacency eigenvalue (the Perron root when connected)."""
    return spectrum(g).mu


# ---------------------------------------------------------------------------
# walks


@dataclass(frozen=True)
class WalkProfile:
    """Exact walk counts of lengths 1..``length``: totals w_l and
    per-start-vertex counts.

    An l-walk is a sequence of l vertices with consecutive pairs adjacent,
    so w_1 = n and w_2 = 2m.  ``per_vertex[l-1][u]`` counts l-walks starting
    at u.  The rows stop at the first length whose counts the next length
    repeats, as on every graph of maximum degree at most 1; every longer
    length has that row's counts, and ``total`` and ``at`` serve them.
    """

    totals: tuple[int, ...]
    per_vertex: tuple[tuple[int, ...], ...]
    length: int

    def total(self, l: int) -> int:
        return self.totals[min(l, len(self.totals)) - 1]

    def at(self, l: int, u: int) -> int:
        return self.per_vertex[min(l, len(self.per_vertex)) - 1][u]


def _neighbor_lists(g: Graph) -> list[tuple[int, ...]]:
    return [mask_members(g.adj[u]) for u in range(g.n)]


@per_graph
def walk_counts(g: Graph, L: int) -> WalkProfile:
    """Exact integer walk counts up to length L via neighbor-sum updates,
    stopping at the first step that changes no count.

    The longest profile already in the graph's memo is reused: a shorter L,
    or any L once the counts have stopped changing, is served from its
    rows; a longer L extends it.  Each L overflows on its own: a longer
    request that raised stored nothing, so it cannot make a shorter one
    fail.
    """
    if L < 1:
        raise ValueError("walk length must be >= 1")
    base = max((prof for key, prof in g.memo.items() if key[0] == "walk_counts"),
               key=lambda prof: prof.length, default=None)
    if base is None:
        per = [(1,) * g.n]
        totals = [g.n]
    elif base.length >= L or len(base.totals) < base.length:
        return WalkProfile(base.totals[:L], base.per_vertex[:L], L)
    else:
        per = list(base.per_vertex)
        totals = list(base.totals)
    nbrs = _neighbor_lists(g)
    vec = per[-1]
    while len(totals) < L:
        vec = tuple(sum(vec[v] for v in nbrs[u]) for u in range(g.n))
        if vec == per[-1]:
            break
        total = sum(vec)
        if total > INT128_MAX:
            raise WalkOverflowError(
                f"walk total beyond 128-bit range at length {len(totals) + 1}")
        per.append(vec)
        totals.append(total)
    return WalkProfile(tuple(totals), tuple(per), L)


@dataclass(frozen=True)
class WalkRatioReport:
    """Outcome of the walk-ratio convergence check.

    ``l`` is the least length where the ratio w_{l+q}/w_{l-1} lands within
    tolerance of mu^(q+1) (or, when not converged, the length of the best
    attempt).
    """

    converged: bool
    l: int
    error: float
    target: float
    q: int
    tol: float
    l_max: int


def walk_ratio_limit_check(g: Graph, q: int, tol: float = 1e-6,
                           l_max: int = 5000) -> WalkRatioReport:
    """Find the least l <= l_max with |w_{l+q}/w_{l-1} - mu^(q+1)| within
    tol * max(1, mu^(q+1)).

    Requires a connected non-bipartite graph: only then is the limit the
    (q+1)-th power of the spectral radius.  Walk counts stay exact; the
    division is the single floating-point step.
    """
    if q < 0:
        raise ValueError("ratio offset q must be >= 0")
    if l_max < 2:
        raise ValueError("l_max must be >= 2")
    if not is_connected(g):
        raise ValueError("ratio limit requires a connected graph")
    if is_bipartite(g):
        raise ValueError("ratio limit requires a non-bipartite graph")
    mu = spectral_radius(g)
    target = mu ** (q + 1)
    bar = tol * max(1.0, target)
    nbrs = _neighbor_lists(g)
    vec = [1] * g.n
    totals = [0, g.n]  # totals[l] = w_l, 1-indexed
    best_err = math.inf
    best_l = 2
    for l in range(2, l_max + 1):
        while len(totals) <= l + q:
            vec = [sum(vec[v] for v in nbrs[u]) for u in range(g.n)]
            totals.append(sum(vec))
        err = abs(totals[l + q] / totals[l - 1] - target)
        if err <= bar:
            return WalkRatioReport(True, l, err, target, q, tol, l_max)
        if err < best_err:
            best_err = err
            best_l = l
    return WalkRatioReport(False, best_l, best_err, target, q, tol, l_max)
