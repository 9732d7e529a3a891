"""Adjacency eigenvalues and exact walk counting.

Only eigenvalues are kept: every inequality of the paper reads the spectral
radius or the second eigenvalue alone.  They come from dense symmetric
diagonalization (LAPACK ``eigh`` through numpy, its eigenvectors dropped); a
cyclic-Jacobi solver is kept alongside as an independent second route,
used when an inequality verdict sits close to the tolerance band.
Walk counts are exact integers throughout; floating point enters only at
the final division of the ratio-limit check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, is_bipartite, is_connected, mask_members, per_graph

INT128_MAX = (1 << 127) - 1

#: Jacobi sweeps stop once the off-diagonal Frobenius norm is at most this
#: factor times n (or the round-off floor, if that is larger)
JACOBI_SWEEP_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60

#: a stacked LAPACK solve holds at most this many matrix entries (2 MiB of
#: float64): 5,349 graphs of order 7, 40 of order 80, one of order 512
STACK_ENTRIES = 1 << 18


class WalkOverflowError(OverflowError):
    """A walk total left the 128-bit range; the requested length is too large."""


class EigensolverError(ArithmeticError):
    """An eigensolver did not converge on a graph."""


@dataclass(frozen=True)
class Spectrum:
    """All adjacency eigenvalues, sorted descending."""

    eigenvalues: tuple[float, ...]

    @property
    def mu(self) -> float:
        return self.eigenvalues[0]

    @property
    def mu2(self) -> float:
        """Second largest eigenvalue; 0 for a one-vertex graph."""
        return self.eigenvalues[1] if len(self.eigenvalues) > 1 else 0.0


def _adjacency_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """0/1 adjacency matrices of graphs of one order, shape (k, n, n).

    Each bit row becomes ceil(n/8) little-endian bytes, which numpy unpacks,
    so every order up to the hard cap takes the same route.
    """
    n = graphs[0].n
    width = (n + 7) // 8
    raw = b"".join(row.to_bytes(width, "little") for g in graphs for row in g.adj)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(graphs), n, width)
    return np.unpackbits(packed, axis=-1, count=n, bitorder="little").astype(float)


def adjacency_matrix(g: Graph) -> np.ndarray:
    return _adjacency_stack([g])[0]


def _descending(vals: np.ndarray) -> np.ndarray:
    """Each row of a (k, n) eigenvalue array, sorted descending."""
    order = np.argsort(vals, axis=-1)[:, ::-1]
    return vals[np.arange(len(vals))[:, None], order]


def _eigh_spectra(graphs: Sequence[Graph]) -> list[Spectrum | None]:
    # eigh, not eigvalsh: the two differ in the last bits, and every
    # reported figure is pinned to eigh's.  A stacked eigh equals one call
    # per matrix bit for bit.
    try:
        vals, _ = np.linalg.eigh(_adjacency_stack(graphs))
    except np.linalg.LinAlgError:
        if len(graphs) == 1:
            return [None]
        return [_eigh_spectra([g])[0] for g in graphs]
    return [Spectrum(tuple(row)) for row in _descending(vals).tolist()]


def lapack_spectra(graphs: Sequence[Graph]) -> list[Spectrum | None]:
    """LAPACK spectra of many graphs, one stacked ``eigh`` per order.

    An order's graphs are solved in stacks of at most STACK_ENTRIES matrix
    entries.  If a stack fails to converge, its graphs are solved one at a
    time, and a graph that fails alone maps to None.
    """
    out: list[Spectrum | None] = [None] * len(graphs)
    by_order: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        by_order.setdefault(g.n, []).append(i)
    for n, members in by_order.items():
        step = max(1, STACK_ENTRIES // (n * n))
        for lo in range(0, len(members), step):
            part = members[lo:lo + step]
            for i, sp in zip(part, _eigh_spectra([graphs[i] for i in part])):
                out[i] = sp
    return out


@per_graph
def _spectrum_lapack(g: Graph) -> Spectrum:
    (sp,) = lapack_spectra([g])
    if sp is None:
        raise EigensolverError("LAPACK eigh failed to converge")
    return sp


def prime_spectra(graphs: Sequence[Graph]) -> None:
    """Solve the graphs' LAPACK spectra in stacks and store each in its
    graph's memo, where ``spectrum(g)`` finds it.  A graph the solver fails
    on is left out, so its own ``spectrum`` call raises."""
    for g, sp in zip(graphs, lapack_spectra(graphs)):
        if sp is not None:
            _spectrum_lapack.prime(g, sp)


def spectrum(g: Graph, solver: str = "lapack") -> Spectrum:
    """All n eigenvalues of the 0/1 adjacency matrix, sorted descending.

    ``solver`` is "lapack" (default) or "jacobi", the independent second
    route, whose sweeps stop at JACOBI_SWEEP_TOL * n.  Raises
    EigensolverError if the solver does not converge.
    """
    if solver == "lapack":
        return _spectrum_lapack(g)
    if solver == "jacobi":
        vals = jacobi_eigenvalues(adjacency_matrix(g), JACOBI_SWEEP_TOL * g.n)
        return Spectrum(tuple(_descending(vals[np.newaxis])[0].tolist()))
    raise ValueError(f"unknown solver {solver!r}")


def jacobi_eigenvalues(a: np.ndarray, sweep_tol: float) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic two-sided Jacobi rotations.

    Terminates when the off-diagonal Frobenius norm is at most
    max(sweep_tol, round-off floor); raises EigensolverError if
    JACOBI_MAX_SWEEPS sweeps run out first.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy()
    # quadratic convergence stalls at round-off; don't demand more than that
    floor = 8.0 * np.finfo(float).eps * n * max(1.0, float(np.linalg.norm(a)))
    tol = max(sweep_tol, floor)
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        off = math.sqrt(2.0 * float(np.sum(np.triu(a, 1) ** 2)))
        if off <= tol:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise EigensolverError("jacobi sweeps exhausted without convergence")
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = a[q, p] = 0.0
    return a.diagonal().copy()


def spectral_radius(g: Graph) -> float:
    """Largest adjacency eigenvalue (the Perron root when connected)."""
    return spectrum(g).mu


# ---------------------------------------------------------------------------
# walks


@dataclass(frozen=True)
class WalkProfile:
    """Exact walk counts: totals w_1..w_L and per-start-vertex counts.

    An l-walk is a sequence of l vertices with consecutive pairs adjacent,
    so w_1 = n and w_2 = 2m.  ``per_vertex[l-1][u]`` counts l-walks starting
    at u.
    """

    totals: tuple[int, ...]
    per_vertex: tuple[tuple[int, ...], ...]

    def total(self, l: int) -> int:
        return self.totals[l - 1]

    def at(self, l: int, u: int) -> int:
        return self.per_vertex[l - 1][u]


def _neighbor_lists(g: Graph) -> list[tuple[int, ...]]:
    return [mask_members(g.adj[u]) for u in range(g.n)]


@per_graph
def walk_counts(g: Graph, L: int) -> WalkProfile:
    """Exact integer walk counts up to length L via neighbor-sum updates."""
    if L < 1:
        raise ValueError("walk length must be >= 1")
    nbrs = _neighbor_lists(g)
    vec = [1] * g.n
    per = [tuple(vec)]
    totals = [g.n]
    for _ in range(L - 1):
        vec = [sum(vec[v] for v in nbrs[u]) for u in range(g.n)]
        total = sum(vec)
        if total > INT128_MAX:
            raise WalkOverflowError(
                f"walk total beyond 128-bit range at length {len(totals) + 1}")
        per.append(tuple(vec))
        totals.append(total)
    return WalkProfile(tuple(totals), tuple(per))


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
