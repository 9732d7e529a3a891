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

import numpy as np

from .graphs import Graph, is_bipartite, is_connected, mask_members, per_graph

INT128_MAX = (1 << 127) - 1

#: Jacobi sweeps stop once the off-diagonal Frobenius norm is at most this
#: factor times n (or the round-off floor, if that is larger)
JACOBI_SWEEP_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60


class WalkOverflowError(OverflowError):
    """A walk total left the 128-bit range; the requested length is too large."""


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


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u in range(g.n):
        row = g.adj[u]
        while row:
            low = row & -row
            a[u, low.bit_length() - 1] = 1.0
            row ^= low
    return a


def _descending(vals: np.ndarray) -> Spectrum:
    return Spectrum(tuple(float(x) for x in vals[np.argsort(vals)[::-1]]))


@per_graph
def _spectrum_lapack(g: Graph) -> Spectrum:
    # eigh, not eigvalsh: the two differ in the last bits, and every
    # reported figure is pinned to eigh's
    try:
        vals, _ = np.linalg.eigh(adjacency_matrix(g))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - not seen at n <= 64
        raise ArithmeticError(f"eigensolver failed to converge: {exc}") from exc
    return _descending(vals)


def spectrum(g: Graph, solver: str = "lapack") -> Spectrum:
    """All n eigenvalues of the 0/1 adjacency matrix, sorted descending.

    ``solver`` is "lapack" (default) or "jacobi", the independent second
    route, whose sweeps stop at JACOBI_SWEEP_TOL * n.
    """
    if solver == "lapack":
        return _spectrum_lapack(g)
    if solver == "jacobi":
        return _descending(jacobi_eigenvalues(adjacency_matrix(g), JACOBI_SWEEP_TOL * g.n))
    raise ValueError(f"unknown solver {solver!r}")


def jacobi_eigenvalues(a: np.ndarray, sweep_tol: float) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic two-sided Jacobi rotations.

    Terminates when the off-diagonal Frobenius norm is at most
    max(sweep_tol, round-off floor); raises ArithmeticError if
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
            raise ArithmeticError("jacobi sweeps exhausted without convergence")
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
