"""Brute-force oracles, independent of the production counting paths."""

import numpy as np

from spectral_cliques.bounds import DEFAULT_TOLS
from spectral_cliques.cliques import CliqueProfile
from spectral_cliques.graphs import (Graph, emit_graph6, graph_from_edge_mask,
                                     mask_members, parse_graph6)
from spectral_cliques.scan import (EXHAUSTIVE_LIMIT, EXHAUSTIVE_OVERRIDE_LIMIT,
                                   expand_param_grid, run_check)
from spectral_cliques.spectral import WalkProfile


def enumerate_labeled(n: int, allow_n8: bool = False):
    """Yield all 2^(n(n-1)/2) labeled graphs of order n in edge-mask order."""
    limit = EXHAUSTIVE_OVERRIDE_LIMIT if allow_n8 else EXHAUSTIVE_LIMIT
    if not 1 <= n <= limit:
        raise ValueError(f"exhaustive enumeration limited to 1..{limit} vertices")
    for mask in range(1 << (n * (n - 1) // 2)):
        yield graph_from_edge_mask(n, mask)


def brute_force_cliques(g: Graph) -> CliqueProfile:
    """Clique counts by enumerating all vertex subsets and testing
    pairwise adjacency."""
    if g.n > 20:
        raise ValueError("subset enumeration limited to n <= 20")
    counts = [0] * g.n
    for mask in range(1, 1 << g.n):
        bits = mask
        complete = True
        while bits:
            low = bits & -bits
            v = low.bit_length() - 1
            bits ^= low
            if g.adj[v] & mask != mask ^ low:
                complete = False
                break
        if complete:
            counts[mask.bit_count() - 1] += 1
    omega = max(s + 1 for s, c in enumerate(counts) if c > 0)
    return CliqueProfile(tuple(counts), omega)


def brute_force_walks(g: Graph, L: int) -> WalkProfile:
    """Walk counts by explicit enumeration of vertex sequences."""
    if L > 8 or g.n > 10:
        raise ValueError("walk enumeration limited to L <= 8 and n <= 10")
    if L < 1:
        raise ValueError("walk length must be >= 1")
    totals = [0] * L
    per = [[0] * g.n for _ in range(L)]
    nbrs = [mask_members(g.adj[u]) for u in range(g.n)]

    def extend(start: int, last: int, length: int) -> None:
        totals[length - 1] += 1
        per[length - 1][start] += 1
        if length == L:
            return
        for v in nbrs[last]:
            extend(start, v, length + 1)

    for u in range(g.n):
        extend(u, u, 1)
    return WalkProfile(tuple(totals), tuple(tuple(row) for row in per))


def dense_adjacency(g: Graph) -> np.ndarray:
    """The 0/1 adjacency matrix in floats, built entry by entry."""
    return np.array([[float(g.has_edge(u, v)) for v in range(g.n)] for u in range(g.n)])


def reference_scan(graph6_lines, checks: dict, top_k: int, tol_scale: float) -> dict:
    """What a scan of these graph6 lines reports, computed graph by graph:
    every evaluation goes through ``run_check``, with no chunking and no
    screen.  Violations and equalities are listed in graph order, then check
    and parameter order; the tightest instances are the top_k holding
    evaluations by slack clamped at zero, then graph6 string, check name and
    parameters."""
    tols = DEFAULT_TOLS.scaled(tol_scale)
    out = {"graphs_checked": 0, "violations": [], "equalities": [],
           "tightest": [], "out_of_domain": 0}
    candidates = []
    for line in graph6_lines:
        g = parse_graph6(line)
        out["graphs_checked"] += 1
        for name, grid in checks.items():
            for params in expand_param_grid(name, grid):
                for oc in run_check(name, g, params, tols):
                    if oc.status == "ood":
                        out["out_of_domain"] += 1
                    elif oc.status == "violation":
                        out["violations"].append(oc.record(emit_graph6(g)))
                    elif oc.status != "inconclusive" and oc.slack is not None:
                        rec = oc.record(emit_graph6(g))
                        if oc.status == "equality":
                            out["equalities"].append(rec)
                        candidates.append(rec)
    candidates.sort(key=lambda rec: (max(rec["slack"], 0.0), rec["graph6"], rec["check"],
                                     tuple(sorted(rec["params"].items()))))
    out["tightest"] = candidates[:top_k]
    return out
