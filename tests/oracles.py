"""Brute-force oracles, independent of the production counting paths."""

import itertools
import math
from fractions import Fraction

import numpy as np

from spectral_cliques.bounds import DEFAULT_TOLS
from spectral_cliques.cliques import MASK_MAX_N, CliqueProfile, proper_coloring
from spectral_cliques.graphs import (HARD_CAP, Graph, Graph6Error, emit_graph6, graph6_width,
                                     graph_from_edge_mask, mask_members, parse_graph6)
from spectral_cliques.scan import (EXHAUSTIVE_LIMIT, EXHAUSTIVE_OVERRIDE_LIMIT,
                                   expand_param_grid, run_check)
from spectral_cliques.spectral import WalkProfile
from spectral_cliques.stability import StabilityWitness, _degree_ok, witness_thresholds


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


def exhaustive_witness(g: Graph, r: int, alpha) -> StabilityWitness | None:
    """The stability witness search over vertex subsets: by decreasing
    size down to the order threshold, lexicographic within a size, the
    first subset whose induced subgraph meets the degree threshold and has
    a proper r-coloring."""
    if g.n > 16:
        raise ValueError("subset witness search limited to n <= 16")
    n = g.n
    a = float(alpha)
    boundary = a == 0.0
    thr_o, thr_d = witness_thresholds(n, r, a)
    min_size = n if boundary else max(1, min(n, math.floor(thr_o) + 1))
    for size in range(n, min_size - 1, -1):
        for combo in itertools.combinations(range(n), size):
            mask = sum(1 << v for v in combo)
            dmin = min((g.adj[v] & mask).bit_count() for v in combo)
            if not _degree_ok(dmin, thr_d, boundary, n, r):
                continue
            classes = proper_coloring(g, r, mask)
            if classes is not None:
                return StabilityWitness(mask, classes, size, dmin)
    return None


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
    # rows past the first one the next length repeats are left out, as
    # walk_counts leaves them
    rows = next((l for l in range(1, L) if per[l] == per[l - 1]), L)
    return WalkProfile(tuple(totals[:rows]), tuple(tuple(row) for row in per[:rows]), L)


def read_graph6_lines(path: str) -> list[tuple[int, str]]:
    """(line number, graph6 text) for each graph in a file, numbered from 1,
    read line by line in text mode: blanks and '#' comments are skipped but
    counted, and a leading '>>graph6<<' marker is tolerated."""
    lines = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line.startswith(">>graph6<<"):
                line = line[len(">>graph6<<"):].strip()
            if not line or line.startswith("#"):
                continue
            lines.append((lineno, line))
    return lines


def short_graph6_order(s: str, top: int) -> int:
    """n if ``s`` is a stripped graph6 line of order n <= ``top`` that
    writes its order in one character and is well formed, else 0."""
    n = ord(s[0]) - 63 if s else 0
    if 0 < n <= top and len(s) == 1 + graph6_width(n) and "?" <= min(s) and max(s) <= "~":
        return n
    return 0


def graph6_header_order(s: str) -> int:
    """The order a stripped graph6 line's header states, in its
    one-character form or as '~' and three characters, clipped to
    0..HARD_CAP; 0 for a line too short for its '~' form."""
    n = ord(s[0]) - 63
    if n == 63:
        n = sum((ord(ch) - 63) << shift for ch, shift in zip(s[1:4], (12, 6, 0))) \
            if len(s) >= 4 else 0
    return min(max(n, 0), HARD_CAP)


def graph6_chunks(path: str, top: int, entries: int,
                  subsets: int) -> list[list[tuple[int, int, bool, Graph]]]:
    """A graph6 file's graphs, in chunks, as (position in the chunk, line
    number, whether :func:`short_graph6_order` admits the line at ``top``,
    Graph), decoded line by line; the first malformed line raises its
    Graph6Error, naming the file and line.  A chunk takes lines while the
    sum of n^2 over their header orders n stays within ``entries`` and the
    sum of 2^n over those up to MASK_MAX_N within ``subsets``, and at least
    one.  A file with no graph is one empty chunk."""
    chunks: list[list] = []
    used = (0, 0)
    for lineno, line in read_graph6_lines(path):
        n = graph6_header_order(line)
        cost = (n * n, 2 ** n if n <= MASK_MAX_N else 0)
        used = (used[0] + cost[0], used[1] + cost[1])
        if not chunks or used[0] > entries or used[1] > subsets:
            chunks.append([])
            used = cost
        try:
            g = parse_graph6(line)
        except Graph6Error as exc:
            raise Graph6Error(f"{path}, line {lineno}: {exc}") from None
        chunks[-1].append((len(chunks[-1]), lineno, bool(short_graph6_order(line, top)), g))
    return chunks or [[]]


def bareiss_count_above(g: Graph, p: int, q: int) -> int:
    """Adjacency eigenvalues above the non-integer rational p/q (q > 0),
    by Sylvester's law of inertia: the eigenvalues of A below p/q are as
    many as the negative eigenvalues of qA - pI (p/q in lowest terms),
    which are as many as the sign changes in its leading principal minors
    1, D_1, ..., D_n.  Fraction-free (Bareiss) elimination yields D_k as
    its k-th pivot, in exact integers; no pivot is zero, since D_k is, up
    to sign, q^k times a monic integer polynomial at p/q."""
    d = math.gcd(p, q)
    p, q = p // d, q // d
    n = g.n
    rows = [[q if g.adj[i] >> j & 1 else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] = -p
    below = 0
    prev = 1
    for k in range(n):
        pivot_row = rows[k]
        pivot = pivot_row[k]
        if (pivot < 0) != (prev < 0):
            below += 1
        for i in range(k + 1, n):
            row = rows[i]
            a = pivot_row[i]
            for j in range(i, n):
                row[j] = (row[j] * pivot - a * pivot_row[j]) // prev
        prev = pivot
    return n - below


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


def brute_force_vertex_cliques(g: Graph) -> list[list[int]]:
    """k_s(u) at [u][s] for 0 <= s <= n + 1, by enumerating vertex subsets."""
    per = [[0] * (g.n + 2) for _ in range(g.n)]
    for mask in range(1, 1 << g.n):
        members = mask_members(mask)
        if all(g.adj[v] & mask == mask & ~(1 << v) for v in members):
            for v in members:
                per[v][len(members)] += 1
    return per


#: a premise whose float spectral radius lies within this relative distance
#: of its cut is not decided by :func:`reference_statuses`
PREMISE_CLEARANCE = 1e-6


def reference_outcomes(check: str, g: Graph, params: dict) -> list[tuple] | None:
    """(params, status, lhs, rhs, slack) of each outcome of theorem3, oldin
    or edge_corollary on ``g``, as the paper states the check, in Fractions
    on brute-force clique and walk counts; None for an edge_corollary
    evaluation whose numpy spectral radius lies within PREMISE_CLEARANCE of
    its premise's cut.  ``params`` are a scan's, with s None for the
    default s range.  An outcome out of domain has no sides, and one whose
    premise fails (theorem3) is a vacuous holds with no slack."""
    prof = brute_force_cliques(g)
    k = list(prof.counts) + [0, 0]
    omega, n = prof.omega, g.n

    def outcome(shown, lhs, rhs, premise=True) -> tuple:
        status = "holds" if lhs < rhs or not premise else "equality" if lhs == rhs else "violation"
        slack = float(rhs) - float(lhs) if premise else None
        return shown, status, float(lhs), float(rhs), slack

    def ood(shown) -> tuple:
        return shown, "ood", None, None, None

    if check == "theorem3":
        r, s, alpha = params["r"], params["s"], Fraction(params["alpha"])
        sizes = range(1, r + 1) if s is None else [s] if s <= r else []
        out = []
        for t in sizes:
            shown = {"r": r, "s": t, "alpha": float(alpha)}
            threshold = Fraction(n) ** (t + 1)
            for u in range(1, t + 1):
                threshold *= Fraction(r - u, r * u) + alpha
            if omega <= r:
                out.append(ood(shown))
            else:
                out.append(outcome(shown, alpha * Fraction(r * r, r + 1) * Fraction(n, r) ** (r + 1),
                                   k[r], (t + 1) * k[t] >= threshold))
        return out
    if check == "oldin":
        s, l = params["s"], params["l"]
        per = brute_force_vertex_cliques(g)
        walks = brute_force_walks(g, l + 1)
        out = []
        for t in range(2, omega + 1) if s is None else [s]:
            if not 2 <= t <= omega:
                out.append(ood({"s": t, "l": l}))
                continue
            lhs = sum(per[u][t] * walks.at(l + 1, u) - per[u][t + 1] * walks.at(l, u)
                      for u in range(n))
            out.append(outcome({"s": t, "l": l}, lhs, (t - 1) * k[t - 1] * walks.total(l)))
        return out
    if check == "edge_corollary":
        r, alpha = params["r"], Fraction(params["alpha"])
        shown = {"r": r, "alpha": float(alpha)}
        if omega > r:
            return [ood(shown)]
        mu = float(np.linalg.eigvalsh(dense_adjacency(g))[-1]) if n else 0.0
        cut = (1 - Fraction(1, r) - alpha) * n
        if abs(mu - cut) <= PREMISE_CLEARANCE * max(1, abs(cut)):
            return None
        if mu < cut:
            return [ood(shown)]
        return [outcome(shown, (Fraction(r - 1, 2 * r) - 2 * alpha) * n * n, g.m)]
    raise ValueError(f"no reference for {check!r}")
