"""Graph substrate: bit-row adjacency, generators, and the graph6 codec.

Vertices are 0..n-1.  Row ``adj[u]`` is an int whose bit ``v`` is set iff
``uv`` is an edge; vertex sets are plain int bit-masks throughout.  Graphs
are immutable once built, so they can be shared freely across workers.
Invariants computed from a graph (spectrum, clique and walk counts) are
memoized on the graph object itself by :func:`per_graph`.  The one thing
shared between graphs is an eigenvalue bracket
(``spectral.eigenvalue_bracket``), cached per process on the
characteristic polynomial and dyadic ints only.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator

DEFAULT_CAP = 64
HARD_CAP = 512

_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class Graph6Error(ValueError):
    """Malformed or unsupported graph6 text."""


def vertex_cap() -> int:
    """Vertex cap in force: 64 unless the SCL_MAX_N env var raises it (max 512)."""
    raw = os.environ.get("SCL_MAX_N")
    if raw is None:
        return DEFAULT_CAP
    cap = int(raw)
    if not 1 <= cap <= HARD_CAP:
        raise ValueError(f"SCL_MAX_N must be in 1..{HARD_CAP}, got {cap}")
    return cap


def mask_from(vertices: Iterable[int]) -> int:
    """Bit-mask of a vertex collection."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def mask_members(mask: int) -> tuple[int, ...]:
    """Vertices of a bit-mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph with cached edge and degree counts.

    ``memo`` holds the invariants of :func:`per_graph` functions; it takes no
    part in equality, hashing or repr.
    """

    n: int
    adj: tuple[int, ...]
    m: int
    degrees: tuple[int, ...]
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, lexicographic."""
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            while row:
                low = row & -row
                yield u, u + low.bit_length()
                row ^= low


def per_graph(fn):
    """Memoize ``fn(g, *args)`` in ``g.memo`` under ``(fn.__name__, *args)``.

    Each invariant is computed at most once per graph object and freed with
    it; nothing is shared between graphs or kept after them, but for
    eigenvalue brackets, which ``spectral`` caches on the characteristic
    polynomial and dyadic ints alone.  A call that
    raises stores nothing.  ``memoized.prime(g, value, *args)`` stores a
    value computed elsewhere (say, in a batch) under the same key.
    """

    @functools.wraps(fn)
    def memoized(g: Graph, *args):
        key = (fn.__name__, *args)
        if key not in g.memo:
            g.memo[key] = fn(g, *args)
        return g.memo[key]

    def prime(g: Graph, value, *args) -> None:
        g.memo[(fn.__name__, *args)] = value

    memoized.prime = prime
    return memoized


def _from_rows(n: int, rows: list[int]) -> Graph:
    degrees = tuple(map(int.bit_count, rows))
    return Graph(n, tuple(rows), sum(degrees) // 2, degrees)


def check_order(n: int, cap: int | None = None) -> int:
    """``n``, refused (ValueError) outside 1..``cap``, the vertex cap in
    force when None."""
    cap = vertex_cap() if cap is None else cap
    if not 1 <= n <= cap:
        raise ValueError(f"vertex count {n} outside 1..{cap}")
    return n


def build_graph(n: int, edges: Iterable[tuple[int, int]], cap: int | None = None) -> Graph:
    """Graph on ``n`` vertices with the given edges.

    Duplicate edges are ignored; loops and endpoints outside 0..n-1 are
    rejected.
    """
    check_order(n, cap)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return _from_rows(n, rows)


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    """Graph from a packed edge indicator.

    Bit b of ``mask`` is the pair (i, j), i < j, in lexicographic order:
    (0,1), (0,2), ..., (0,n-1), (1,2), ...  Used for exhaustive labeled
    enumeration.
    """
    rows = [0] * n
    b = 0
    for i in range(n):
        for j in range(i + 1, n):
            if mask >> b & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            b += 1
    return _from_rows(n, rows)


def complement(g: Graph) -> Graph:
    """Edge present iff absent in ``g``; an involution."""
    full = g.vertex_mask()
    rows = [full & ~g.adj[u] & ~(1 << u) for u in range(g.n)]
    return _from_rows(g.n, rows)


# ---------------------------------------------------------------------------
# generators


def turan_graph(r: int, n: int, cap: int | None = None) -> Graph:
    """Balanced complete r-partite graph on n vertices.

    The first n mod r classes get the larger size; vertices are assigned to
    classes consecutively, so the layout is deterministic.
    """
    check_order(n, cap)
    if not 1 <= r <= n:
        raise ValueError(f"part count {r} outside 1..{n}")
    q, rem = divmod(n, r)
    sizes = [q + 1] * rem + [q] * (r - rem)
    return complete_multipartite(sizes, 0, cap=cap)


def complete_multipartite(parts: Iterable[int], isolated: int = 0,
                          cap: int | None = None) -> Graph:
    """Complete multipartite graph with the given class sizes, plus
    ``isolated`` extra degree-0 vertices appended after the classes."""
    sizes = list(parts)
    if any(s < 1 for s in sizes):
        raise ValueError("every class size must be >= 1")
    if isolated < 0:
        raise ValueError("isolated count must be >= 0")
    if not sizes and isolated == 0:
        raise ValueError("need at least one class or one isolated vertex")
    n = sum(sizes) + isolated
    check_order(n, cap)
    class_masks = []
    start = 0
    for s in sizes:
        class_masks.append(((1 << s) - 1) << start)
        start += s
    covered = sum(class_masks)
    rows = [0] * n
    for cm in class_masks:
        others = covered & ~cm
        bits = cm
        while bits:
            low = bits & -bits
            rows[low.bit_length() - 1] = others
            bits ^= low
    return _from_rows(n, rows)


def complete_graph(n: int) -> Graph:
    return complete_multipartite([1] * n)


def empty_graph(n: int) -> Graph:
    return build_graph(n, [])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    """Star with one center (vertex 0) and ``leaves`` leaves."""
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


# ---------------------------------------------------------------------------
# traversal predicates


def is_connected(g: Graph) -> bool:
    seen = 1
    frontier = 1
    full = g.vertex_mask()
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= g.adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen == full


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            row = g.adj[u]
            while row:
                low = row & -row
                v = low.bit_length() - 1
                row ^= low
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


# ---------------------------------------------------------------------------
# graph6 codec (63-offset printable encoding, upper-triangle column-major)


#: each graph6 payload character as its six bits, most significant first
_G6_BITS = {63 + v: format(v, "06b") for v in range(64)}


def parse_graph6(text: str, cap: int | None = None) -> Graph:
    """Decode one graph6 line."""
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 line")
    if min(s) < "?" or max(s) > "~":
        for ch in s:
            if not 63 <= ord(ch) <= 126:
                raise Graph6Error(f"invalid graph6 character {ch!r}")
    n, rest = _g6_order(s)
    cap = vertex_cap() if cap is None else cap
    if not 1 <= n <= cap:
        raise Graph6Error(f"graph6 order {n} outside 1..{cap}")
    need = graph6_width(n)
    if len(rest) < need:
        raise Graph6Error("truncated graph6 bit payload")
    if len(rest) > need:
        raise Graph6Error("trailing characters after graph6 payload")
    # payload bit b (pair (i, j), i < j, column by column) at position b
    bits = int(rest.translate(_G6_BITS)[::-1] or "0", 2)
    rows = [0] * n
    for j in range(1, n):
        col = bits & ((1 << j) - 1)
        bits >>= j
        rows[j] |= col
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= 1 << j
            col ^= low
    return _from_rows(n, rows)


def graph6_width(n: int) -> int:
    """Payload characters of a graph6 line of order n: n(n-1)/2 bits,
    padded to whole 6-bit characters."""
    return (n * (n - 1) // 2 + 5) // 6


def _g6_order(s: str) -> tuple[int, str]:
    c0 = ord(s[0]) - 63
    if c0 != 63:
        return c0, s[1:]
    if len(s) >= 2 and ord(s[1]) - 63 != 63:
        if len(s) < 4:
            raise Graph6Error("truncated graph6 order field")
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        return n, s[4:]
    if len(s) < 8:
        raise Graph6Error("truncated graph6 order field")
    n = 0
    for ch in s[2:8]:
        n = n << 6 | (ord(ch) - 63)
    return n, s[8:]


def emit_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no trailing newline)."""
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    elif n <= 258047:
        head = "~" + "".join(chr(63 + (n >> sh & 63)) for sh in (12, 6, 0))
    else:
        raise Graph6Error(f"order {n} too large for this encoder")
    chunks = []
    acc = 0
    fill = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            acc = acc << 1 | (col >> i & 1)
            fill += 1
            if fill == 6:
                chunks.append(chr(63 + acc))
                acc = 0
                fill = 0
    if fill:
        chunks.append(chr(63 + (acc << (6 - fill))))
    return head + "".join(chunks)


# ---------------------------------------------------------------------------
# seeded RNG (SplitMix64; fixed algorithm so corpora reproduce everywhere)


def _mix(z: int) -> int:
    z = (z + _GOLDEN) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64: 64-bit state, one multiply-xorshift step per output."""

    def __init__(self, seed: int):
        self._state = seed & _U64

    def next_u64(self) -> int:
        z = self._state
        self._state = (z + _GOLDEN) & _U64
        return _mix(z)

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53


def mix64(seed: int, index: int) -> int:
    """Derive an independent per-item seed from (seed, index)."""
    return _mix(_mix(seed & _U64) ^ _mix((index + 0x632BE59BD9B4E019) & _U64))


def check_random(n: int, p: float, cap: int | None = None) -> None:
    """Refuse (ValueError) an order outside 1..``cap`` (as
    :func:`check_order`) or an edge probability outside [0, 1]."""
    check_order(n, cap)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")


def random_edge_mask(n: int, p: float, seed: int, cap: int | None = None) -> int:
    """Edge mask (as :func:`graph_from_edge_mask` reads it) in which each
    pair is an edge independently with probability ``p``.

    One SplitMix64 draw per pair, in the mask's pair order, so identical
    (n, p, seed) give an identical mask on every platform.
    """
    check_random(n, p, cap)
    rng = SplitMix64(seed)
    mask = 0
    for b in range(n * (n - 1) // 2):
        if rng.uniform() < p:
            mask |= 1 << b
    return mask


def random_graph(n: int, p: float, seed: int, cap: int | None = None) -> Graph:
    """Each unordered pair is an edge independently with probability ``p``:
    the graph of :func:`random_edge_mask`."""
    return graph_from_edge_mask(n, random_edge_mask(n, p, seed, cap))
