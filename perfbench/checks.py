"""Checks of a scan's stdout against values computed apart from the program.

Graphs are decoded with networkx, eigenvalues come from
``numpy.linalg.eigvalsh`` and cliques are counted with networkx; the
program is run, never consulted, for an expected value.  No check compares
against a stored copy of earlier output.

A graph fails when the scan did not count it, when it carries a violation
of a hard claim (every check but ``conjecture``, and ``conjecture`` at
r = 2, which Lin, Ning and Wu proved in 2021), or when one of its reported
records disagrees with the recomputation.  Disagreements that belong to no
single graph (an aggregate count) are reported as problems instead.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from functools import cached_property
from itertools import combinations

import networkx as nx
import numpy as np

import workloads

#: tolerances of the inequalities, relative to max(1, |lhs|, |rhs|)
HOLD_TOL = 1e-7
EQUALITY_TOL = 1e-6
#: agreement required between the program's sides and the recomputed ones
RECOMPUTE_TOL = 1e-9


def graph_key(n: int, edges) -> tuple[int, frozenset]:
    return n, frozenset((min(u, v), max(u, v)) for u, v in edges)


class GraphFacts:
    """Independent invariants of one graph, decoded from graph6."""

    def __init__(self, graph6: str) -> None:
        self.g = nx.from_graph6_bytes(graph6.encode("ascii"))
        self.n = self.g.number_of_nodes()
        self.m = self.g.number_of_edges()
        self.key = graph_key(self.n, self.g.edges())
        adj = nx.to_numpy_array(self.g, nodelist=range(self.n))
        self.adj = adj.astype(np.int64)
        self.eig = np.linalg.eigvalsh(adj)[::-1]

    @cached_property
    def omega(self) -> int:
        return max(len(c) for c in nx.find_cliques(self.g))

    @cached_property
    def _cliques(self) -> tuple[Counter, list[Counter]]:
        total: Counter = Counter()
        per_vertex = [Counter() for _ in range(self.n)]
        for clique in nx.enumerate_all_cliques(self.g):
            total[len(clique)] += 1
            for u in clique:
                per_vertex[u][len(clique)] += 1
        return total, per_vertex

    def k(self, s: int) -> int:
        return self._cliques[0][s]

    def k_at(self, u: int, s: int) -> int:
        return self._cliques[1][u][s]

    def walks(self, l: int) -> list[int]:
        """Walks of l vertices starting at each vertex: A^(l-1) 1."""
        vec = np.ones(self.n, dtype=np.int64)
        for _ in range(l - 1):
            vec = self.adj @ vec
        return [int(x) for x in vec]


def expected_sides(check: str, params: dict, f: GraphFacts) -> tuple[float, float] | None:
    """(lhs, rhs) of one check as the README states it, or None when the
    check has no two-sided form here."""
    n, mu = f.n, float(f.eig[0])
    if check == "wilf":
        return mu, (f.omega - 1) / f.omega * n
    if check == "maxmu":
        s = params["s"]
        return mu ** s, (f.omega - 1) / f.omega * sum(f.walks(s))
    if check == "maxmu1":
        return float(f.m), (f.omega - 1) / (2 * f.omega) * n * n
    if check == "polyn":
        w = f.omega
        if params.get("omega") != w:
            return None
        if w == 1:
            return 0.0, 0.0
        return mu ** w, sum((s - 1) * f.k(s) * mu ** (w - s) for s in range(2, w + 1))
    if check == "theorem1":
        r = params["r"]
        return mu ** (r + 1), (r + 1) * f.k(r + 1) + sum(
            (s - 1) * f.k(s) * mu ** (r + 1 - s) for s in range(2, r + 1))
    if check == "theorem2":
        r = params["r"]
        bound = (mu / n - 1.0 + 1.0 / r) * (r * (r - 1) / (r + 1)) * (n / r) ** (r + 1)
        return bound, float(f.k(r + 1))
    if check == "oldin":
        s, l = params["s"], params["l"]
        wl, wl1 = f.walks(l), f.walks(l + 1)
        lhs = sum(f.k_at(u, s) * wl1[u] - f.k_at(u, s + 1) * wl[u] for u in range(n))
        return float(lhs), float((s - 1) * f.k(s) * sum(wl))
    if check == "conjecture":
        r = params["r"]
        mu2 = float(f.eig[1]) if n > 1 else 0.0
        return mu * mu + mu2 * mu2, (r - 1) / r * 2.0 * f.m
    return None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RECOMPUTE_TOL * max(1.0, abs(a), abs(b))


def record_ok(rec: dict, f: GraphFacts, kind: str) -> bool:
    """Recompute one equality/tightest record; ``kind`` says which claim
    (equality within tolerance, or holds) the record makes."""
    sides = expected_sides(rec["check"], rec["params"], f)
    if sides is None or rec["lhs"] is None or rec["rhs"] is None:
        return False
    lhs, rhs = sides
    scale = max(1.0, abs(lhs), abs(rhs))
    if not (_close(rec["lhs"], lhs) and _close(rec["rhs"], rhs)):
        return False
    if abs(rec["slack"] - (rhs - lhs)) > RECOMPUTE_TOL * scale:
        return False
    if kind == "equality":
        return abs(rhs - lhs) <= EQUALITY_TOL * scale
    return rhs - lhs >= -HOLD_TOL * scale


class Checker:
    """Checks every scan of one workload's inputs; expected values that
    depend only on the inputs are computed once."""

    def __init__(self, inputs: workloads.Inputs, workdir) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self._facts: dict[str, GraphFacts] = {}
        self._verdicts: dict[tuple[int, str], tuple[int, list[str]]] = {}
        self._shard_keys: dict[int, set] = {}
        self._expected_ood: dict[int, int] = {}
        self._multipartite: set | None = None
        self._audit: set | None = None

    def facts(self, graph6: str) -> GraphFacts:
        f = self._facts.get(graph6)
        if f is None:
            f = self._facts[graph6] = GraphFacts(graph6)
        return f

    def check(self, code: int, stdout: str, shard: int) -> tuple[int, list[str]]:
        """(failed graphs, problems) for the exit code and stdout of one
        scan of shard ``shard``."""
        memo = self._verdicts.get((shard, stdout))
        if memo is None:
            memo = self._verdicts[shard, stdout] = self._check(code, stdout, shard)
        return memo

    def shard_keys(self, shard: int) -> set:
        keys = self._shard_keys.get(shard)
        if keys is None:
            keys = self._shard_keys[shard] = {
                graph_key(n, edges) for n, edges in self.inputs.shards[shard]}
        return keys

    def _check(self, code: int, stdout: str, shard: int) -> tuple[int, list[str]]:
        size = len(self.inputs.shards[shard])
        try:
            result = json.loads(stdout)
        except ValueError:
            return size, [f"stdout is not one JSON object (exit {code})"]
        if code not in (0, 1, 4):
            return size, [f"scan exited {code}"]
        problems: list[str] = []
        failed: set = set()
        missing = size - result["graphs_checked"]
        if missing < 0:
            problems.append(f"graphs_checked {result['graphs_checked']} exceeds "
                            f"the shard size {size}")
        for rec in result["violations"]:
            if rec["check"] != "conjecture" or rec["params"].get("r") == 2:
                failed.add(self.facts(rec["graph6"]).key)
        for kind, records in (("equality", result["equalities"]),
                              ("tightest", result["tightest"])):
            for rec in records:
                f = self.facts(rec["graph6"])
                if not record_ok(rec, f, kind):
                    failed.add(f.key)
        expected_ood = self.expected_ood(shard)
        if result["out_of_domain"] != expected_ood:
            problems.append(f"out_of_domain {result['out_of_domain']}, "
                            f"expected {expected_ood}")
        if self.inputs.name == "battery-n6":
            flagged = {self.facts(rec["graph6"]).key for rec in result["equalities"]
                       if rec["check"] == "polyn"}
            failed |= flagged ^ (self.multipartite_keys() & self.shard_keys(shard))
        if self.inputs.name == "cliques-dense":
            failed |= self.audit_cliques() & self.shard_keys(shard)
        return max(missing, 0) + len(failed), problems

    # -- expected values that depend on the inputs only -------------------

    def expected_ood(self, shard: int) -> int:
        """Out-of-domain evaluations the scan of a shard must report.

        The theorem battery has no domain gate.  On the conjecture sample
        the conjecture is out of domain when omega > r (or n < r + 1), and
        stability when its premise fails: omega > r, or
        mu < (1 - 1/r - alpha) n with alpha = 2^-10 r^-6."""
        if shard not in self._expected_ood:
            self._expected_ood[shard] = (self._sample_ood(self.inputs.shards[shard])
                                         if self.inputs.name == "conjecture-sample" else 0)
        return self._expected_ood[shard]

    @staticmethod
    def _sample_ood(graphs) -> int:
        by_order: dict[int, list] = {}
        for n, edges in graphs:
            by_order.setdefault(n, []).append(edges)
        ood = 0
        for n, edge_lists in by_order.items():
            adj = np.zeros((len(edge_lists), n, n), dtype=bool)
            for i, edges in enumerate(edge_lists):
                for u, v in edges:
                    adj[i, u, v] = adj[i, v, u] = True
            mu = np.linalg.eigvalsh(adj.astype(float))[:, -1]
            for r in workloads.SAMPLE_RS:
                has_big_clique = _has_clique(adj, r + 1)
                conj_ood = has_big_clique | (n < r + 1)
                alpha = 2.0 ** -10 / r ** 6
                thr = (1.0 - 1.0 / r - alpha) * n
                premise = ~has_big_clique & (mu >= thr - HOLD_TOL * max(1.0, abs(thr)))
                ood += int(conj_ood.sum()) + int((~premise).sum())
        return ood

    def multipartite_keys(self) -> set:
        """Every labeled complete multipartite graph on BATTERY_ORDER
        vertices, plus isolated vertices, built from set partitions: one
        block (or none) is the isolated set, the rest are the parts."""
        if self._multipartite is None:
            n = workloads.BATTERY_ORDER
            keys = set()
            for blocks in _set_partitions(list(range(n))):
                for isolated in [None, *range(len(blocks))]:
                    parts = [b for i, b in enumerate(blocks) if i != isolated]
                    g = nx.complete_multipartite_graph(*[len(p) for p in parts])
                    label = [v for p in parts for v in p]
                    edges = [(label[u], label[v]) for u, v in g.edges()]
                    keys.add(graph_key(n, edges))
            self._multipartite = keys
        return self._multipartite

    def audit_cliques(self) -> set:
        """Run ``scl check`` for polyn, theorem1 (r = 2..4) and oldin (l = 2)
        on two seeded picks of the dense inputs and recompute every entry;
        these sides carry every global and per-vertex clique count.  The
        keys of the picks that fail, computed once."""
        if self._audit is None:
            self._audit = self._audit_cliques()
        return self._audit

    def _audit_cliques(self) -> set:
        from spectral_cliques import cli

        picks = random.Random(f"audit:{self.inputs.seed}").sample(
            self.inputs.graphs, 2)
        path = self.workdir / "audit.g6"
        workloads.write_graph6(path, picks)
        argv = ["check", "--file", str(path), "--theorem", "polyn",
                "--theorem", "theorem1", "--r", "2..4", "--theorem", "oldin",
                "--l", "2"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            return {graph_key(n, edges) for n, edges in picks}
        failed = set()
        for entry in json.loads(out.getvalue()):
            f = self.facts(entry["graph6"])
            if entry["status"] == "violation" or not record_ok(entry, f, "holds"):
                failed.add(f.key)
        return failed


def _has_clique(adj: np.ndarray, k: int) -> np.ndarray:
    """Per graph of a stacked boolean adjacency array: a clique on k vertices?"""
    n = adj.shape[1]
    found = np.zeros(adj.shape[0], dtype=bool)
    for combo in combinations(range(n), k):
        inside = np.ones(adj.shape[0], dtype=bool)
        for u, v in combinations(combo, 2):
            inside &= adj[:, u, v]
        found |= inside
    return found


def _set_partitions(items: list):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        yield [[first], *partition]
        for i in range(len(partition)):
            yield [*partition[:i], [first, *partition[i]], *partition[i + 1:]]
