"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The n = 7 exhaustive
theorem battery is the long extended run; enable it with SCL_EXTENDED=1.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from spectral_cliques import (clique_counts, conjecture_check, emit_graph6,
                              find_stability_witness,
                              is_bipartite, is_complete_multipartite_plus_isolated,
                              is_connected, random_graph, spectrum,
                              stability_premise, theorem3_conditional,
                              turan_graph, verify_witness, walk_counts,
                              walk_ratio_limit_check)
from spectral_cliques.graphs import mix64
from spectral_cliques.scan import CorpusSpec, ScanConfig, scan
from spectral_cliques.stability import alpha_limit

from oracles import brute_force_cliques, brute_force_walks, enumerate_labeled

JOBS = min(8, os.cpu_count() or 1)
EXTENDED = bool(os.environ.get("SCL_EXTENDED"))

THEOREM_BATTERY = {
    "wilf": {},
    "maxmu": {"s": [1, 2, 3, 4]},
    "maxmu1": {},
    "polyn": {},
    "theorem1": {"r": [2, 3, 4]},
    "theorem2": {"r": [2, 3]},
    "momo": {},
    "oldin": {"l": [2, 3]},
}


def report(num: int, title: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({title}): {status} — {detail}")
    assert ok, f"criterion {num} ({title}): {detail}"


@pytest.fixture(scope="module")
def corpus6():
    """All labeled graphs of order 1..6, keyed by order."""
    return {n: list(enumerate_labeled(n)) for n in range(1, 7)}


@pytest.fixture(scope="module")
def random200():
    """200 seeded random graphs with n <= 10 (orders and densities vary)."""
    out = []
    for i in range(200):
        n = 3 + i % 8
        p = 0.2 + 0.6 * (i % 7) / 6.0
        out.append(random_graph(n, p, mix64(20240, i)))
    return out


def test_criterion_01_exhaustive_theorem_suite():
    res = scan(CorpusSpec(kind="exhaustive", n=6),
               ScanConfig(checks=THEOREM_BATTERY), jobs=JOBS)
    ok = res.graphs_checked == 32768 and not res.violations
    report(1, "exhaustive theorem suite n=6", ok,
           f"{res.graphs_checked} graphs, {len(res.violations)} violations, "
           f"{res.timing_s:.1f}s")


@pytest.mark.extended
@pytest.mark.skipif(not EXTENDED, reason="set SCL_EXTENDED=1 for the n=7 run")
def test_criterion_01_extended_n7():
    res = scan(CorpusSpec(kind="exhaustive", n=7),
               ScanConfig(checks=THEOREM_BATTERY), jobs=JOBS)
    ok = res.graphs_checked == 1 << 21 and not res.violations
    report(1, "exhaustive theorem suite n=7 (extended)", ok,
           f"{res.graphs_checked} graphs, {len(res.violations)} violations, "
           f"{res.timing_s:.1f}s")


def test_criterion_02_polyn_equality_characterization(corpus6):
    mismatches = []
    total_equal = 0
    for n, graphs in corpus6.items():
        res = scan(CorpusSpec(kind="exhaustive", n=n),
                   ScanConfig(checks={"polyn": {}}), jobs=JOBS)
        flagged = {rec["graph6"] for rec in res.equalities}
        expected = {emit_graph6(g) for g in graphs
                    if is_complete_multipartite_plus_isolated(g)[0]}
        total_equal += len(expected)
        if flagged != expected:
            mismatches.append((n, flagged ^ expected))
    report(2, "equality iff complete multipartite + isolated", not mismatches,
           f"{total_equal} equality graphs over n<=6, "
           f"symmetric difference {sum(len(d) for _, d in mismatches)}")


def test_criterion_03_turan_spectrum():
    worst = 0.0
    for r in (2, 3, 4):
        for q in (1, 2, 3, 4, 5):
            n = q * r
            got = spectrum(turan_graph(r, n)).eigenvalues
            expect = sorted([(r - 1) * q] + [0] * (r * (q - 1)) + [-q] * (r - 1),
                            reverse=True)
            worst = max(worst, max(abs(a - b) for a, b in zip(got, expect)))
    report(3, "balanced multipartite spectrum", worst <= 1e-9,
           f"max per-eigenvalue error {worst:.2e} over r in 2..4, q in 1..5")


def test_criterion_04_conjecture_scan():
    violations = []
    checked = 0
    for n in range(1, 8):
        res = scan(CorpusSpec(kind="exhaustive", n=n),
                   ScanConfig(checks={"conjecture": {"r": [2, 3]}}), jobs=JOBS)
        checked += res.graphs_checked
        violations.extend(res.violations)
    # tightness: balanced complete multipartite hosts with at least two
    # vertices per class (below that the graphs sit outside the claim)
    worst_slack = 0.0
    for r in (2, 3):
        for n in range(2 * r, 21, r):
            rep = conjecture_check(turan_graph(r, n), r)
            assert rep.in_domain and rep.equality
            worst_slack = max(worst_slack, abs(rep.slack))
    ok = not violations and worst_slack <= 1e-9
    report(4, "two-eigenvalue bound scan", ok,
           f"{checked} graphs n<=7, {len(violations)} violations, "
           f"extremal slack {worst_slack:.2e}")


def test_criterion_05_oracle_equivalence(random200):
    clique_bad = walk_bad = 0
    for i, g in enumerate(random200):
        if clique_counts(g) != brute_force_cliques(g):
            clique_bad += 1
        L = 3 + i % 4
        if walk_counts(g, L) != brute_force_walks(g, L):
            walk_bad += 1
    report(5, "oracle equivalence", clique_bad == 0 and walk_bad == 0,
           f"200 graphs: {clique_bad} clique and {walk_bad} walk mismatches")


def test_criterion_06_trace_identities(corpus6, random200):
    graphs = [g for gs in corpus6.values() for g in gs]
    graphs += [turan_graph(r, q * r) for r in (2, 3, 4) for q in (1, 2, 3, 4, 5)]
    graphs += random200
    bad = 0
    for g in graphs:
        vals = spectrum(g).eigenvalues
        k3 = clique_counts(g).count(3)
        if abs(sum(vals)) > 1e-8 * g.n:
            bad += 1
        elif abs(sum(x * x for x in vals) - 2 * g.m) > 1e-8 * g.n ** 2:
            bad += 1
        elif abs(sum(x ** 3 for x in vals) - 6 * k3) > 1e-7 * g.n ** 3:
            bad += 1
    report(6, "trace identities", bad == 0,
           f"{len(graphs)} graphs, {bad} failures")


def test_criterion_07_walk_ratio_limit(corpus6):
    failures = 0
    checked = 0
    for n in range(3, 7):
        for g in corpus6[n]:
            if not is_connected(g) or is_bipartite(g):
                continue
            checked += 1
            for q in (0, 1, 2):
                rep = walk_ratio_limit_check(g, q, tol=1e-6, l_max=5000)
                if not rep.converged:
                    failures += 1
    report(7, "walk-ratio limit", failures == 0,
           f"{checked} connected non-bipartite graphs x 3 offsets, "
           f"{failures} non-convergent")


def test_criterion_08_theorem3_grid(corpus6):
    alphas = (Fraction(0), Fraction(1, 20), Fraction(1, 10), Fraction(1, 4))
    failures = 0
    in_domain = 0
    for graphs in corpus6.values():
        for g in graphs:
            for r in (2, 3):
                for s in range(1, r + 1):
                    for a in alphas:
                        rep = theorem3_conditional(g, r, s, a)
                        if not rep.in_domain:
                            continue
                        in_domain += 1
                        if not rep.holds:  # premise met, conclusion failed
                            failures += 1
    report(8, "conditional clique bound grid", failures == 0,
           f"{in_domain} in-domain evaluations, {failures} implication failures")


def test_criterion_09_stability_sanity(corpus6):
    problems = []
    # balanced hosts: premise holds and the whole graph is the witness
    for r in (2, 3):
        a = alpha_limit(r)
        for n in range(6, 13):
            if n % r:
                continue
            g = turan_graph(r, n)
            if not stability_premise(g, r, a):
                problems.append(f"premise failed on balanced host r={r} n={n}")
                continue
            w = find_stability_witness(g, r, a)
            if w is None:
                problems.append(f"exhaustive miss on balanced host r={r} n={n}")
            elif not verify_witness(g, r, a, w):
                problems.append(f"witness failed verification r={r} n={n}")
    # no exhaustive miss on any premise-satisfying graph of the corpus
    satisfying = 0
    pool = [g for gs in corpus6.values() for g in gs]
    pool += [random_graph(7 + i % 6, 0.5 + 0.04 * (i % 5), mix64(9, i))
             for i in range(100)]
    for g in pool:
        for r in (2, 3):
            a = alpha_limit(r)
            if not stability_premise(g, r, a):
                continue
            satisfying += 1
            if find_stability_witness(g, r, a) is None:
                problems.append(f"exhaustive miss, r={r}, {emit_graph6(g)}")
    report(9, "stability witness sanity", not problems,
           f"{satisfying} premise-satisfying corpus graphs, "
           f"problems: {problems or 'none'}")


def test_criterion_10_scan_determinism():
    args = ["scan", "--exhaustive-n", "6", "--check", "wilf", "--check", "momo",
            "--top-k", "7"]

    def run(jobs):
        proc = subprocess.run(
            [sys.executable, "-m", "spectral_cliques", "--jobs", str(jobs), *args],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    first = run(1)
    outputs = [first, run(1), run(8)]
    ok = all(out == first for out in outputs)
    json.loads(first)
    report(10, "byte-identical scans", ok,
           f"3 runs (--jobs 1,1,8), stdout {'identical' if ok else 'DIFFERS'}")
