"""The benchmark's own tests; run with ``python3 -m pytest perfbench -q``
from the root of the checkout.  They are kept out of the timed runs."""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LayerTracer  # noqa: E402


def _scl(argv: list[str]) -> tuple[int, str]:
    from spectral_cliques import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("sample")
    inputs = workloads.make_inputs("conjecture-sample", 7, workdir)
    code, stdout = _scl(inputs.argv(workdir, 0, jobs=1))
    return inputs, workdir, code, stdout


def test_conjecture_sample_stdout_same_for_jobs_1_and_2(sample):
    inputs, workdir, code, stdout = sample
    code2, stdout2 = _scl(inputs.argv(workdir, 0, jobs=2))
    assert code == code2 == 0
    assert stdout2 == stdout


def test_checker_accepts_the_scan_and_catches_damage(sample):
    inputs, workdir, code, stdout = sample
    checker = checks.Checker(inputs, workdir)
    assert checker.check(code, stdout, 0) == (0, [])

    result = json.loads(stdout)
    assert result["equalities"], "the Turan hosts are equality cases"
    bad = json.loads(stdout)
    bad["equalities"][0]["lhs"] *= 1 + 1e-6
    assert checker.check(code, json.dumps(bad), 0)[0] == 1

    bad = json.loads(stdout)
    bad["out_of_domain"] -= 1
    assert checker.check(code, json.dumps(bad), 0)[1]

    bad = json.loads(stdout)
    bad["graphs_checked"] -= 3
    assert checker.check(code, json.dumps(bad), 0)[0] == 3

    bad = json.loads(stdout)
    bad["violations"].append({**result["equalities"][0], "params": {"r": 2},
                              "check": "conjecture"})
    assert checker.check(code, json.dumps(bad), 0)[0] == 1


def test_graph6_encoder_matches_networkx(tmp_path):
    import networkx as nx

    inputs = workloads.make_inputs("cliques-dense", 3, tmp_path)
    graphs = inputs.graphs + workloads._sample_graphs(random.Random(3))[-20:]
    graphs += [(0, ()), (1, ()), (2, ((1, 0),))]
    for n, edges in graphs:
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        assert workloads.graph6_bytes(n, edges) == nx.to_graph6_bytes(g, header=False)


def test_battery_shards_hold_every_labeled_graph_once(tmp_path):
    inputs = workloads.make_inputs("battery-n6", 5, tmp_path)
    assert [len(shard) for shard in inputs.shards] == [2048] * workloads.BATTERY_SHARDS
    keys = {checks.graph_key(n, edges) for n, edges in inputs.graphs}
    assert len(keys) == 1 << 15
    lines = inputs.paths[3].read_bytes().splitlines(keepends=True)
    assert lines == [workloads.graph6_bytes(*g) for g in inputs.shards[3]]

    def degree_sequences(shard):
        return sorted(tuple(sorted(sum(v in e for e in edges) for v in range(n)))
                      for n, edges in shard)

    (tmp_path / "other").mkdir()
    other = workloads.make_inputs("battery-n6", 6, tmp_path / "other")
    assert other.shards[3] != inputs.shards[3]
    assert degree_sequences(other.shards[3]) == degree_sequences(inputs.shards[3])


def test_dense_graphs_are_the_same_up_to_labels():
    import networkx as nx

    one = workloads._dense_graphs(random.Random(1))
    two = workloads._dense_graphs(random.Random(2))
    assert one != two
    for (n, a), (_, b) in zip(one, two):
        assert len(a) == len(b) == round(workloads.DENSE_DENSITY * n * (n - 1) / 2)
        assert nx.is_isomorphic(nx.Graph(a), nx.Graph(b))


def test_multipartite_keys_match_a_brute_force_recognizer():
    import networkx as nx
    from itertools import combinations

    assert sum(1 for _ in checks._set_partitions(list(range(5)))) == 52
    n = workloads.BATTERY_ORDER
    pairs = list(combinations(range(n), 2))
    expected = set()
    for mask in range(1 << len(pairs)):
        edges = [p for b, p in enumerate(pairs) if mask >> b & 1]
        g = nx.Graph(edges)
        rest = nx.complement(g.subgraph([v for v in g if g.degree(v) > 0]))
        # complete multipartite on the non-isolated vertices: the complement
        # there is a disjoint union of cliques
        if all(rest.subgraph(c).number_of_edges() == len(c) * (len(c) - 1) // 2
               for c in nx.connected_components(rest)):
            expected.add(checks.graph_key(n, edges))
    assert checks.Checker(None, None).multipartite_keys() == expected


def test_tracer_self_times_add_up_and_uninstall_restores():
    from spectral_cliques import bounds, cli, spectral

    before = (cli.main, bounds.spectrum, spectral.spectrum)
    tracer = LayerTracer()
    tracer.install()
    try:
        assert bounds.spectrum is not before[1]
        code = cli.main(["scan", "--exhaustive-n", "4", "--check", "wilf",
                         "--check", "oldin", "--check", "conjecture", "--r", "2"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (cli.main, bounds.spectrum, spectral.spectrum) == before
    figures = tracer.layer_metrics()
    assert figures["graphs.build_calls"][0] == 64
    assert figures["bounds.evals"][0] > 64
    total = tracer.stats[("cli", "main")][1]
    self_sum = sum(agg[2] for agg in tracer.stats.values())
    assert self_sum == pytest.approx(total, rel=1e-9)


def test_calls_report_the_reference_time_next_to_their_own():
    import run
    import scanproc

    assert scanproc._reference_task() == scanproc._reference_task()
    call = scanproc.run_call(["scan", "--exhaustive-n", "3", "--check", "wilf"])
    scanproc.stop_resource_tracker()
    assert call["code"] == 0 and 0 < call["ref_s"] < 1
    assert run.calibrated(2.0, 2 * scanproc.REFERENCE_S) == pytest.approx(1.0)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery-n6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
