"""The benchmark's workloads: their input files, made from a seed, and the
``scl`` command lines that scan them.

Inputs are generated with ``random.Random(f"{workload}:{seed}")`` and
written by this module's own graph6 encoder, never by the program's
generators, so the program under test only ever sees the finished files.
Each workload's corpus is split into shards, one graph6 file each; one
``scl scan`` call scans one shard, so a run holds many short calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

#: the eight theorem checks of the n = 6 acceptance battery, default grids
THEOREM_CHECKS = ("wilf", "maxmu", "maxmu1", "polyn", "theorem1", "theorem2",
                  "momo", "oldin")

BATTERY_ORDER = 6
#: 2,048 graphs a shard; one call near 1.5 s on the reference machine
BATTERY_SHARDS = 16

SAMPLE_ORDER = 7
SAMPLE_COUNT = 1 << 14
SAMPLE_RS = (2, 3)
#: balanced Turan hosts T(r, q r) with q r <= 16, for r in SAMPLE_RS
TURAN_HOSTS = tuple((r, q * r) for r in SAMPLE_RS for q in range(1, 16 // r + 1))

DENSE_ORDER = 40
DENSE_DENSITY = 0.72
DENSE_COUNT = 16
DENSE_BASE_SEED = "cliques-dense:base"
#: 4 graphs a shard; one call near 1.5 s on the reference machine
DENSE_SHARDS = 4

WORKLOAD_NAMES = ("battery-n6", "conjecture-sample", "cliques-dense")


Graph = tuple[int, tuple[tuple[int, int], ...]]


@dataclass
class Inputs:
    """One workload's inputs as written for a given seed.

    ``shards[i]`` holds ``(n, edges)`` for every graph of the graph6 file
    ``paths[i]``, in file order.
    """

    name: str
    seed: int
    jobs: int
    shards: list[list[Graph]]
    paths: list[Path] = field(default_factory=list)

    @property
    def corpus_size(self) -> int:
        return sum(len(shard) for shard in self.shards)

    @property
    def graphs(self) -> list[Graph]:
        return [g for shard in self.shards for g in shard]

    def argv(self, workdir: Path, shard: int, jobs: int | None = None) -> list[str]:
        """The ``scl`` arguments that scan shard ``shard``."""
        argv = ["--jobs", str(self.jobs if jobs is None else jobs), "scan",
                "--file", str(self.paths[shard])]
        if self.name == "conjecture-sample":
            checks = ("conjecture", "stability")
            argv += ["--r", ",".join(str(r) for r in SAMPLE_RS)]
        else:
            checks = THEOREM_CHECKS
        for name in checks:
            argv += ["--check", name]
        return argv + ["--artifact-dir", str(workdir / "artifacts")]


def graph6_bytes(n: int, edges) -> bytes:
    """One graph6 line (n <= 62): upper-triangle bits in column order,
    most significant first, zero-padded to whole 6-bit characters."""
    if not 0 <= n <= 62:
        raise ValueError(f"graph6 order {n} out of range")
    width = 6 * ((n * (n - 1) // 2 + 5) // 6)
    bits = 0
    for u, v in edges:
        u, v = min(u, v), max(u, v)
        bits |= 1 << (width - 1 - (v * (v - 1) // 2 + u))
    return bytes([63 + n, *(63 + (bits >> s & 63) for s in range(width - 6, -1, -6))]) + b"\n"


def write_graph6(path: Path, graphs: list[Graph]) -> None:
    with open(path, "wb") as fh:
        fh.writelines(graph6_bytes(n, edges) for n, edges in graphs)


def _battery_graphs(rng: random.Random) -> list[Graph]:
    """Every labeled graph on BATTERY_ORDER vertices, in a seeded order,
    arranged so that its BATTERY_SHARDS equal slices cost the same.

    A shard's scan time follows its share of the few isomorphism classes
    that are equality cases (a seeded random split gave shards with 297 to
    503 equality records, and 20% apart in time).  So the masks, shuffled,
    are sorted by a cheap isomorphism invariant (degree sequence and
    triangle count) and dealt into shards in turn, which gives every
    shard the same share of each invariant class for every seed (equality
    records 366 to 437 a shard); each shard is then shuffled on its own."""
    pairs = tuple(combinations(range(BATTERY_ORDER), 2))
    index = {p: b for b, p in enumerate(pairs)}
    stars = [sum(1 << index[min(u, v), max(u, v)] for u in range(BATTERY_ORDER) if u != v)
             for v in range(BATTERY_ORDER)]
    triangles = [1 << index[u, v] | 1 << index[u, w] | 1 << index[v, w]
                 for u, v, w in combinations(range(BATTERY_ORDER), 3)]

    def invariant(mask: int) -> tuple:
        return (sorted((mask & star).bit_count() for star in stars),
                sum(mask & t == t for t in triangles))

    masks = list(range(1 << len(pairs)))
    rng.shuffle(masks)
    masks.sort(key=invariant)
    out = []
    for first in range(BATTERY_SHARDS):
        shard = masks[first::BATTERY_SHARDS]
        rng.shuffle(shard)
        out += [(BATTERY_ORDER, tuple(p for b, p in enumerate(pairs) if mask >> b & 1))
                for mask in shard]
    return out


def _sample_graphs(rng: random.Random) -> list[Graph]:
    """Uniform labeled graphs G(7, 1/2), then the balanced Turan hosts."""
    pairs = tuple(combinations(range(SAMPLE_ORDER), 2))
    out = []
    for _ in range(SAMPLE_COUNT):
        bits = rng.getrandbits(len(pairs))
        out.append((SAMPLE_ORDER,
                    tuple(p for b, p in enumerate(pairs) if bits >> b & 1)))
    for r, n in TURAN_HOSTS:
        part = [v * r // n for v in range(n)]
        out.append((n, tuple((u, v) for u, v in combinations(range(n), 2)
                             if part[u] != part[v])))
    return out


def _dense_graphs(rng: random.Random) -> list[Graph]:
    """DENSE_COUNT uniform graphs on DENSE_ORDER vertices with exactly
    round(DENSE_DENSITY * C(n, 2)) edges, drawn once from DENSE_BASE_SEED,
    each relabeled by a permutation drawn from ``rng``.

    The clique work of one such graph varies from draw to draw with a
    coefficient of variation of about 15%, which sixteen graphs split over
    four shards do not average out; the enumeration visits each clique
    once whatever the labels, so relabeling gives every seed the same work
    on different labeled inputs."""
    base = random.Random(DENSE_BASE_SEED)
    pairs = list(combinations(range(DENSE_ORDER), 2))
    m = round(DENSE_DENSITY * len(pairs))
    out = []
    for _ in range(DENSE_COUNT):
        edges = base.sample(pairs, m)
        label = list(range(DENSE_ORDER))
        rng.shuffle(label)
        out.append((DENSE_ORDER, tuple(sorted(
            (min(label[u], label[v]), max(label[u], label[v])) for u, v in edges))))
    return out


def make_inputs(name: str, seed: int, workdir: Path) -> Inputs:
    """Generate one workload's inputs and write its shards under ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "battery-n6":
        graphs, count, jobs = _battery_graphs(rng), BATTERY_SHARDS, 1
    elif name == "conjecture-sample":
        graphs, count, jobs = _sample_graphs(rng), 1, 2
    elif name == "cliques-dense":
        graphs, count, jobs = _dense_graphs(rng), DENSE_SHARDS, 1
    else:
        raise ValueError(f"unknown workload {name!r}")
    size = -(-len(graphs) // count)
    inputs = Inputs(name, seed, jobs, [graphs[lo:lo + size]
                                       for lo in range(0, len(graphs), size)])
    for i, shard in enumerate(inputs.shards):
        inputs.paths.append(workdir / f"{name}-{i}.g6")
        write_graph6(inputs.paths[-1], shard)
    return inputs
