"""Corpus generation/ingestion and bulk inequality scanning.

A scan walks a corpus (exhaustive labeled graphs, a graph6 file, or a
seeded random family), evaluates a configured set of checks with parameter
grids on every graph passing the filters, and aggregates violations,
equality cases, and the tightest instances.  Work is split into chunks by
array size (:func:`_spans`): a chunk takes graphs in corpus order while
its adjacency stack and its vertex-subset tables stay within bounds, so
many small graphs make one chunk and a few large ones another.  With
``jobs`` > 1 the calling process and up to ``jobs - 1``
pool workers claim the chunks in index order from one shared counter, the
caller starting at once.  On Linux, while the caller runs no other thread,
the workers are forked from it and start with the package and the scan
plan in memory; elsewhere they start by the default method.  Partial
results merge by chunk index, so the outcome is byte-identical no matter
how many processes scan or how they start.

A chunk is screened on arrays, one ``screen.Block`` per vertex order, and
only its reported evaluations go through ``run_check``.  Graphs of order
up to ``screen.MASK_MAX_N`` (every exhaustive corpus, small random ones,
graph6 lines of small order) reach their block as edge bits, and a
``Graph`` is built only for a graph with a reported evaluation.  A graph6
file is read once, as bytes, and split, checked and grouped by order on
arrays (:func:`read_graph6`, :func:`_chunk_graphs`); only lines that are
not plain graph6 characters, or not of small order, take Python work of
their own.

The checks, their parameter axes and default grids are declared once, in
``CHECKS``.  All are hard claims except where a check's ``discovery`` rule
says otherwise (the two-eigenvalue conjecture for r >= 3): those
violations are discoveries to persist, not test failures.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bounds, screen
from .bounds import DEFAULT_TOLS, Tolerances
from .cliques import MASK_MAX_N, moon_moser_check
from .graphs import (HARD_CAP, Graph, Graph6Error, check_order, check_random, emit_graph6,
                     graph6_width, mix64, parse_graph6, random_edge_mask, random_graph,
                     vertex_cap)
from .spectral import STACK_ENTRIES, EigensolverError
from .stability import STABILITY, stability_alpha, stability_report

EXHAUSTIVE_LIMIT = 7
EXHAUSTIVE_OVERRIDE_LIMIT = 8

#: a chunk takes graphs in corpus order while its adjacency entries (the
#: sum of n^2) stay within _CHUNK_ENTRIES, so each of its orders is one
#: stacked solve, and its subset-table entries (the sum of 2^n over orders
#: up to MASK_MAX_N) within _CHUNK_SUBSETS, 4 MiB of float hits, the table
#: of 512 graphs of order 10; it holds at least one graph
_CHUNK_ENTRIES = STACK_ENTRIES
_CHUNK_SUBSETS = 1 << 19

# outcome statuses
OOD = "ood"
HOLDS = "holds"
EQUALITY = "equality"
VIOLATION = "violation"
INCONCLUSIVE = "inconclusive"

@dataclass(frozen=True)
class CorpusSpec:
    """What to scan.

    kind "exhaustive" (all labeled graphs of order n, edge-mask order),
    "file" (graph6 lines), or "random" (n, p, count, seed; item i is seeded
    by mix64(seed, i) so corpora are order-independent).  Filters:
    "connected", "nonbipartite", "kfree:R" (clique number at most R).
    """

    kind: str
    n: int | None = None
    path: str | None = None
    p: float | None = None
    count: int | None = None
    seed: int | None = None
    filters: tuple[str, ...] = ()
    allow_n8: bool = False


@dataclass
class ScanConfig:
    """Named checks with parameter grids, plus ranking and tolerance knobs.

    ``checks`` maps a check name to {axis: values}; missing axes fall back
    to per-check defaults (oldin expands s over 2..omega per graph,
    theorem3 s over 1..r, stability takes the largest admissible alpha per
    r).
    """

    checks: dict[str, dict]
    top_k: int = 10
    tol_scale: float = 1.0


@dataclass
class ScanResult:
    graphs_checked: int = 0
    violations: list[dict] = field(default_factory=list)
    equalities: list[dict] = field(default_factory=list)
    tightest: list[dict] = field(default_factory=list)
    out_of_domain: int = 0
    timing_s: float = 0.0

    def theorem_violations(self) -> list[dict]:
        return [v for v in self.violations
                if not CHECKS[v["check"]].discovery(v["params"])]

    def conjecture_violations(self) -> list[dict]:
        return [v for v in self.violations if CHECKS[v["check"]].discovery(v["params"])]

    def to_json_dict(self, deterministic_timing: bool = False) -> dict:
        return {
            "graphs_checked": self.graphs_checked,
            "violations": self.violations,
            "equalities": self.equalities,
            "tightest": self.tightest,
            "out_of_domain": self.out_of_domain,
            "timing_s": None if deterministic_timing else self.timing_s,
        }


@dataclass
class CheckOutcome:
    """One evaluation, normalized for aggregation."""

    check: str
    params: dict
    status: str
    lhs: float | None
    rhs: float | None
    slack: float | None
    report: object | None = None

    def record(self, graph6: str) -> dict:
        return {
            "graph6": graph6,
            "check": self.check,
            "params": dict(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
        }


# ---------------------------------------------------------------------------
# corpora


def _line_spans(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the lines of a newline-terminated text, as byte
    offsets; each end is the offset of the line's newline."""
    ends = np.flatnonzero(buf == 10)
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    return starts, ends


def _outside(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """How many bytes of each line lie outside the graph6 characters ?..~."""
    bad = np.zeros(len(buf) + 1, dtype=np.int64)
    np.cumsum((buf < 63) | (buf > 126), out=bad[1:])
    return bad[ends] - bad[starts]


def read_graph6(path: str) -> bytes:
    """A graph6 file's text, line for line: each line stripped, a leading
    '>>graph6<<' marker dropped and the rest stripped again, blanks and '#'
    comments left empty, and every line ended by a newline, so that the
    graph on line k of the file (from 1, by universal newlines) is on line
    k of the text.

    A line of graph6 characters alone is kept as it stands, with no Python
    work per line; only the others are decoded and stripped one by one.
    A non-ASCII byte raises Graph6Error naming the file and its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    high = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) > 127)
    if high.size:
        at = int(high[0])
        lineno = len((data[:at] + b"?").splitlines())
        raise Graph6Error(f"{path}, line {lineno}: non-ASCII byte 0x{data[at]:02x}")
    if b"\r" in data:
        data = b"\n".join(data.splitlines())
    if data and not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    starts, ends = _line_spans(buf)
    plain = (ends > starts) & (_outside(buf, starts, ends) == 0)
    parts, done = [], 0
    for i in np.flatnonzero(~plain).tolist():
        start, end = int(starts[i]), int(ends[i])
        line = data[start:end].decode("ascii").strip()
        if line.startswith(">>graph6<<"):
            line = line[len(">>graph6<<"):].strip()
        parts += [data[done:start], b"" if line.startswith("#") else line.encode("ascii")]
        done = end
    parts.append(data[done:])
    return b"".join(parts)


def parse_graph6_line(path: str, lineno: int, text: str, cap: int | None = None) -> Graph:
    """Decode one line of a graph6 file; an error names the file and line.
    ``cap`` is the vertex cap, read from the environment when None."""
    try:
        return parse_graph6(text, cap)
    except Graph6Error as exc:
        raise Graph6Error(f"{path}, line {lineno}: {exc}") from None


def _kfree_rows(b: screen.Block, r: int) -> np.ndarray:
    return b.omega <= r


#: a corpus filter: a predicate on the graphs of a block, and the value it
#: takes on those that pass
Filter = tuple[Callable[[screen.Block], np.ndarray], bool]


def _filter_predicates(filters: tuple[str, ...]) -> tuple[Filter, ...]:
    """One filter per corpus filter name; a graph passes when all hold.

    Raises ValueError on an unknown or malformed filter."""
    preds = []
    for f in filters:
        if f == "connected":
            preds.append((screen.connected, True))
        elif f == "nonbipartite":
            preds.append((screen.bipartite, False))
        elif f.startswith("kfree:"):
            try:
                r = int(f[len("kfree:"):])
            except ValueError:
                r = 0  # refused just below, like any R < 1
            if r < 1:
                raise ValueError(f"malformed corpus filter {f!r}; kfree:R needs R >= 1")
            preds.append((functools.partial(_kfree_rows, r=r), True))
        else:
            raise ValueError(f"unknown corpus filter {f!r}")
    return tuple(preds)


# ---------------------------------------------------------------------------
# check dispatch


def _outcome(rep: bounds.BoundReport) -> CheckOutcome:
    if not rep.in_domain:
        status = OOD
    elif rep.holds is False:
        status = VIOLATION
    elif rep.holds is None or rep.equality is None:
        status = INCONCLUSIVE
    elif rep.equality:
        status = EQUALITY
    else:
        status = HOLDS
    return CheckOutcome(rep.name, rep.params, status, rep.lhs, rep.rhs,
                        rep.slack, rep)


def _momo_outcomes(g: Graph, params: dict, tols: Tolerances) -> list[CheckOutcome]:
    rep = moon_moser_check(g)
    if rep.monotone:
        return [CheckOutcome("momo", {}, HOLDS, None, None, None, rep)]
    t, a, b = next((t, a, b) for t, (a, b) in enumerate(zip(rep.ratios, rep.ratios[1:]), start=1)
                   if b < a)
    return [CheckOutcome("momo", {"t": t}, VIOLATION, float(a), float(b), float(b - a), rep)]


#: a witness-search verdict's outcome status; premise-failed and ood are OOD
_STABILITY_STATUS = {"witnessed": HOLDS, "exhaustive-miss": VIOLATION,
                     "inconclusive": INCONCLUSIVE, "premise-inconclusive": INCONCLUSIVE}


def _stability_outcomes(g: Graph, params: dict, tols: Tolerances) -> list[CheckOutcome]:
    r = params["r"]
    alpha = stability_alpha(r, params["alpha"])
    out_params = {"r": r, "alpha": alpha}
    rep = stability_report(g, r, alpha, tols=tols)
    status = _STABILITY_STATUS.get(rep.verdict, OOD)
    if not rep.premise_ok:  # no search ran
        return [CheckOutcome("stability", out_params, status, None, None, None)]
    return [CheckOutcome("stability", out_params, status, rep.order_min,
                         float(rep.witness.order if rep.witness else 0), None)]


def _hard_claim(params: dict) -> bool:
    return False


def _open_conjecture(params: dict) -> bool:
    """The two-eigenvalue conjecture is open for r >= 3; Lin, Ning and Wu
    (Combin. Probab. Comput. 30, 2021) proved r = 2, so a violation there is
    a failed hard claim."""
    return params["r"] >= 3


@dataclass(frozen=True)
class Check:
    """A registered check.

    ``defaults`` maps each parameter axis, in grid order, to its default
    values; None lets the evaluator choose per graph (oldin covers every
    valid clique size, theorem3 every s <= r, stability the largest
    admissible alpha).  ``evaluate(g, params, tols)`` returns the outcomes
    of one parameter combination.  A violation whose params satisfy
    ``discovery`` is a finding to persist, not a failed hard claim.
    A ``screen`` (see :mod:`screen`) decides on a chunk's arrays which
    evaluations a scan must send through ``evaluate``, and counts the
    out-of-domain outcomes among the others; without one every evaluation
    goes through ``evaluate``.  A check declares nothing about what it
    reads: a chunk's block solves its spectra and counts its cliques and
    walks the first time a screen reads them.
    """

    defaults: dict[str, tuple | None]
    evaluate: Callable[[Graph, dict, Tolerances], list[CheckOutcome]]
    discovery: Callable[[dict], bool] = _hard_claim
    screen: screen.ScreenFn | None = None

    @property
    def axes(self) -> tuple[str, ...]:
        return tuple(self.defaults)


def formula_check(f: bounds.Formula, defaults: dict[str, tuple | None],
                  discovery: Callable[[dict], bool] = _hard_claim) -> Check:
    """The entry of a check written as a formula: ``f`` evaluated graph by
    graph (:func:`bounds.evaluate_slots`) and screened on a chunk's arrays."""
    return Check(defaults,
                 lambda g, params, tols: [_outcome(rep) for rep in
                                          bounds.evaluate_slots(f, g, params, tols)],
                 discovery, screen=screen.formula_screen(f))


CHECKS: dict[str, Check] = {
    "wilf": formula_check(bounds.WILF, {}),
    "maxmu": formula_check(bounds.MAXMU, {"s": (1, 2, 3, 4)}),
    "maxmu1": formula_check(bounds.MAXMU1, {}),
    "polyn": formula_check(bounds.POLYN, {}),
    "theorem1": formula_check(bounds.THEOREM1, {"r": (2, 3, 4)}),
    "theorem2": formula_check(bounds.THEOREM2, {"r": (2, 3)}),
    "theorem3": formula_check(bounds.THEOREM3, {"r": (2, 3), "s": None, "alpha": (0,)}),
    "conjecture": formula_check(bounds.CONJECTURE, {"r": (2, 3)}, _open_conjecture),
    "oldin": formula_check(bounds.OLDIN, {"s": None, "l": (2, 3)}),
    "momo": Check({}, _momo_outcomes, screen=screen.screen_momo),
    "edge_corollary": formula_check(bounds.EDGE_COROLLARY, {"r": (2, 3), "alpha": (0,)}),
    "stability": Check({"r": (2, 3), "alpha": None}, _stability_outcomes,
                       screen=screen.formula_screen(STABILITY)),
}


def run_check(name: str, g: Graph, params: dict,
              tols: Tolerances = DEFAULT_TOLS) -> list[CheckOutcome]:
    """Evaluate one named check on one graph; oldin and theorem3 with s=None
    expand over every valid s.  Arithmetic overflow (a walk count beyond
    the 128-bit range, a floating-point side out of range) or an
    eigensolver that does not converge turns the evaluation into one
    out-of-domain outcome."""
    check = CHECKS.get(name)
    if check is None:
        raise ValueError(f"unknown check {name!r}")
    try:
        return check.evaluate(g, params, tols)
    except (OverflowError, EigensolverError):
        return [CheckOutcome(name, dict(params), OOD, None, None, None)]


def expand_param_grid(name: str, grid: dict) -> list[dict]:
    """Materialize the parameter combinations for one check."""
    defaults = CHECKS[name].defaults
    values: list[tuple] = []
    for axis, default in defaults.items():
        vals = grid.get(axis, default)
        if vals is None:
            values.append((None,))
        else:
            vals = tuple(vals)
            if not vals:
                raise ValueError(f"empty grid for axis {axis!r} of check {name!r}")
            values.append(vals)
    return [dict(zip(defaults, combo)) for combo in itertools.product(*values)]


# ---------------------------------------------------------------------------
# scanning


_WORKER: dict = {}


def _init_scan_worker(corpus: CorpusSpec, config: ScanConfig,
                      filters: tuple[Filter, ...],
                      counter=None) -> None:
    combos = [(name, params) for name, grid in config.checks.items()
              for params in expand_param_grid(name, grid)]
    _WORKER.update(
        counter=counter,
        corpus=corpus,
        config=config,
        filters=filters,
        combos=combos,
        screens=[CHECKS[name].screen for name, _ in combos],
        vertex="oldin" in config.checks,
        tols=DEFAULT_TOLS.scaled(config.tol_scale),
    )


def _short_orders(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                  top: int) -> np.ndarray:
    """n for each line that is a graph6 line of order n <= ``top``, its
    order in one character, and well formed, else 0.  Every such line
    decodes without error; any other is left to :func:`parse_graph6`,
    which decides it."""
    n = buf[starts].astype(np.int64) - 63
    short = ((n >= 1) & (n <= top) & (ends - starts == 1 + graph6_width(n))
             & (_outside(buf, starts, ends) == 0))
    return np.where(short, n, 0)


def _header_orders(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The order each line's graph6 header states, in its one-character
    form or as '~' and three characters, clipped to 0..HARD_CAP; 0 for a
    line too short for its '~' form.  Only chunk sizes read it: whether a
    line holds a graph is for its decoding to say."""
    n = buf[starts].astype(np.int64) - 63
    tail = buf[np.minimum(starts[:, None] + np.arange(1, 4), len(buf) - 1)].astype(np.int64) - 63
    wide = np.where(ends - starts >= 4, (tail[:, 0] << 12) + (tail[:, 1] << 6) + tail[:, 2], 0)
    return np.minimum(np.maximum(np.where(n == 63, wide, n), 0), HARD_CAP)


def _chunk_graphs(chunk: tuple) -> tuple[int, dict[int, tuple], list[tuple[int, Graph]]]:
    """A chunk's size and its graphs: those of order up to
    ``screen.MASK_MAX_N`` as edge masks, ``{n: (positions, masks)}``
    (exhaustive and random masks, and the graph6 lines that
    :func:`_short_orders` admits, read from the text as uint8 rows), and
    every other one built, as ``(position, Graph)``.  A ``lines`` chunk is
    ``("lines", first, text)``: its file's lines from line ``first`` on, as
    :func:`read_graph6` gives them, the empty ones standing for skipped
    lines.  A line that fails to decode raises its error, the earliest
    first."""
    corpus: CorpusSpec = _WORKER["corpus"]
    bits: dict[int, tuple] = {}
    built: list[tuple[int, Graph]] = []
    kind = chunk[0]
    if kind == "exhaustive":
        _, n, start, stop = chunk
        bits[n] = (range(stop - start), np.arange(start, stop, dtype=np.int64))
        return stop - start, bits, built
    if kind == "lines":
        _, first, text = chunk
        buf = np.frombuffer(text, dtype=np.uint8)
        starts, ends = _line_spans(buf)
        rows = np.flatnonzero(ends > starts)
        starts, ends = starts[rows], ends[rows]
        cap = vertex_cap()
        orders = _short_orders(buf, starts, ends, min(screen.MASK_MAX_N, cap))
        found, first_at = np.unique(orders[orders > 0], return_index=True)
        for n in found[np.argsort(first_at)].tolist():  # orders as they first appear
            pos = np.flatnonzero(orders == n)
            chars = buf[starts[pos, None] + np.arange(1 + graph6_width(n))]
            bits[n] = (pos, screen.graph6_masks(chars, n))
        for i in np.flatnonzero(orders == 0).tolist():
            line = text[starts[i]:ends[i]].decode("ascii")
            built.append((i, parse_graph6_line(corpus.path, first + int(rows[i]), line, cap)))
        return len(rows), bits, built
    _, start, stop = chunk
    n = corpus.n
    if n > screen.MASK_MAX_N:
        built = [(i - start, random_graph(n, corpus.p, mix64(corpus.seed, i)))
                 for i in range(start, stop)]
    elif stop > start:
        masks = [random_edge_mask(n, corpus.p, mix64(corpus.seed, i))
                 for i in range(start, stop)]
        bits[n] = (range(stop - start), np.array(masks, dtype=np.int64))
    return stop - start, bits, built


def _chunk_blocks(chunk: tuple) -> tuple[list[screen.Block], int]:
    """The graphs of a chunk that pass the corpus filters, as one block per
    vertex order and way in, and the chunk's size.  Every filter reads a
    block as arrays, whichever way its graphs came in: connected and
    nonbipartite its adjacency stack, kfree its clique numbers.  A block
    of ``Graph``s that a kfree filter reads counts its cliques once, for
    the filter and the screens alike; a filtered block of masks counts
    k_s(u) only on the graphs it keeps, its subset tables being cheap to
    count again where a pivot walk is not."""
    size, bits, built = _chunk_graphs(chunk)
    vertex, filters = _WORKER["vertex"], _WORKER["filters"]
    blocks = [screen.Block.from_bits(n, masks, pos, vertex and not filters)
              for n, (pos, masks) in bits.items()]
    by_order: dict[int, list[tuple[int, Graph]]] = {}
    for i, g in built:
        by_order.setdefault(g.n, []).append((i, g))
    for items in by_order.values():
        pos, graphs = zip(*items)
        blocks.append(screen.Block(graphs, pos, vertex))
    if not filters:
        return blocks, size
    kept = []
    for b in blocks:
        keep = np.logical_and.reduce([rows(b) == passing for rows, passing in filters])
        if keep.any():
            kept.append(b.take(keep, vertex))
    return kept, size


def _rank_key(rec: dict) -> tuple:
    """Tightness order: slack clamped at zero, then graph6 string, check
    name and parameters."""
    return (max(rec["slack"], 0.0), rec["graph6"], rec["check"],
            tuple(sorted(rec["params"].items())))


def _scan_chunk(chunk: tuple) -> dict:
    config: ScanConfig = _WORKER["config"]
    tols: Tolerances = _WORKER["tols"]
    combos = _WORKER["combos"]
    top_k = config.top_k
    violations: list[dict] = []
    equalities: list[dict] = []
    cands: list[dict] = []
    blocks, size = _chunk_blocks(chunk)
    # the screen decides the evaluations that cannot be reported; the
    # others take the reporting path below, graph by graph in plan order
    take, ood = screen.screen_chunk(blocks, size, combos, _WORKER["screens"], tols, top_k)
    graphs: dict[int, Graph] = {}
    for b in blocks:
        graphs.update(b.reported(take[:, b.pos].any(axis=0)))
    for gi in np.flatnonzero(take.any(axis=0)).tolist():
        g = graphs[gi]
        g6: str | None = None
        for ci in np.flatnonzero(take[:, gi]).tolist():
            name, params = combos[ci]
            for oc in run_check(name, g, params, tols):
                if oc.status == OOD:
                    ood += 1
                    continue
                if oc.status == INCONCLUSIVE:
                    continue
                if oc.status == VIOLATION:
                    if g6 is None:
                        g6 = emit_graph6(g)
                    violations.append(oc.record(g6))
                    continue
                if oc.slack is None:
                    continue
                if g6 is None:
                    g6 = emit_graph6(g)
                rec = oc.record(g6)
                if oc.status == EQUALITY:
                    equalities.append(rec)
                cands.append(rec)
    return {
        "checked": sum(len(b.pos) for b in blocks),
        "ood": ood,
        "violations": violations,
        "equalities": equalities,
        "cands": tightness_rank(cands, top_k),
    }


def _claim_chunks(chunks: list[tuple]) -> list[tuple[int, dict | Exception]]:
    """Scan the chunks claimed, in index order, from the shared counter
    until none is left, as ``(index, partial)``.  A chunk that raises
    ends the claims, its own and everyone's, as ``(index, exception)``.
    A process that stops claiming adds one to the counter, past the last
    index, so that the counter less the chunk count is the number of
    processes that have stopped."""
    counter = _WORKER["counter"]
    done: list[tuple[int, dict | Exception]] = []
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
            if i >= len(chunks):
                return done
        try:
            done.append((i, _scan_chunk(chunks[i])))
        except Exception as exc:  # the scan raises the lowest-indexed one
            with counter.get_lock():
                counter.value = max(counter.value, len(chunks)) + 1
            done.append((i, exc))
            return done


def _pool_context() -> multiprocessing.context.BaseContext:
    """Where a scan's pool and counter come from: fork on Linux while this
    process runs no other thread (a thread may hold a lock that a forked
    child would find taken), else the default start method."""
    if sys.platform == "linux" and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _scan_in_pool(chunks: list[tuple], workers: int, init_args: tuple) -> list[dict]:
    """Each chunk's partial, in chunk order, scanned by this process and
    ``workers`` pool workers that claim chunks from one counter.

    The workers start as :func:`_pool_context` says.  A forked worker
    claims its first chunk a few tens of milliseconds after this process;
    one started by spawn or forkserver first imports numpy and the
    package, and may find every chunk claimed.  The chunk list goes to the
    workers as their task, under every start method: a few bytes objects
    and ints (a ``lines`` chunk is its first line number and its text).
    The pool is left as soon as this process holds every partial it
    needs, so a worker still booting then is terminated instead of waited
    for.  A worker terminated while it sends its reply would leave the
    pool's result lock taken, and terminating the pool would hang; so the
    pool is terminated under the counter's lock, which stops every worker
    before its reply, once the replies of the workers that had stopped
    claiming are in.  Of several failing chunks the lowest-indexed one's
    exception is raised; every lower chunk was claimed before it, so it is
    the error a one-process scan raises."""
    ctx = _pool_context()
    counter = ctx.Value("q", 0)
    _init_scan_worker(*init_args, counter)
    with ctx.Pool(processes=workers, initializer=_init_scan_worker,
                  initargs=(*init_args, counter)) as pool:
        claimed = pool.imap_unordered(_claim_chunks, [chunks] * workers)
        held = dict(_claim_chunks(chunks))
        replies = 0
        while True:
            end = min((i for i, part in held.items() if isinstance(part, Exception)),
                      default=len(chunks))
            if all(i in held for i in range(end)):
                break
            held.update(next(claimed))
            replies += 1
        with counter.get_lock():
            for _ in range(counter.value - len(chunks) - 1 - replies):
                next(claimed)
            pool.terminate()
    if end < len(chunks):
        raise held[end]
    return [held[i] for i in range(len(chunks))]


def tightness_rank(records: list[dict], k: int) -> list[dict]:
    """The k holding evaluations with the smallest slack (clamped at zero);
    ties break on graph6 string, then check name, then parameters."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return sorted((rec for rec in records if rec.get("slack") is not None),
                  key=_rank_key)[:k]


def _spans(orders: np.ndarray) -> list[tuple[int, int]]:
    """``(lo, hi)`` of each chunk of a corpus whose graphs, in corpus
    order, have these orders: a chunk takes graphs while the sum of their
    n^2 stays within ``_CHUNK_ENTRIES`` and the sum of 2^n over those of
    order up to MASK_MAX_N within ``_CHUNK_SUBSETS``, and at least one."""
    subsets = np.where(orders <= MASK_MAX_N, 1 << np.minimum(orders, MASK_MAX_N), 0)
    sums = []
    for w, bound in ((orders * orders, _CHUNK_ENTRIES), (subsets, _CHUNK_SUBSETS)):
        total = np.zeros(len(orders) + 1, dtype=np.int64)
        np.cumsum(w, out=total[1:])
        sums.append((total, bound))
    spans, lo = [], 0
    while lo < len(orders):
        hi = min(int(np.searchsorted(total, total[lo] + bound, side="right")) - 1
                 for total, bound in sums)
        spans.append((lo, max(hi, lo + 1)))
        lo = spans[-1][1]
    return spans


def _fit(n: int) -> int:
    """How many graphs of order n make a chunk, as :func:`_spans` takes
    them from a corpus of that order alone."""
    n = max(n, 0)  # an order the corpus refuses later; any size will do
    per = _CHUNK_ENTRIES // max(n * n, 1)
    if n <= MASK_MAX_N:
        per = min(per, _CHUNK_SUBSETS >> n)
    return max(per, 1)


def _make_chunks(corpus: CorpusSpec) -> list[tuple]:
    """The corpus in chunks, cut by :func:`_spans`; a chunk of graph6
    lines reads each line's order from its header."""
    if corpus.kind == "exhaustive":
        n = corpus.n
        limit = EXHAUSTIVE_OVERRIDE_LIMIT if corpus.allow_n8 else EXHAUSTIVE_LIMIT
        if n is None or not 1 <= n <= limit:
            raise ValueError(f"exhaustive scans limited to 1..{limit} vertices")
        check_order(n)
        total, per = 1 << (n * (n - 1) // 2), _fit(n)
        return [("exhaustive", n, lo, min(lo + per, total)) for lo in range(0, total, per)]
    if corpus.kind == "file":
        text = read_graph6(corpus.path)
        buf = np.frombuffer(text, dtype=np.uint8)
        starts, ends = _line_spans(buf)
        rows = np.flatnonzero(ends > starts)
        chunks = []
        for lo, hi in _spans(_header_orders(buf, starts[rows], ends[rows])):
            head, tail = int(rows[lo]), int(rows[hi - 1])
            chunks.append(("lines", head + 1, text[starts[head]:ends[tail] + 1]))
        return chunks or [("lines", 1, b"")]
    if corpus.kind == "random":
        if corpus.n is None or corpus.p is None or corpus.count is None or corpus.seed is None:
            raise ValueError("random corpus needs n, p, count and seed")
        if corpus.count < 0:
            raise ValueError("random corpus count must be >= 0")
        check_random(corpus.n, corpus.p)
        per = _fit(corpus.n)
        return [("random", lo, min(lo + per, corpus.count))
                for lo in range(0, corpus.count, per)] or [("random", 0, 0)]
    raise ValueError(f"unknown corpus kind {corpus.kind!r}")


def scan(corpus: CorpusSpec, config: ScanConfig, jobs: int = 1) -> ScanResult:
    """Run every configured check on every corpus graph passing the filters.

    ``jobs`` counts the processes that scan, this one included: with more
    than one chunk, this process and ``min(jobs, chunks) - 1`` pool workers
    claim chunks in index order.  Results are identical for any ``jobs``,
    and do not depend on where chunks end (:func:`_spans` cuts them by
    array size, whatever ``jobs`` is): violations and equalities merge in
    corpus order, out-of-domain outcomes are a sum, and the
    tightest-instance ranking is recomputed after the merge.
    """
    for name in config.checks:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}")
    if config.top_k < 1:
        raise ValueError("top_k must be >= 1")
    filters = _filter_predicates(corpus.filters)
    started = time.perf_counter()
    chunks = _make_chunks(corpus)
    if jobs <= 1 or len(chunks) <= 1:
        _init_scan_worker(corpus, config, filters)
        partials = [_scan_chunk(c) for c in chunks]
    else:
        partials = _scan_in_pool(chunks, min(jobs, len(chunks)) - 1,
                                 (corpus, config, filters))
    result = ScanResult()
    cands: list[dict] = []
    for part in partials:
        result.graphs_checked += part["checked"]
        result.out_of_domain += part["ood"]
        result.violations.extend(part["violations"])
        result.equalities.extend(part["equalities"])
        cands.extend(part["cands"])
    result.tightest = tightness_rank(cands, config.top_k)
    result.timing_s = time.perf_counter() - started
    return result
