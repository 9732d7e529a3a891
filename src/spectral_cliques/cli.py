"""Command-line surface: gen / check / scan / witness.

Machine-readable JSON goes to stdout, prose to stderr.  Exit codes:
0 success (no violations), 1 theorem violation (the two-eigenvalue
conjecture at r = 2 included) or witness miss (verdict exhaustive-miss),
2 usage or malformed input, 3 I/O failure, 4 conjecture discovery (r >= 3),
5 internal error (any other exception, its traceback on stderr).
Identical invocations produce byte-identical stdout; wall-clock timing is
therefore reported on stderr only.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys

from . import graphs
from .bounds import DEFAULT_TOLS
from .graphs import Graph, Graph6Error, parse_graph6
from .scan import (CHECKS, CorpusSpec, ScanConfig, ScanResult, expand_param_grid,
                   parse_graph6_line, read_graph6, run_check, scan)
from .stability import stability_report

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DISCOVERY = 4
EXIT_INTERNAL = 5

_CHECK_COMMAND_NAMES = tuple(n for n in CHECKS if n != "stability")


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _note(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _parse_int_values(text: str) -> list[int]:
    """Accept "2..4", "2,3,5" or "3"."""
    text = text.strip()
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_str_values(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="scl",
        description="spectral/clique inequality toolkit for small graphs")
    top.add_argument("--tol", type=float, default=1.0,
                     help="scale every tolerance epsilon by this factor")
    top.add_argument("--jobs", type=int, default=1,
                     help="processes that scan, this one included (at least 1)")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write generated graphs as graph6 lines")
    gen.add_argument("kind", choices=["turan", "multipartite", "random", "named"])
    gen.add_argument("--r", type=int, help="part count for turan")
    gen.add_argument("--n", type=int, help="order (turan, random)")
    gen.add_argument("--parts", help="comma list of class sizes (multipartite)")
    gen.add_argument("--isolated", type=int, default=0)
    gen.add_argument("--p", type=float, help="edge probability (random)")
    gen.add_argument("--count", type=int, default=1, help="graphs to emit (random)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--name", help="named graph, e.g. k5, c5, p4, star3, e4, petersen")
    gen.add_argument("--out", required=True, help="output graph6 file")

    chk = sub.add_parser("check", help="evaluate checks on given graphs")
    src = chk.add_mutually_exclusive_group(required=True)
    src.add_argument("--g6", help="inline graph6 string")
    src.add_argument("--file", help="graph6 file, one graph per line")
    chk.add_argument("--theorem", "--check", dest="checks", action="append",
                     required=True, choices=sorted(_CHECK_COMMAND_NAMES),
                     help="check name (repeatable)")
    _grid_flags(chk)

    scn = sub.add_parser("scan", help="run checks across a corpus")
    corpus = scn.add_mutually_exclusive_group(required=True)
    corpus.add_argument("--exhaustive-n", type=int,
                        help="all labeled graphs of this order")
    corpus.add_argument("--file", help="graph6 corpus file")
    corpus.add_argument("--random-n", type=int, help="random corpus order")
    scn.add_argument("--random-p", type=float, default=0.5)
    scn.add_argument("--random-count", type=int, default=100)
    scn.add_argument("--random-seed", type=int, default=0)
    scn.add_argument("--check", dest="checks", action="append", required=True,
                     choices=sorted(CHECKS), help="check name (repeatable)")
    _grid_flags(scn)
    scn.add_argument("--filter", dest="filters", action="append", default=[],
                     help="connected | nonbipartite | kfree | kfree:R (repeatable)")
    scn.add_argument("--top-k", type=int, default=10)
    scn.add_argument("--allow-n8", action="store_true",
                     help="raise the exhaustive limit to n = 8")
    scn.add_argument("--out", help="also write the result JSON here")
    scn.add_argument("--csv", help="also write reported instances as CSV")
    scn.add_argument("--artifact-dir", default=".",
                     help="where reproducer/discovery files go")

    wit = sub.add_parser("witness", help="stability premise and witness search (exact up to "
                                         "the default vertex cap, whole graph only above)")
    wsrc = wit.add_mutually_exclusive_group(required=True)
    wsrc.add_argument("--g6", help="inline graph6 string")
    wsrc.add_argument("--file", help="graph6 file")
    wit.add_argument("--r", type=int, required=True)
    wit.add_argument("--alpha", required=True, help="decimal alpha, e.g. 0.0000013")
    return top


def _grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--r", help="r grid: '2..4' or '2,3'")
    parser.add_argument("--s", help="s grid")
    parser.add_argument("--l", help="walk length grid")
    parser.add_argument("--alpha", help="comma list of decimal alphas")


def _grid_from_args(args) -> dict:
    grid = {}
    if args.r:
        grid["r"] = _parse_int_values(args.r)
    if args.s:
        grid["s"] = _parse_int_values(args.s)
    if args.l:
        grid["l"] = _parse_int_values(args.l)
    if args.alpha:
        grid["alpha"] = _parse_str_values(args.alpha)
    return grid


def _config_from_args(args) -> ScanConfig:
    grid = _grid_from_args(args)
    checks = {}
    for name in args.checks:
        checks[name] = {axis: grid[axis] for axis in CHECKS[name].axes if axis in grid}
    return ScanConfig(checks=checks,
                      top_k=getattr(args, "top_k", 10),
                      tol_scale=args.tol)


def _input_graphs(args) -> list[tuple[str, Graph]]:
    if args.g6 is not None:
        return [(args.g6.strip(), parse_graph6(args.g6))]
    lines = read_graph6(args.file).decode("ascii").split("\n")
    return [(line, parse_graph6_line(args.file, lineno, line))
            for lineno, line in enumerate(lines, 1) if line]


_NAMED_PATTERN = re.compile(r"(k|c|p|e|star)(\d+)")


def _named_graph(name: str) -> Graph:
    if name == "petersen":
        return graphs.petersen_graph()
    m = _NAMED_PATTERN.fullmatch(name)
    if not m:
        raise ValueError(f"unknown named graph {name!r}")
    kind, size = m.group(1), int(m.group(2))
    if kind == "k":
        return graphs.complete_graph(size)
    if kind == "c":
        return graphs.cycle_graph(size)
    if kind == "p":
        return graphs.path_graph(size)
    if kind == "e":
        return graphs.empty_graph(size)
    return graphs.star_graph(size)


def _cmd_gen(args) -> int:
    out: list[Graph] = []
    if args.kind == "turan":
        if args.r is None or args.n is None:
            raise ValueError("gen turan needs --r and --n")
        out.append(graphs.turan_graph(args.r, args.n))
    elif args.kind == "multipartite":
        if not args.parts and not args.isolated:
            raise ValueError("gen multipartite needs --parts and/or --isolated")
        parts = [int(x) for x in _parse_str_values(args.parts or "")]
        out.append(graphs.complete_multipartite(parts, args.isolated))
    elif args.kind == "random":
        if args.n is None or args.p is None:
            raise ValueError("gen random needs --n and --p")
        if args.count < 1:
            raise ValueError("--count must be >= 1")
        for i in range(args.count):
            out.append(graphs.random_graph(args.n, args.p, graphs.mix64(args.seed, i)))
    else:
        if not args.name:
            raise ValueError("gen named needs --name")
        out.append(_named_graph(args.name))
    with open(args.out, "w", encoding="ascii") as fh:
        for g in out:
            fh.write(graphs.emit_graph6(g) + "\n")
    _emit({"kind": args.kind, "count": len(out), "out": args.out})
    _note(f"wrote {len(out)} graph(s) to {args.out}")
    return EXIT_OK


def _exit_code(violations: list[dict]) -> int:
    """Exit 1 if any violation fails a hard claim, else 4 if there are
    discoveries, else 0."""
    if any(not CHECKS[v["check"]].discovery(v["params"]) for v in violations):
        return EXIT_VIOLATION
    return EXIT_DISCOVERY if violations else EXIT_OK


def _cmd_check(args) -> int:
    config = _config_from_args(args)
    entries = []
    for g6, g in _input_graphs(args):
        for name, grid in config.checks.items():
            for params in expand_param_grid(name, grid):
                for oc in run_check(name, g, params, args.tols):
                    entry = oc.record(g6)
                    entry["status"] = oc.status
                    if oc.report is not None and hasattr(oc.report, "to_dict"):
                        entry["detail"] = oc.report.to_dict()
                    entries.append(entry)
    violations = [e for e in entries if e["status"] == "violation"]
    _emit(entries)
    _note(f"{len(entries)} evaluation(s); violations: {len(violations)}")
    return _exit_code(violations)


def _least_r(args) -> int:
    """The r of a bare ``--filter kfree``: the least of the --r grid, else
    of the checks' default r grids."""
    grid = _grid_from_args(args)
    if "r" in grid:
        rs = grid["r"]
    else:
        rs = [r for name in args.checks for r in CHECKS[name].defaults.get("r", ())]
    if not rs:
        raise ValueError("--filter kfree needs an --r grid (or kfree:R)")
    return min(rs)


def _corpus_from_args(args) -> CorpusSpec:
    filters_t = tuple(f"kfree:{_least_r(args)}" if f == "kfree" else f
                      for f in args.filters)
    if args.exhaustive_n is not None:
        return CorpusSpec(kind="exhaustive", n=args.exhaustive_n,
                          filters=filters_t, allow_n8=args.allow_n8)
    if args.file is not None:
        return CorpusSpec(kind="file", path=args.file, filters=filters_t)
    return CorpusSpec(kind="random", n=args.random_n, p=args.random_p,
                      count=args.random_count, seed=args.random_seed,
                      filters=filters_t)


def _write_csv(path: str, result: ScanResult) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "graph6", "check", "params", "lhs", "rhs", "slack"])
        for kind, records in (("violation", result.violations),
                              ("equality", result.equalities),
                              ("tightest", result.tightest)):
            for rec in records:
                writer.writerow([kind, rec["graph6"], rec["check"],
                                 json.dumps(rec["params"], sort_keys=True),
                                 rec["lhs"], rec["rhs"], rec["slack"]])


def _persist_artifacts(args, result: ScanResult) -> list[str]:
    paths = []
    os.makedirs(args.artifact_dir, exist_ok=True)
    theorem = result.theorem_violations()
    if theorem:
        path = os.path.join(args.artifact_dir, "violation_reproducer.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"violations": theorem}, fh, sort_keys=True, indent=2)
        paths.append(path)
    for i, rec in enumerate(result.conjecture_violations()):
        path = os.path.join(args.artifact_dir, f"discovery_{rec['check']}_{i:04d}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(rec, fh, sort_keys=True, indent=2)
        paths.append(path)
    return paths


def _cmd_scan(args) -> int:
    corpus = _corpus_from_args(args)
    config = _config_from_args(args)
    result = scan(corpus, config, jobs=args.jobs)
    _emit(result.to_json_dict(deterministic_timing=True))
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(result.to_json_dict(), fh, sort_keys=True, indent=2)
    if args.csv:
        _write_csv(args.csv, result)
    _note(f"scanned {result.graphs_checked} graph(s) in {result.timing_s:.2f}s; "
          f"{len(result.violations)} violation(s), "
          f"{len(result.equalities)} equality case(s), "
          f"{result.out_of_domain} out-of-domain evaluation(s)")
    if result.violations:
        for path in _persist_artifacts(args, result):
            _note(f"artifact written: {path}")
    return _exit_code(result.violations)


def _cmd_witness(args) -> int:
    reports = []
    missed = False
    for _, g in _input_graphs(args):
        rep = stability_report(g, args.r, args.alpha, args.tols)
        reports.append(rep.to_dict())
        if rep.verdict == "exhaustive-miss":
            missed = True
    _emit(reports[0] if args.g6 is not None else reports)
    verdicts = ", ".join(r["verdict"] for r in reports)
    _note(f"witness verdict(s): {verdicts}")
    return EXIT_VIOLATION if missed else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--tol" in argv[:-1]:  # argparse reads a value such as -inf or -1e3 as an option
        i = argv.index("--tol")
        argv[i:i + 2] = [f"--tol={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # both options are refused on every command, before it runs
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        args.tols = DEFAULT_TOLS.scaled(args.tol)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "scan":
            return _cmd_scan(args)
        return _cmd_witness(args)
    except (Graph6Error, ValueError) as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE
    except OSError as exc:
        _emit({"error": str(exc)})
        _note(f"i/o error: {exc}")
        return EXIT_IO
    except Exception as exc:  # a bug, not a verdict: exit 1 would claim one
        import traceback  # only here: an import adds to every call's start-up
        traceback.print_exc()
        _note(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
