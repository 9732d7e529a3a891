"""Outside-in layer tracer for one in-process ``scl`` call.

The tracer wraps selected public functions of each package module, in the
namespace of every ``spectral_cliques`` module that holds a reference to
them (``bounds.spectrum``, ``stability.spectrum``, ``scan.clique_counts``,
``cliques.clique_counts``, ...), so calls between layers are seen however
they were imported.  A stack of open spans gives each span its parent, so
self time (a span's duration minus the time its traced children took) is
exact per call.  Totals are kept in memory per (layer, group) and read out
once the call ends.

Modules are taken from ``importlib``: ``spectral_cliques.scan`` as an
attribute is the ``scan`` function that the package ``__init__`` re-exports,
not the module.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

PACKAGE = "spectral_cliques"

#: (module, function) -> (layer, group).  ``run_check`` lives in ``scan``
#: but evaluates one check, bound evaluators included, so it is counted in
#: the bounds layer; ``spectrum`` splits into "lapack" and "jacobi" groups
#: by its solver argument.
TRACED = {
    ("graphs", "graph_from_edge_mask"): ("graphs", "build"),
    ("graphs", "parse_graph6"): ("graphs", "build"),
    ("graphs", "emit_graph6"): ("graphs", "emit"),
    ("spectral", "spectrum"): ("spectral", "lapack"),
    ("spectral", "walk_counts"): ("spectral", "walk"),
    ("cliques", "clique_counts"): ("cliques", "count"),
    ("cliques", "vertex_clique_counts"): ("cliques", "vertex"),
    ("cliques", "moon_moser_check"): ("cliques", "momo"),
    ("scan", "run_check"): ("bounds", "check"),
    ("stability", "stability_premise"): ("stability", "premise"),
    ("stability", "find_stability_witness"): ("stability", "search"),
    ("scan", "scan"): ("scan", "scan"),
    ("cli", "main"): ("cli", "main"),
}


class LayerTracer:
    """Wraps, aggregates and unwraps; one instance per traced call."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], list] = {}  # key -> [calls, total, self]
        self.jacobi_graphs: set = set()
        self.refined = 0
        self.evals = 0
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for (module, fname), (layer, group) in TRACED.items():
            original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), fname)
            wrapper = self._wrap(original, layer, group, fname == "spectrum")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, layer: str, group: str, split_solver: bool):
        tracer = self
        stack = self._stack
        stats = self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = (layer, group)
            if split_solver and kwargs.get(
                    "solver", args[1] if len(args) > 1 else None) == "jacobi":
                key = (layer, "jacobi")
                tracer.jacobi_graphs.add((args[0].n, args[0].adj))
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                agg = stats.get(key)
                if agg is None:
                    agg = stats[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0]
            if group == "check":
                tracer.evals += len(result)
                tracer.refined += sum(getattr(oc.report, "refined", False) for oc in result)
            return result

        return traced

    # -- read-out ------------------------------------------------------

    def calls(self, layer: str, group: str) -> int:
        return self.stats.get((layer, group), [0, 0.0, 0.0])[0]

    def self_s(self, layer: str, group: str | None = None) -> float:
        return sum((agg[2] for (lay, grp), agg in self.stats.items()
                    if lay == layer and (group is None or grp == group)), 0.0)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures as {name: (value, unit)}."""
        s, c = self.self_s, self.calls
        return {
            "graphs.build_s": (s("graphs", "build"), "s"),
            "graphs.build_calls": (c("graphs", "build"), "count"),
            "graphs.emit_s": (s("graphs", "emit"), "s"),
            "spectral.lapack_s": (s("spectral", "lapack"), "s"),
            "spectral.lapack_calls": (c("spectral", "lapack"), "count"),
            "spectral.jacobi_s": (s("spectral", "jacobi"), "s"),
            "spectral.jacobi_calls": (c("spectral", "jacobi"), "count"),
            "spectral.jacobi_graphs": (len(self.jacobi_graphs), "count"),
            "spectral.walk_s": (s("spectral", "walk"), "s"),
            "spectral.walk_calls": (c("spectral", "walk"), "count"),
            "cliques.count_s": (s("cliques", "count"), "s"),
            "cliques.count_calls": (c("cliques", "count"), "count"),
            "cliques.vertex_s": (s("cliques", "vertex"), "s"),
            "cliques.vertex_calls": (c("cliques", "vertex"), "count"),
            "cliques.momo_s": (s("cliques", "momo"), "s"),
            "bounds.self_s": (s("bounds"), "s"),
            "bounds.evals": (self.evals, "count"),
            "bounds.refined": (self.refined, "count"),
            "stability.premise_s": (s("stability", "premise"), "s"),
            "stability.premise_calls": (c("stability", "premise"), "count"),
            "stability.search_s": (s("stability", "search"), "s"),
            "stability.search_calls": (c("stability", "search"), "count"),
            "scan.self_s": (s("scan"), "s"),
            "cli.self_s": (s("cli"), "s"),
        }
