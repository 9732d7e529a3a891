"""The benchmark's layer tracer (perfbench/tracer.py) wraps package
functions by module and name, and counts the reports marked ``refined``;
these tests keep the package to that contract."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from spectral_cliques import complete_graph, spectral, wilf_bound

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracer = _tracer_module()
    for module, fname in tracer.TRACED:
        fn = getattr(importlib.import_module(f"{tracer.PACKAGE}.{module}"), fname, None)
        assert callable(fn), f"{module}.{fname}"


def test_refinement_reaches_spectrum_as_jacobi():
    tracer = _tracer_module().LayerTracer()
    k3 = complete_graph(3)
    tracer.install()
    try:
        rep = wilf_bound(k3)
    finally:
        tracer.uninstall()
    # the tracer's bounds.refined layer reads the report's ``refined`` field;
    # certification counts eigenvalues exactly and calls no second solver
    assert rep.refined
    assert tracer.calls("spectral", "jacobi") == 0
    assert tracer.jacobi_graphs == set()


def test_priming_reaches_the_traced_spectrum(monkeypatch):
    tracer = _tracer_module().LayerTracer()
    k4 = complete_graph(4)
    tracer.install()
    try:
        spectral.prime_rows([k4], spectral.stacked_eigenvalues(spectral.adjacency_stack([k4])))
        monkeypatch.setattr(spectral, "stacked_eigenvalues", None)  # no second solve
        assert spectral.spectrum(k4).mu == pytest.approx(3.0)
    finally:
        tracer.uninstall()
    assert tracer.calls("spectral", "lapack") == 1
