"""Exact certification of near-threshold spectral verdicts: eigenvalue
counts by inertia against independent oracles, brackets, and the verdicts
certified from them."""

import json
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_cliques import (complete_graph, conjecture_check, emit_graph6,
                              graph_from_edge_mask, random_graph, run_check,
                              spectral, spectrum, turan_graph, wilf_bound)
from spectral_cliques.bounds import CERTIFY_HALVINGS, CERTIFY_MAX_N, Tolerances
from spectral_cliques.cli import main
from spectral_cliques.spectral import Spectrum, eigenvalue_bracket, eigenvalues_above

from oracles import dense_adjacency


def graphs_upto(n_max):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.builds(graph_from_edge_mask, st.just(n), st.integers(
            min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1)))


def shifts(bound):
    """Non-integer rationals in (-bound, bound), dyadic or not."""
    return st.builds(Fraction, st.integers(min_value=-64 * bound, max_value=64 * bound),
                     st.integers(min_value=2, max_value=64)).filter(
        lambda a: a.denominator != 1)


def sympy_count_above(g, shift):
    """Eigenvalues above the shift, with multiplicity: Sturm counts on each
    square-free factor of the characteristic polynomial."""
    x = sympy.symbols("x")
    a = sympy.Matrix(g.n, g.n, lambda i, j: int(g.has_edge(i, j)))
    _, factors = sympy.sqf_list(a.charpoly(x).as_expr(), x)
    return sum(mult * sympy.Poly(f, x).count_roots(inf=sympy.Rational(shift.numerator,
                                                                      shift.denominator))
               for f, mult in factors)


class TestEigenvaluesAbove:
    @given(graphs_upto(8), shifts(8))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_sympy(self, g, shift):
        assert eigenvalues_above(g, shift) == sympy_count_above(g, shift)

    @given(st.integers(min_value=1, max_value=12), st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=2**32), shifts(12))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_eigvalsh_away_from_eigenvalues(self, n, p, seed, shift):
        g = random_graph(n, p, seed)
        vals = np.linalg.eigvalsh(dense_adjacency(g))
        assume(np.min(np.abs(vals - float(shift))) > 1e-6)
        assert eigenvalues_above(g, shift) == int(np.sum(vals > float(shift)))

    def test_both_signs_on_k4(self):
        # K4: 3 once and -1 three times
        k4 = complete_graph(4)
        assert [eigenvalues_above(k4, Fraction(a, 2)) for a in (-3, -1, 1, 5, 7)] == [
            4, 1, 1, 1, 0]

    def test_integer_shift_refused(self):
        with pytest.raises(ValueError):
            eigenvalues_above(complete_graph(3), Fraction(2))


class TestBracket:
    @given(graphs_upto(8), st.sampled_from([1, 2]), st.integers(min_value=0, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_holds_the_eigenvalue(self, g, rank, halvings):
        assume(rank <= g.n)
        lo, hi = eigenvalue_bracket(g, rank, halvings)
        assert lo.denominator != 1 and hi.denominator != 1
        assert hi - lo <= Fraction(1, 1 << 29) * Fraction(3, 4) ** halvings
        assert eigenvalues_above(g, lo) >= rank > eigenvalues_above(g, hi)

    def test_halvings_nest(self):
        g = random_graph(9, 0.5, 3)
        outer = eigenvalue_bracket(g, 1, 0)
        for halvings in range(1, 20):
            inner = eigenvalue_bracket(g, 1, halvings)
            assert outer[0] <= inner[0] < inner[1] <= outer[1]
            outer = inner

    def test_refuted_lapack_value_gives_none(self):
        k3 = complete_graph(3)
        spectral.spectrum.prime(k3, Spectrum((2.5, -1.0, -1.5)))
        assert eigenvalue_bracket(k3, 1, 0) is None
        rep = wilf_bound(k3)
        assert rep.refined and rep.holds is None and rep.equality is None


class TestCertifiedVerdicts:
    def test_zero_tolerance_on_an_integer_radius_is_inconclusive(self, k3):
        # mu = 2 exactly, so every slack interval straddles 0
        rep = wilf_bound(k3, Tolerances(0.0, 0.0))
        assert rep.refined
        assert (rep.holds, rep.equality) == (None, None)
        [oc] = run_check("wilf", k3, {}, Tolerances(0.0, 0.0))
        assert oc.status == "inconclusive"

    def test_forced_straddle_exits_zero(self, capsys):
        code = main(["--tol", "0", "check", "--g6", emit_graph6(complete_graph(3)),
                     "--check", "wilf"])
        [entry] = json.loads(capsys.readouterr().out)
        assert code == 0
        assert entry["status"] == "inconclusive"
        assert entry["detail"]["holds"] is None

    def test_halving_decides_a_tight_threshold(self):
        # hold * scale = 2e-10 lies inside the first bracket's slack interval
        k3 = complete_graph(3)
        rep = wilf_bound(k3, Tolerances(1e-10, 1e-10))
        assert (rep.holds, rep.equality) == (True, True)
        assert ("eigenvalue_bracket", 1, 1) in k3.memo
        assert ("eigenvalue_bracket", 1, CERTIFY_HALVINGS) not in k3.memo

    def test_k33_equality_with_mu2_bracket_holding_zero(self):
        k33 = turan_graph(2, 6)
        rep = conjecture_check(k33, 2)
        assert rep.refined and rep.holds and rep.equality
        lo, hi = eigenvalue_bracket(k33, 2, 0)
        assert lo < 0 < hi

    def test_turan_hosts_certify_as_equalities(self):
        for r in (2, 3):
            for n in range(2 * r, 16, r):
                rep = conjecture_check(turan_graph(r, n), r)
                assert rep.refined and rep.holds and rep.equality

    def test_above_the_order_cap_inconclusive_without_counting(self, monkeypatch):
        monkeypatch.setenv("SCL_MAX_N", str(CERTIFY_MAX_N + 1))

        def refuse(g, shift):
            raise AssertionError("counted above the certification cap")

        monkeypatch.setattr(spectral, "eigenvalues_above", refuse)
        host = complete_graph(CERTIFY_MAX_N + 1)
        rep = wilf_bound(host)
        assert rep.refined
        assert (rep.holds, rep.equality) == (None, None)

    def test_refined_reports_keep_the_lapack_figures(self):
        t36 = turan_graph(3, 6)
        rep = conjecture_check(t36, 3)
        mu, mu2 = spectrum(t36).eigenvalues[:2]
        assert rep.refined
        assert rep.lhs == mu ** 2 + mu2 ** 2
        assert rep.rhs == (3 - 1) / 3 * 2.0 * t36.m
