"""Exact certification of near-threshold spectral verdicts: characteristic
polynomials and the eigenvalue counts read on them against independent
oracles, where the polynomials are computed, brackets, and the verdicts
certified from them."""

import importlib
import json
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_cliques import (bounds, clique_counts, complete_graph, complete_multipartite,
                              conjecture_check, cycle_graph, emit_graph6, graph_from_edge_mask,
                              path_graph, random_graph, run_check, screen, spectral, spectrum,
                              turan_edge_bound, turan_graph, wilf_bound)
from spectral_cliques.bounds import (CERTIFY_HALVINGS, CERTIFY_MAX_N, DEFAULT_TOLS,
                                     SCREEN_MARGIN, GraphView, Ratio, Tolerances)
from spectral_cliques.cli import main
from spectral_cliques.scan import CorpusSpec, ScanConfig, scan
from spectral_cliques.spectral import (BRACKET_BITS, PRIMES, Spectrum, adjacency_stack,
                                      char_poly, char_polys, eigenvalue_bracket,
                                      eigenvalues_above)

from oracles import bareiss_count_above, dense_adjacency


def graphs_upto(n_max):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.builds(graph_from_edge_mask, st.just(n), st.integers(
            min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1)))


def shifts(bound):
    """Non-integer rationals in (-bound, bound), dyadic or not."""
    return st.builds(Fraction, st.integers(min_value=-64 * bound, max_value=64 * bound),
                     st.integers(min_value=2, max_value=64)).filter(
        lambda a: a.denominator != 1)


def count_above(g, shift):
    return eigenvalues_above(g, shift.numerator, shift.denominator)


def bracket(g, rank, halvings):
    """eigenvalue_bracket's ends as Fractions, or None."""
    b = eigenvalue_bracket(g, rank, halvings)
    return None if b is None else (Fraction(b[0], b[2]), Fraction(b[1], b[2]))


def sympy_char_poly(g):
    x = sympy.symbols("x")
    a = sympy.Matrix(g.n, g.n, lambda i, j: int(g.has_edge(i, j)))
    return tuple(int(c) for c in a.charpoly(x).all_coeffs())


class TestCharPoly:
    @given(graphs_upto(12))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_sympy(self, g):
        assert char_poly(g) == sympy_char_poly(g)

    @pytest.mark.parametrize("g", [turan_graph(2, 64), turan_graph(8, 64),
                                   random_graph(64, 0.5, 7)],
                             ids=["K32,32", "T(8,64)", "G(64,1/2)"])
    def test_agrees_with_sympy_where_several_primes_are_joined(self, g):
        assert len(spectral._moduli(g.n)) > 1
        assert char_poly(g) == sympy_char_poly(g)

    @given(graphs_upto(12))
    @settings(max_examples=60, deadline=None)
    def test_low_coefficients_count_edges_and_triangles(self, g):
        c = char_poly(g) + (0, 0, 0)  # c_k = 0 past the order
        assert c[:4] == (1, 0, -g.m, -2 * clique_counts(g).count(3))

    def test_a_stack_is_its_graphs(self):
        graphs = [random_graph(11, p, i) for i, p in enumerate((0.1, 0.5, 0.9) * 3)]
        assert char_polys(adjacency_stack(graphs)) == [sympy_char_poly(g) for g in graphs]
        assert char_polys(np.zeros((0, 5, 5), dtype=np.uint8)) == []

    def test_known_polynomials(self):
        # K4: (x - 3)(x + 1)^3; C5: x^5 - 5x^3 + 5x - 2
        assert char_poly(complete_graph(4)) == (1, 0, -6, -8, -3)
        assert char_poly(cycle_graph(5)) == (1, 0, -5, 0, 5, -2)

    def test_primes(self):
        assert len(PRIMES) == len(set(PRIMES))
        assert all(sympy.isprime(p) and CERTIFY_MAX_N < p < 1 << 31 for p in PRIMES)
        assert list(PRIMES) == sorted(PRIMES, reverse=True)
        assert spectral._moduli(CERTIFY_MAX_N) == PRIMES
        with pytest.raises(ValueError):
            spectral._moduli(2 * CERTIFY_MAX_N)


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
        assert count_above(g, shift) == sympy_count_above(g, shift)

    @given(st.integers(min_value=1, max_value=12), st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=2**32), shifts(12))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_eigvalsh_away_from_eigenvalues(self, n, p, seed, shift):
        g = random_graph(n, p, seed)
        vals = np.linalg.eigvalsh(dense_adjacency(g))
        assume(np.min(np.abs(vals - float(shift))) > 1e-6)
        assert count_above(g, shift) == int(np.sum(vals > float(shift)))

    @given(st.integers(min_value=1, max_value=64), st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=40),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_bareiss_at_dyadic_shifts(self, n, p, seed, bits, data):
        g = random_graph(n, p, seed)
        q = 1 << bits
        odd = data.draw(st.integers(min_value=-n * q // 2, max_value=n * q // 2)) * 2 + 1
        assert eigenvalues_above(g, odd, q) == bareiss_count_above(g, odd, q)

    @pytest.mark.parametrize("g", [turan_graph(4, 64), random_graph(64, 0.5, 7)],
                             ids=["T(4,64)", "G(64,1/2)"])
    def test_agrees_with_bareiss_next_to_eigenvalues_at_order_64(self, g):
        """The ends of a first bracket, 2^-31 and 3 * 2^-31 off the LAPACK
        value, of the largest, a middle and the least eigenvalue."""
        q = 1 << (BRACKET_BITS + 1)
        vals = spectrum(g).eigenvalues
        for value in (vals[0], vals[g.n // 2], vals[-1]):
            j = math.floor(value * (1 << BRACKET_BITS))
            for p in (2 * j - 1, 2 * j + 3):
                assert eigenvalues_above(g, p, q) == bareiss_count_above(g, p, q)

    def test_both_signs_on_k4(self):
        # K4: 3 once and -1 three times
        k4 = complete_graph(4)
        assert [count_above(k4, Fraction(a, 2)) for a in (-3, -1, 1, 5, 7)] == [
            4, 1, 1, 1, 0]

    def test_integer_shift_refused(self):
        with pytest.raises(ValueError):
            count_above(complete_graph(3), Fraction(2))
        with pytest.raises(ValueError):  # 4/2 is the integer 2 too
            eigenvalues_above(complete_graph(3), 4, 2)


class TestBracket:
    @given(graphs_upto(8), st.sampled_from([1, 2]), st.integers(min_value=0, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_holds_the_eigenvalue(self, g, rank, halvings):
        assume(rank <= g.n)
        lo, hi = bracket(g, rank, halvings)
        assert eigenvalue_bracket(g, rank, halvings)[2] == 1 << (BRACKET_BITS + 1 + 2 * halvings)
        assert lo.denominator != 1 and hi.denominator != 1
        assert hi - lo <= Fraction(1, 1 << 29) * Fraction(3, 4) ** halvings
        assert count_above(g, lo) >= rank > count_above(g, hi)

    def test_halvings_nest(self):
        g = random_graph(9, 0.5, 3)
        outer = bracket(g, 1, 0)
        for halvings in range(1, 20):
            inner = bracket(g, 1, halvings)
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
        lo, hi = bracket(k33, 2, 0)
        assert lo < 0 < hi

    def test_turan_hosts_certify_as_equalities(self):
        for r in (2, 3):
            for n in range(2 * r, 16, r):
                rep = conjecture_check(turan_graph(r, n), r)
                assert rep.refined and rep.holds and rep.equality

    def test_above_the_order_cap_inconclusive_without_counting(self, monkeypatch):
        monkeypatch.setenv("SCL_MAX_N", str(CERTIFY_MAX_N + 1))

        def refuse(g, p, q):
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


class TestEqualityEdge:
    """A conclusion's spectral slack within SCREEN_MARGIN * scale of the
    equality band's upper edge is certified too: at tolerance 0 that edge
    is 0, where a float cannot tell a tie from a near miss."""

    def test_a_tie_a_few_ulps_above_zero_is_not_a_strict_holds(self, capsys):
        # T(4, 12): mu = 9 = (1 - 1/4) 12 exactly; LAPACK's slack is +1.8e-15
        assert main(["--tol", "0", "check", "--g6", "KFzf~z{~~~^{", "--check", "wilf"]) == 0
        [entry] = json.loads(capsys.readouterr().out)
        assert 0 < entry["slack"] <= SCREEN_MARGIN * entry["detail"]["scale"]
        assert entry["status"] == "inconclusive"
        assert entry["detail"]["refined"]

    def test_no_float_decided_tie_on_the_order_six_plan(self, monkeypatch):
        """The n = 6 plan at tolerance 0: no evaluation is a ``holds`` decided
        on floats with |slack| <= 1e-9 * scale."""
        scan_module = importlib.import_module("spectral_cliques.scan")
        outcomes = []
        run = scan_module.run_check

        def spy(*args):
            got = run(*args)
            outcomes.extend(got)
            return got

        monkeypatch.setattr(scan_module, "run_check", spy)
        checks = {"wilf": {}, "polyn": {}, "maxmu": {"s": [2]}, "theorem1": {"r": [2, 3]},
                  "conjecture": {"r": [2, 3]}}
        scan(CorpusSpec(kind="exhaustive", n=6), ScanConfig(checks=checks, tol_scale=0.0))
        near = [oc for oc in outcomes if oc.report is not None and oc.slack is not None
                and abs(oc.slack) <= 1e-9 * oc.report.scale]
        assert near
        assert not [oc for oc in near if oc.status == "holds" and not oc.report.refined]


def _spy_char_polys(monkeypatch, module):
    """The stack sizes of every char_polys call made through ``module``."""
    calls = []
    real = module.char_polys

    def spy(adj):
        calls.append(len(adj))
        return real(adj)

    monkeypatch.setattr(module, "char_polys", spy)
    return calls


class TestWhereCharPolysAreComputed:
    def test_once_per_graph_across_ranks_and_halvings(self, monkeypatch):
        calls = _spy_char_polys(monkeypatch, spectral)
        g = turan_graph(4, 64)
        zero = Tolerances(0.0, 0.0)
        for rep in (wilf_bound(g, zero), conjecture_check(g, 4, zero)):
            assert rep.refined and (rep.holds, rep.equality) == (None, None)
        assert all(("eigenvalue_bracket", rank, CERTIFY_HALVINGS) in g.memo for rank in (1, 2))
        assert calls == [1]

    def test_a_block_of_masks_primes_its_solved_reported_graphs(self, monkeypatch):
        n = 6
        masks = np.arange(0, 1 << 15, 97, dtype=np.int64)
        b = screen.Block.from_bits(n, masks, range(len(masks)), False)
        solved = np.arange(len(masks)) % 3 != 0
        b.eigenvalues(solved)
        rows = np.arange(len(masks)) % 2 == 0
        primed = _spy_char_polys(monkeypatch, screen)
        reported = [g for _, g in b.reported(rows)]
        assert primed == [int((rows & solved).sum())]
        own = _spy_char_polys(monkeypatch, spectral)
        for g, s in zip(reported, solved[rows].tolist()):
            assert (("char_poly",) in g.memo) == s
            if s:
                assert char_poly(g) == sympy_char_poly(g)
                eigenvalue_bracket(g, 1, 4)
        assert own == []

    def test_graphs_of_a_graph_block_get_one_only_when_certified(self, monkeypatch):
        graphs = [turan_graph(2, 12), path_graph(12), complete_multipartite([3, 4, 5]),
                  random_graph(12, 0.5, 3)]
        b = screen.Block(graphs, range(len(graphs)), False)
        every = np.ones(len(graphs), dtype=bool)
        b.eigenvalues(every)
        calls = _spy_char_polys(monkeypatch, spectral)
        reported = [g for _, g in b.reported(every)]
        assert not any(("char_poly",) in g.memo for g in reported)
        refined = [wilf_bound(g).refined for g in reported]
        assert any(refined) and not all(refined)
        assert [("char_poly",) in g.memo for g in reported] == refined
        assert calls == [1] * sum(refined)


class TestPremiseBand:
    """A spectral premise is certified only where its float slack lies
    within (hold + SCREEN_MARGIN) * scale of its cut, the band the screen
    sends on; one failing by more is out of domain on its floats, at any
    order."""

    def test_far_failure_brackets_no_eigenvalue(self, monkeypatch):
        calls = []

        def spy(g, rank, halvings):
            calls.append((rank, halvings))
            return eigenvalue_bracket(g, rank, halvings)

        monkeypatch.setattr(bounds, "eigenvalue_bracket", spy)
        rep = bounds.edge_corollary_check(cycle_graph(64), 2, 0)
        assert not rep.in_domain
        assert calls == []

    def test_far_failure_above_the_certification_cap_is_ood(self, monkeypatch):
        monkeypatch.setenv("SCL_MAX_N", "80")
        c80 = cycle_graph(80)
        assert c80.n > CERTIFY_MAX_N
        rep = bounds.edge_corollary_check(c80, 2, 0)
        assert (rep.in_domain, rep.holds) == (False, True)
        [oc] = run_check("edge_corollary", c80, {"r": 2, "alpha": 0})
        assert oc.status == "ood"

    def test_premise_near_the_equality_edge_is_decided_on_floats(self, monkeypatch):
        """A slack within SCREEN_MARGIN * scale of equality * scale is
        certified in a conclusion, but a premise's holds clear of the
        screen's band at default tolerances, and the reporting path decides
        it on its floats, as the screen does."""
        # rhs - lhs = mu / 10^6, equality * scale to 1e-12 of scale
        near = bounds.Formula("near", lambda x, mu: (mu, mu + bounds._ratio(1, 10 ** 6, mu) * mu))
        g = turan_graph(4, 12)
        rep = bounds.evaluate(near, g, {})
        assert abs(rep.slack - DEFAULT_TOLS.equality * rep.scale) <= SCREEN_MARGIN * rep.scale
        assert rep.refined
        b = screen.Block([g], [0], False)
        holds, fails = screen._premise_clear(near, b, {}, DEFAULT_TOLS, np.ones(1, dtype=bool))
        assert (holds.tolist(), fails.tolist()) == ([True], [False])
        calls = []
        monkeypatch.setattr(bounds, "eigenvalue_bracket", lambda *args: calls.append(args))
        assert bounds.premise_holds(near, g, {}) is True
        assert calls == []

    def test_premise_on_the_cut_still_inconclusive_at_tolerance_zero(self, capsys):
        assert main(["--tol", "0", "witness", "--g6", "KFzf~z{~~~^{", "--r", "4",
                     "--alpha", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "premise-inconclusive"


# ---------------------------------------------------------------------------
# the int arithmetic of certification against a Fraction reference

#: every one-slack formula that reads an eigenvalue, with its params
CASES = ([(bounds.WILF, {}), (bounds.POLYN, {})]
         + [(bounds.MAXMU, {"s": s}) for s in range(1, 5)]
         + [(bounds.THEOREM1, {"r": r}) for r in range(2, 5)]
         + [(bounds.THEOREM2, {"r": r}) for r in (2, 3)]
         + [(bounds.CONJECTURE, {"r": r}) for r in (2, 3)])


def fraction_ratio(a, b, like):
    """``bounds._ratio`` in Fraction arithmetic."""
    return Fraction(a, b) if isinstance(like, (int, Fraction)) else a / b


def fraction_sides(build, *args):
    """``build`` on Fraction arguments, its exact constants Fractions too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "_ratio", fraction_ratio)
        return build(*args)


def reference_slack_range(build, brackets):
    """Least and greatest slack over the brackets, all in Fraction."""
    (lo, hi), *rest = [(Fraction(lo, q), Fraction(hi, q)) for lo, hi, q in brackets]
    least = [max(lo, Fraction(0))]
    most = [hi]
    for lo, hi in rest:
        near, far = sorted((lo, hi), key=abs)
        least.append(Fraction(0) if lo < 0 < hi else near)
        most.append(far)
    lhs_least, rhs_least = fraction_sides(build, *least)
    lhs_most, rhs_most = fraction_sides(build, *most)
    return rhs_least - lhs_most, rhs_most - lhs_least


def reference_certify(g, build, ranks, tols, scale):
    """(holds, equality) from the same brackets, thresholds and slacks in
    Fraction."""
    hold = Fraction(tols.hold) * Fraction(scale)
    band = Fraction(tols.equality) * Fraction(scale)
    for halvings in range(CERTIFY_HALVINGS + 1):
        brackets = [eigenvalue_bracket(g, rank, halvings) for rank in range(1, ranks + 1)]
        if None in brackets:
            return None, None
        lo, hi = reference_slack_range(build, brackets)
        holds = True if lo >= -hold else False if hi < -hold else None
        if hi < -band or lo > band:
            equality = False
        elif -band <= lo and hi <= band:
            equality = True
        else:
            equality = None
        if holds is not None and equality is not None:
            break
    return holds, equality


def as_fraction(x):
    return Fraction(x.num, x.den) if isinstance(x, Ratio) else Fraction(x)


def lapack_scale(g, build, ranks):
    lhs, rhs = build(*spectrum(g).eigenvalues[:ranks])
    return max(1.0, abs(lhs), abs(rhs))


class TestAgainstFractionReference:
    @given(graphs_upto(8), st.sampled_from(CASES), st.integers(min_value=0, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_slack_range(self, g, case, halvings):
        f, params = case
        assume(g.n >= f.ranks)
        build = partial(f.sides, GraphView(g), **params)
        brackets = [eigenvalue_bracket(g, rank, halvings) for rank in range(1, f.ranks + 1)]
        assume(None not in brackets)
        lo, hi = bounds._slack_range(build, brackets)
        assert isinstance(lo, Ratio) and isinstance(hi, Ratio)
        assert (as_fraction(lo), as_fraction(hi)) == reference_slack_range(build, brackets)

    @given(graphs_upto(8), st.sampled_from(CASES), st.sampled_from([1.0, 0.0, 10.0]))
    @settings(max_examples=80, deadline=None)
    def test_certify(self, g, case, factor):
        f, params = case
        assume(g.n >= f.ranks)
        tols = DEFAULT_TOLS.scaled(factor)
        build = partial(f.sides, GraphView(g), **params)
        scale = lapack_scale(g, build, f.ranks)
        assert (bounds._certify(g, build, f.ranks, tols, scale)
                == reference_certify(g, build, f.ranks, tols, scale))

    @pytest.mark.parametrize("factor", [1.0, 0.0, 10.0])
    @pytest.mark.parametrize("case", CASES, ids=[f"{f.name}{p}" for f, p in CASES])
    def test_certify_on_equality_hosts(self, case, factor):
        # complete multipartite hosts are where the thresholds straddle
        f, params = case
        tols = DEFAULT_TOLS.scaled(factor)
        for g in (turan_graph(2, 6), turan_graph(3, 6), complete_graph(4), cycle_graph(5)):
            build = partial(f.sides, GraphView(g), **params)
            scale = lapack_scale(g, build, f.ranks)
            assert (bounds._certify(g, build, f.ranks, tols, scale)
                    == reference_certify(g, build, f.ranks, tols, scale))

    @given(graphs_upto(8))
    @settings(max_examples=60, deadline=None)
    def test_maxmu1_exact_slack_and_printed_floats(self, g):
        lhs, rhs = bounds.MAXMU1.sides(GraphView(g))
        lhs_f, rhs_f = fraction_sides(partial(bounds.MAXMU1.sides, GraphView(g)))
        slack = rhs - lhs
        assert as_fraction(lhs) == lhs_f and as_fraction(rhs) == rhs_f
        assert as_fraction(slack) == rhs_f - lhs_f
        rep = turan_edge_bound(g)
        assert (rep.lhs, rep.rhs, rep.slack) == (float(lhs_f), float(rhs_f),
                                                 float(rhs_f) - float(lhs_f))
        assert (rep.holds, rep.equality) == (rhs_f - lhs_f >= 0, rhs_f == lhs_f)

    @given(st.integers(min_value=-(1 << 300), max_value=1 << 300),
           st.integers(min_value=1, max_value=1 << 300))
    def test_float_of_an_unreduced_ratio(self, num, den):
        # int true division rounds correctly, as float(Fraction) does
        for k in (1, 3, 1 << 40):
            assert float(Ratio(num * k, den * k)) == float(Fraction(num, den))

    def test_mixed_arithmetic(self):
        x = Ratio(6, 4)
        y = Ratio(-1, 3)
        cases = [(x + y, Fraction(7, 6)), (x - y, Fraction(11, 6)), (2 - x, Fraction(1, 2)),
                 (x * y, Fraction(-1, 2)), (3 * x, Fraction(9, 2)), (x / 3, Fraction(1, 2)),
                 (x ** 3, Fraction(27, 8)), (x ** 0, Fraction(1)),
                 (-x, Fraction(-3, 2)), (1 + x, Fraction(5, 2)), (x + Ratio(1, 8), Fraction(13, 8))]
        for got, want in cases:
            assert got.den > 0 and as_fraction(got) == want
        assert x == Ratio(3, 2) and not x == 1 and x != Ratio(1, 2)
        assert y < 0 < x and x <= Ratio(3, 2) and x >= 1 and x > y
        for divisor in (0, -3, y):  # the sides divide by n > 0 only
            with pytest.raises(TypeError):
                x / divisor


FRACTION_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
                    "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__",
                    "__abs__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def test_certification_does_no_fraction_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction arithmetic in certification")

    for name in FRACTION_DUNDERS:
        monkeypatch.setattr(Fraction, name, refuse)
    with pytest.raises(AssertionError):
        Fraction(1, 2) + 1
    # fresh graphs, so nothing is served from a memo
    for f, g, params in [(bounds.WILF, turan_graph(2, 6), {}),
                         (bounds.WILF, turan_graph(3, 6), {}),
                         (bounds.WILF, cycle_graph(5), {}),
                         (bounds.POLYN, turan_graph(2, 6), {}),
                         (bounds.POLYN, turan_graph(3, 6), {}),
                         (bounds.POLYN, cycle_graph(5), {}),
                         (bounds.THEOREM1, turan_graph(2, 6), {"r": 2}),
                         (bounds.THEOREM1, turan_graph(3, 6), {"r": 2}),
                         (bounds.THEOREM1, cycle_graph(5), {"r": 2}),
                         (bounds.CONJECTURE, turan_graph(2, 6), {"r": 2}),
                         (bounds.CONJECTURE, turan_graph(3, 6), {"r": 3}),
                         (bounds.CONJECTURE, cycle_graph(5), {"r": 2})]:
        build = partial(f.sides, GraphView(g), **params)
        holds, equality = bounds._certify(g, build, f.ranks, DEFAULT_TOLS, 1.0)
        assert holds is not None and equality is not None
        rep = bounds.evaluate(f, g, params)
        assert rep.holds is not None and rep.equality is not None
