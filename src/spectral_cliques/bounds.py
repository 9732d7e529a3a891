"""Inequality evaluators producing auditable reports.

Every report is normalized so that "holds" means slack = rhs - lhs is not
below -eps, regardless of the direction the inequality is usually written
in.  Clique and walk quantities are exact integers; powers of the spectral
radius are floating point; premise products with rational alpha stay in
exact rationals, so holds/equality verdicts of the exact checks carry no
tolerance at all.

Verdicts that land inside the tolerance band (or below it) are certified
before being classified: each eigenvalue they read is bracketed between
dyadic rationals by exact inertia counts, and the slack is evaluated
exactly on the brackets, in ints (:class:`Ratio`).  Such reports carry
``refined=True`` and keep the LAPACK figures; a verdict the brackets cannot
decide is None (status ``inconclusive``).

The seven checks whose verdict is one slack are each written once, as a
:class:`Formula`: the same ``sides`` run on the LAPACK floats that a report
prints, on the bracket ends (as :class:`Ratio`) that certify it, and on the
arrays of the scan's screen (:mod:`screen`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

from .cliques import clique_counts, is_kfree, vertex_clique_counts
from .graphs import DEFAULT_CAP, Graph
from .spectral import eigenvalue_bracket, spectrum, walk_counts

#: near-threshold verdicts are certified up to this order and inconclusive
#: above it: the cost of an exact count grows like n^4 (a first bracket
#: takes 2 ms at n = 16 and 0.44 s at n = 64, where all CERTIFY_HALVINGS
#: halvings take 8 s more)
CERTIFY_MAX_N = DEFAULT_CAP
#: a slack interval that straddles a threshold is narrowed at most this
#: many times, by halving its eigenvalue brackets
CERTIFY_HALVINGS = 24

@dataclass(frozen=True)
class Tolerances:
    """Relative epsilons: ``hold`` for violation detection, ``equality``
    for tight-case detection.  Both scale with max(1, |lhs|, |rhs|)."""

    hold: float = 1e-7
    equality: float = 1e-6

    def scaled(self, factor: float) -> "Tolerances":
        """Both epsilons times ``factor``, which must be finite and >= 0
        (ValueError otherwise): a negative band would call the equality
        hosts of a theorem violations."""
        if not (math.isfinite(factor) and factor >= 0):
            raise ValueError(f"tolerance scale must be finite and >= 0, got {factor}")
        return Tolerances(self.hold * factor, self.equality * factor)


DEFAULT_TOLS = Tolerances()


@dataclass
class BoundReport:
    """One inequality evaluation with slack oriented so >= 0 means holds.

    ``holds`` and ``equality`` are None when a certified (``refined``)
    report could not decide them.
    """

    name: str
    params: dict
    lhs: float | None
    rhs: float | None
    slack: float | None
    scale: float
    holds: bool | None
    equality: bool | None
    in_domain: bool = True
    exact: bool = False
    refined: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "scale": self.scale,
            "holds": self.holds,
            "equality": self.equality,
            "in_domain": self.in_domain,
            "exact": self.exact,
            "refined": self.refined,
        }


def _report(name: str, params: dict, lhs: float, rhs: float, tols: Tolerances,
            *, exact_slack: Ratio | Fraction | int | None = None,
            in_domain: bool = True) -> BoundReport:
    lhs_f = float(lhs)
    rhs_f = float(rhs)
    slack = rhs_f - lhs_f
    scale = max(1.0, abs(lhs_f), abs(rhs_f))
    if exact_slack is not None:
        holds = exact_slack >= 0
        equality = exact_slack == 0
        exact = True
    else:
        holds = slack >= -tols.hold * scale
        equality = abs(slack) <= tols.equality * scale
        exact = False
    return BoundReport(name, params, lhs_f, rhs_f, slack, scale, holds,
                       equality, in_domain=in_domain, exact=exact)


def _skipped(name: str, params: dict) -> BoundReport:
    """Out-of-domain placeholder; no sides are computed."""
    return BoundReport(name, params, None, None, None, 1.0, True, False,
                       in_domain=False)


def _compare(op: Callable) -> Callable:
    """A Ratio comparison: ``op`` on the two numerators over den * den'."""
    def compare(x: "Ratio", y) -> bool:
        if isinstance(y, int):
            return op(x.num, y * x.den)
        if isinstance(y, Ratio):
            return op(x.num * y.den, y.num * x.den)
        return NotImplemented
    return compare


class Ratio:
    """An exact rational num/den with den > 0, never gcd-reduced: the
    arithmetic of the sides on exact inputs.  Ints mix in on either side;
    ``x / n`` takes an int n > 0 and ``x ** e`` an int e >= 0.  A sum over
    denominators of which one divides the other (all powers of two on
    bracket ends) keeps the larger one.  Every comparison is an int
    cross-multiplication, and ``float`` is int true division, which rounds
    correctly, so it equals float() of the reduced Fraction."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int) -> None:
        self.num = num
        self.den = den

    def __repr__(self) -> str:
        return f"Ratio({self.num}, {self.den})"

    def __float__(self) -> float:
        return self.num / self.den

    def __neg__(self) -> "Ratio":
        return Ratio(-self.num, self.den)

    def __add__(self, other) -> "Ratio":
        if isinstance(other, int):
            return Ratio(self.num + other * self.den, self.den)
        if isinstance(other, Ratio):
            return _sum(self.num, self.den, other.num, other.den)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "Ratio":
        if isinstance(other, int):
            return Ratio(self.num - other * self.den, self.den)
        if isinstance(other, Ratio):
            return _sum(self.num, self.den, -other.num, other.den)
        return NotImplemented

    def __rsub__(self, other) -> "Ratio":
        if isinstance(other, int):
            return Ratio(other * self.den - self.num, self.den)
        return NotImplemented

    def __mul__(self, other) -> "Ratio":
        if isinstance(other, int):
            return Ratio(self.num * other, self.den)
        if isinstance(other, Ratio):
            return Ratio(self.num * other.num, self.den * other.den)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Ratio":
        if isinstance(other, int) and other > 0:
            return Ratio(self.num, self.den * other)
        return NotImplemented

    def __pow__(self, e: int) -> "Ratio":
        return Ratio(self.num ** e, self.den ** e)

    __eq__ = _compare(operator.eq)
    __lt__ = _compare(operator.lt)
    __le__ = _compare(operator.le)
    __gt__ = _compare(operator.gt)
    __ge__ = _compare(operator.ge)


def _sum(a: int, b: int, c: int, d: int) -> Ratio:
    """a/b + c/d over d or b where one divides the other, else over b * d."""
    if b == d:
        return Ratio(a + c, b)
    if d % b == 0:
        return Ratio(a * (d // b) + c, d)
    if b % d == 0:
        return Ratio(a + c * (b // d), b)
    return Ratio(a * d + c * b, b * d)


def _ratio(a: int, b: int, like):
    """a / b in the arithmetic of ``like``: the exact :class:`Ratio` next to
    an int or a Ratio, the true division next to a float or an array."""
    return Ratio(a, b) if isinstance(like, (int, Ratio)) else a / b


def _slack_range(build: Callable, brackets: list[tuple[int, int, int]]) -> tuple[Ratio, Ratio]:
    """Least and greatest slack rhs - lhs while each eigenvalue ranges over
    its bracket ``(lo, hi, q)``, the ints lo/q < hi/q.

    Every side is nondecreasing in mu_1 on mu_1 >= 0 (which holds on every
    graph: the trace is 0) and reads mu_2 only through mu_2^2.  So both
    sides are least at mu_1's lower end (raised to 0) with mu_2 nearest 0
    (0 itself if its bracket holds 0), and greatest at mu_1's upper end with
    mu_2 farthest from 0.
    """
    (lo, hi, q), *rest = brackets
    least = [Ratio(max(lo, 0), q)]
    most = [Ratio(hi, q)]
    for lo, hi, q in rest:
        near, far = sorted((lo, hi), key=abs)
        least.append(Ratio(0 if lo < 0 < hi else near, q))
        most.append(Ratio(far, q))
    lhs_least, rhs_least = build(*least)
    lhs_most, rhs_most = build(*most)
    return rhs_least - lhs_most, rhs_most - lhs_least


def _certify(g: Graph, build: Callable, ranks: int, tols: Tolerances,
             scale: float) -> tuple[bool | None, bool | None]:
    """(holds, equality) of the exact slack, from eigenvalue brackets.

    A verdict is decided once the slack interval lies on one side of its
    thresholds (-hold * scale for holds, +-equality * scale for equality,
    exact products of the floats' integer ratios); until then the brackets
    are halved, at most CERTIFY_HALVINGS times.  A verdict still undecided,
    one whose LAPACK value the counts refute, or one on a graph above
    CERTIFY_MAX_N vertices, is None.
    """
    if g.n > CERTIFY_MAX_N:
        return None, None
    scale_q = Ratio(*scale.as_integer_ratio())
    hold = Ratio(*tols.hold.as_integer_ratio()) * scale_q
    band = Ratio(*tols.equality.as_integer_ratio()) * scale_q
    for halvings in range(CERTIFY_HALVINGS + 1):
        brackets = [eigenvalue_bracket(g, rank, halvings) for rank in range(1, ranks + 1)]
        if None in brackets:
            return None, None
        lo, hi = _slack_range(build, brackets)
        if lo >= -hold:
            holds = True
        elif hi < -hold:
            holds = False
        else:
            holds = None
        if hi < -band or lo > band:
            equality = False
        elif -band <= lo and hi <= band:
            equality = True
        else:
            equality = None
        if holds is not None and equality is not None:
            break
    return holds, equality


class GraphView:
    """The invariants a formula reads, of one graph, in exact ints: ``n``,
    ``m``, ``omega``, ``k(s)`` (s-cliques) and ``w(l)`` (l-walks).  The
    screen's ``Block`` offers the same names as arrays.  Counts are read
    through this module's ``clique_counts`` and ``walk_counts``, once each
    per view."""

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.n = g.n
        self.m = g.m
        cliques = clique_counts(g)
        self.omega = cliques.omega
        self.k = cliques.count
        self._walks: dict[int, int] = {}

    def w(self, l: int) -> int:
        if l not in self._walks:
            self._walks[l] = walk_counts(self.g, l).total(l)
        return self._walks[l]


@dataclass(frozen=True)
class Formula:
    """One inequality lhs <= rhs, written once for every arithmetic.

    ``sides(x, mu_1, ..., mu_ranks, **params)`` returns (lhs, rhs).  ``x``
    is a :class:`GraphView` or a screen ``Block``; the eigenvalues are
    LAPACK floats, the ends of exact brackets as :class:`Ratio`, or arrays.
    Exact sides are ints or Ratios (:func:`_ratio`).
    ``gate(x, **params)`` is true where a graph is out of domain, and
    raises ValueError on params the check refuses.  With ``ranks`` 0 the
    sides are exact, and so is the verdict.  Polyn alone uses the last two
    fields: its report names ``shown`` invariants of the graph beside the
    params, and where ``trivial`` holds (omega = 1) it reads 0 <= 0 without
    an eigenvalue.
    """

    name: str
    sides: Callable
    gate: Callable = lambda x, **params: False
    ranks: int = 1
    shown: tuple[str, ...] = ()
    trivial: Callable | None = None


def evaluate(f: Formula, g: Graph, params: dict,
             tols: Tolerances = DEFAULT_TOLS) -> BoundReport:
    """``f`` on one graph: out of domain where its gate holds, exact where
    it reads no eigenvalue, else evaluated on the LAPACK floats.  A report
    whose slack is at most hold * scale is then decided on the ends of
    exact eigenvalue brackets, in ints (:func:`_certify`), and keeps the
    LAPACK figures.
    """
    x = GraphView(g)
    if f.gate(x, **params):
        return _skipped(f.name, dict(params))
    shown = {**params, **{name: getattr(x, name) for name in f.shown}}
    if f.trivial is not None and f.trivial(x):
        return _report(f.name, shown, 0.0, 0.0, tols)
    build = partial(f.sides, x, **params)
    if not f.ranks:
        lhs, rhs = build()
        return _report(f.name, shown, lhs, rhs, tols, exact_slack=rhs - lhs)
    lhs, rhs = build(*spectrum(g).eigenvalues[:f.ranks])
    rep = _report(f.name, shown, lhs, rhs, tols)
    if rep.slack <= tols.hold * rep.scale:
        rep.holds, rep.equality = _certify(g, build, f.ranks, tols, rep.scale)
        rep.refined = True
    return rep


# ---------------------------------------------------------------------------
# spectral radius vs clique counts


def _r_gate(x, r: int) -> bool:
    if r < 2:
        raise ValueError("r must be >= 2")
    return False


def _walk_power_gate(x, s: int) -> bool:
    if s < 1:
        raise ValueError("walk power s must be >= 1")
    return False


def _polyn_sides(x, mu):
    # on a block the sum runs to the largest omega; past a graph's own
    # omega, k_s = 0 adds 0.0 (NaN at mu = 0, where polyn is trivial)
    om = x.omega
    top = om if isinstance(om, int) else int(om.max())
    return mu ** om, sum((s - 1) * x.k(s) * mu ** (om - s) for s in range(2, top + 1))


def _theorem1_sides(x, mu, r: int):
    return mu ** (r + 1), (r + 1) * x.k(r + 1) + sum(
        (s - 1) * x.k(s) * mu ** (r + 1 - s) for s in range(2, r + 1))


def _theorem2_sides(x, mu, r: int):
    return ((mu / x.n - 1 + _ratio(1, r, mu)) * _ratio(r * (r - 1), r + 1, mu)
            * _ratio(x.n, r, mu) ** (r + 1)), x.k(r + 1)


def _conjecture_gate(x, r: int):
    _r_gate(x, r)
    return (x.omega > r) | (x.n < r + 1)


WILF = Formula("wilf", lambda x, mu: (mu, _ratio(x.omega - 1, x.omega, mu) * x.n))
MAXMU = Formula("maxmu", lambda x, mu, s: (
    mu ** s, _ratio(x.omega - 1, x.omega, mu) * x.w(s)), _walk_power_gate)
# exact on a graph, where m is an int; floats on a block
MAXMU1 = Formula("maxmu1", lambda x: (
    x.m, _ratio(x.omega - 1, 2 * x.omega, x.m) * x.n * x.n), ranks=0)
POLYN = Formula("polyn", _polyn_sides, shown=("omega",), trivial=lambda x: x.omega == 1)
THEOREM1 = Formula("theorem1", _theorem1_sides, _r_gate)
THEOREM2 = Formula("theorem2", _theorem2_sides, _r_gate)
CONJECTURE = Formula("conjecture", lambda x, mu, mu2, r: (
    mu ** 2 + mu2 ** 2, _ratio(r - 1, r, mu) * 2 * x.m), _conjecture_gate, ranks=2)


def wilf_bound(g: Graph, tols: Tolerances = DEFAULT_TOLS) -> BoundReport:
    """mu <= (1 - 1/omega) n."""
    return evaluate(WILF, g, {}, tols)


def walk_power_bound(g: Graph, s: int, tols: Tolerances = DEFAULT_TOLS) -> BoundReport:
    """mu^s <= (1 - 1/omega) w_s; reduces to the Wilf bound at s = 1."""
    return evaluate(MAXMU, g, {"s": s}, tols)


def turan_edge_bound(g: Graph, tols: Tolerances = DEFAULT_TOLS) -> BoundReport:
    """m <= (1 - 1/omega) n^2 / 2, exactly; tight when omega divides n."""
    return evaluate(MAXMU1, g, {}, tols)


def polyn_bound(g: Graph, tols: Tolerances = DEFAULT_TOLS) -> BoundReport:
    """mu^omega <= sum_{s=2}^{omega} (s-1) k_s mu^(omega-s).

    Equality characterizes complete multipartite graphs with possibly some
    isolated vertices; the cross-check lives with the recognizer.
    """
    return evaluate(POLYN, g, {}, tols)


def theorem1_bound(g: Graph, r: int, tols: Tolerances = DEFAULT_TOLS) -> BoundReport:
    """mu^(r+1) <= (r+1) k_{r+1} + sum_{s=2}^{r} (s-1) k_s mu^(r+1-s),
    for any r >= 2 (sizes above omega contribute nothing)."""
    return evaluate(THEOREM1, g, {"r": r}, tols)


def theorem2_lower(g: Graph, r: int, tols: Tolerances = DEFAULT_TOLS) -> BoundReport:
    """k_{r+1} >= (mu/n - 1 + 1/r) (r(r-1)/(r+1)) (n/r)^(r+1).

    Oriented with the bound expression on the lhs, so slack >= 0 still
    means the count is large enough; negative bounds are reported as-is.
    """
    return evaluate(THEOREM2, g, {"r": r}, tols)


def conjecture_check(g: Graph, r: int, tols: Tolerances = DEFAULT_TOLS) -> BoundReport:
    """mu_1^2 + mu_2^2 <= (1 - 1/r) 2m for K_{r+1}-free graphs of order
    at least r+1.

    Graphs with a K_{r+1} or with fewer than r+1 vertices are out of
    domain (on order r the complete graph already exceeds the bound, so the
    claim starts one vertex later).  Near misses are certified exactly
    before being reported.  Lin, Ning and Wu (Combin. Probab. Comput. 30,
    2021) proved the case r = 2.
    """
    return evaluate(CONJECTURE, g, {"r": r}, tols)


# ---------------------------------------------------------------------------
# conditional clique-count lower bound


@dataclass
class Theorem3Report:
    """Premise/conclusion pair of the conditional clique-count bound.

    The hypothesis r < omega is reported as a domain gate rather than mixed
    into the implication, so vacuous cases stay visible.
    """

    params: dict
    premise_holds: bool
    in_domain: bool
    conclusion: BoundReport
    implication_holds: bool
    name: str = "theorem3"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "premise_holds": self.premise_holds,
            "in_domain": self.in_domain,
            "implication_holds": self.implication_holds,
            "conclusion": self.conclusion.to_dict(),
        }


def exact_alpha(alpha) -> Fraction:
    """alpha as an exact rational; a negative alpha is refused (ValueError)."""
    a = Fraction(alpha)
    if a < 0:
        raise ValueError("alpha must be >= 0")
    return a


@lru_cache(maxsize=65536)
def theorem3_premise_threshold(n: int, r: int, s: int, alpha: Fraction) -> Fraction:
    prod = Fraction(1)
    for t in range(1, s + 1):
        prod *= Fraction(r - t, r * t) + alpha
    return prod * Fraction(n) ** (s + 1)


@lru_cache(maxsize=65536)
def theorem3_conclusion_threshold(n: int, r: int, alpha: Fraction) -> Fraction:
    return alpha * Fraction(r * r, r + 1) * Fraction(n, r) ** (r + 1)


def theorem3_conditional(g: Graph, r: int, s: int, alpha,
                         tols: Tolerances = DEFAULT_TOLS) -> Theorem3Report:
    """If (s+1) k_{s+1} >= n^(s+1) prod_{t=1..s} ((r-t)/(rt) + alpha), then
    k_{r+1} >= alpha (r^2/(r+1)) (n/r)^(r+1).

    Both sides are evaluated in exact rationals.  in_domain is r < omega.
    """
    if not 1 <= s <= r:
        raise ValueError("need 1 <= s <= r")
    if r < 1:
        raise ValueError("r must be >= 1")
    a = exact_alpha(alpha)
    prof = clique_counts(g)
    n = g.n
    premise_lhs = (s + 1) * prof.count(s + 1)
    premise_rhs = theorem3_premise_threshold(n, r, s, a)
    premise = premise_lhs >= premise_rhs
    bound = theorem3_conclusion_threshold(n, r, a)
    k = prof.count(r + 1)
    conclusion = _report("theorem3", {"r": r, "s": s, "alpha": float(a)},
                         bound, k, tols, exact_slack=k - bound)
    in_domain = r < prof.omega
    implication = (not premise) or conclusion.holds
    return Theorem3Report(
        params={"r": r, "s": s, "alpha": float(a)},
        premise_holds=premise,
        in_domain=in_domain,
        conclusion=conclusion,
        implication_holds=implication,
    )


# ---------------------------------------------------------------------------
# per-vertex walk/clique inequality (exact integers)


def oldin_check(g: Graph, s: int, l: int, tols: Tolerances = DEFAULT_TOLS) -> BoundReport:
    """sum_u (k_s(u) w_{l+1}(u) - k_{s+1}(u) w_l(u)) <= (s-1) k_s w_l,
    exact on both sides (tolerance zero).

    Needs 2 <= s <= omega and l >= 2.
    """
    if l < 2:
        raise ValueError("walk length l must be >= 2")
    prof = clique_counts(g)
    if not 2 <= s <= prof.omega:
        raise ValueError(f"clique size s={s} outside 2..omega={prof.omega}")
    per = vertex_clique_counts(g)
    walks = walk_counts(g, l + 1)
    lhs = sum(per.count(u, s) * walks.at(l + 1, u) - per.count(u, s + 1) * walks.at(l, u)
              for u in range(g.n))
    rhs = (s - 1) * prof.count(s) * walks.total(l)
    return _report("oldin", {"s": s, "l": l}, lhs, rhs, tols, exact_slack=rhs - lhs)


# ---------------------------------------------------------------------------
# edge-count corollary of the walk-power bound under a spectral premise


def premise_cut(n: int, r: int, alpha: float, tols: Tolerances) -> float:
    """The least spectral radius that meets the spectral premise
    mu >= (1 - 1/r - alpha) n of the stability theorem and of the edge
    corollary, up to the hold epsilon."""
    thr = (1.0 - 1.0 / r - alpha) * n
    return thr - tols.hold * max(1.0, abs(thr))


def edge_corollary_check(g: Graph, r: int, alpha,
                         tols: Tolerances = DEFAULT_TOLS) -> BoundReport:
    """Under mu >= (1 - 1/r - alpha) n and K_{r+1}-freeness:
    m >= ((r-1)/(2r) - 2 alpha) n^2."""
    if r < 2:
        raise ValueError("r must be >= 2")
    a = exact_alpha(alpha)
    params = {"r": r, "alpha": float(a)}
    if not is_kfree(g, r + 1):
        return _skipped("edge_corollary", params)
    if spectrum(g).mu < premise_cut(g.n, r, float(a), tols):
        return _skipped("edge_corollary", params)
    bound = (Fraction(r - 1, 2 * r) - 2 * a) * g.n * g.n
    return _report("edge_corollary", params, bound, g.m, tols,
                   exact_slack=g.m - bound)
