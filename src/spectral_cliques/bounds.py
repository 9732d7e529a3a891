"""Inequality evaluators producing auditable reports.

Every report is normalized so that "holds" means slack = rhs - lhs is not
below -eps, regardless of the direction the inequality is usually written
in.  Clique and walk quantities are exact integers; powers of the spectral
radius are floating point; premise products with rational alpha stay in
exact rationals, so holds/equality verdicts of the exact checks carry no
tolerance at all.

Verdicts that land inside the tolerance band (or below it), or at its
upper edge, are certified before being classified: each eigenvalue they
read is bracketed between dyadic rationals by exact counts on the
characteristic polynomial, and the slack is evaluated exactly on the
brackets, in ints (:class:`Ratio`).  Such reports carry
``refined=True`` and keep the LAPACK figures; a verdict the brackets cannot
decide is None (status ``inconclusive``).

Every check but momo and stability's witness search is one
:class:`Formula`: the same ``sides`` run on the LAPACK floats that a report
prints, on the bracket ends (as :class:`Ratio`) that certify it, and on the
arrays of the scan's screen (:mod:`screen`).  The implications (theorem3,
edge_corollary, stability) carry a ``premise`` formula, decided by the
same rules, except that a spectral premise is certified only where its
slack lies within (hold + ``SCREEN_MARGIN``) * scale of 0, the screen's
margin around its cut, and is decided on its floats, unbracketed, outside.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

from .cliques import clique_counts, vertex_clique_counts
from .graphs import DEFAULT_CAP, Graph, per_graph
from .spectral import eigenvalue_bracket, spectrum, walk_counts

#: near-threshold verdicts are certified up to this order and inconclusive
#: above it.  A graph's first bracket costs its characteristic polynomial,
#: O(n^4) flops a prime (0.3 ms at n = 16 on 2 primes, 8 ms at n = 64 on
#: 7, on one core of a 2-vCPU Xeon guest), and each count an O(n^2)
#: big-int Taylor shift (0.4 ms at n = 64, where all CERTIFY_HALVINGS
#: halvings of one eigenvalue take 10 ms more)
CERTIFY_MAX_N = DEFAULT_CAP
#: a slack interval that straddles a threshold is narrowed at most this
#: many times, by halving its eigenvalue brackets
CERTIFY_HALVINGS = 24
#: a float slack counts as far from a threshold, or from the tightest
#: instances, only when it clears them by this much times its scale
#: max(1, |lhs|, |rhs|): the screen's arithmetic is within a few units in
#: the last place (about 1e-15 relative) of the reported figures, and a
#: premise failing by more is decided without brackets, on either path
SCREEN_MARGIN = 1e-9

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
            *, exact_slack: Ratio | Fraction | int | None = None) -> BoundReport:
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
                       equality, exact=exact)


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
    ``m``, ``omega``, ``k(s)`` (s-cliques), ``w(l)`` (l-walks) and
    ``kw(s, l)``, the sum over the vertices u of k_s(u) w_l(u).  The
    screen's ``Block`` offers the same names as arrays.  Counts are read
    through this module's ``clique_counts``, ``vertex_clique_counts`` and
    ``walk_counts``."""

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.n = g.n
        self.m = g.m
        cliques = clique_counts(g)
        self.omega = cliques.omega
        self.k = cliques.count

    def w(self, l: int) -> int:
        return walk_counts(self.g, l).total(l)

    def kw(self, s: int, l: int) -> int:
        kw = _vertex_walk_sums(self.g, l)
        return kw[s - 1] if s <= len(kw) else 0


@per_graph
def _vertex_walk_sums(g: Graph, l: int) -> list[int]:
    """sum_u k_s(u) w_l(u) for s = 1..omega, all at once, as a block does."""
    prof = walk_counts(g, l)
    walks = [prof.at(l, u) for u in range(g.n)]
    return [sum(c * w for c, w in zip(col, walks)) for col in zip(*vertex_clique_counts(g).rows)]


@dataclass(frozen=True)
class Formula:
    """One inequality lhs <= rhs, written once for every arithmetic.

    ``sides(x, mu_1, ..., mu_ranks, **params)`` returns (lhs, rhs).  ``x``
    is a :class:`GraphView` or a screen ``Block``; the eigenvalues are
    LAPACK floats, the ends of exact brackets as :class:`Ratio`, or arrays.
    Exact sides are ints, Ratios or Fractions (:func:`_ratio`).
    ``gate(x, **params)`` is true where a graph is out of domain, and
    raises ValueError on params the check refuses.  With ``ranks`` 0 the
    sides are exact, and so is the verdict.

    ``premise``, a formula of the same params, makes the check an
    implication: where the premise fails the evaluation is out of domain,
    or with ``vacuous`` a ``holds`` with no slack; where the brackets cannot
    decide it, ``inconclusive``.  A formula with no ``sides`` (stability,
    whose conclusion is a witness search) is only screened.
    ``slots(x, **params)`` turns one parameter combination of a scan into
    the (exact params, present) pair of each outcome, expanding an axis
    left at None; ``present`` is an array on a block.  Polyn alone uses
    ``shown`` (invariants its report names) and ``trivial`` (omega = 1,
    where it reads 0 <= 0 without an eigenvalue).
    """

    name: str
    sides: Callable | None
    gate: Callable = lambda x, **params: False
    ranks: int = 1
    shown: tuple[str, ...] = ()
    trivial: Callable | None = None
    premise: "Formula | None" = None
    vacuous: bool = False
    slots: Callable = lambda x, **params: [(params, True)]


def _shown(params: dict) -> dict:
    """A report's params: an exact rational alpha is shown as a float."""
    shown = dict(params)
    if isinstance(shown.get("alpha"), Fraction):
        shown["alpha"] = float(shown["alpha"])
    return shown


def evaluate(f: Formula, g: Graph, params: dict,
             tols: Tolerances = DEFAULT_TOLS) -> BoundReport:
    """``f`` on one graph for one exact parameter combination: out of
    domain where its gate holds or its premise fails (:func:`premise_holds`),
    exact where it reads no eigenvalue, else on the LAPACK floats, and where
    a spectral slack is at most hold * scale or within SCREEN_MARGIN * scale
    of equality * scale, decided on exact eigenvalue brackets in ints
    (:func:`_certify`), keeping the LAPACK figures."""
    return _evaluate(f, GraphView(g), params, tols)


def premise_holds(f: Formula, g: Graph, params: dict,
                  tols: Tolerances = DEFAULT_TOLS) -> bool | None:
    """Whether the premise ``f`` holds on one graph: False where its gate
    holds or its spectral slack lies below -(hold + SCREEN_MARGIN) * scale,
    True above (hold + SCREEN_MARGIN) * scale, as the screen decides it;
    certified on eigenvalue brackets between the two, None where they
    cannot decide it."""
    return _premise(f, GraphView(g), params, tols)


def evaluate_slots(f: Formula, g: Graph, params: dict,
                   tols: Tolerances = DEFAULT_TOLS) -> list[BoundReport]:
    """``f`` on one graph for one parameter combination of a scan: one
    report per outcome of ``f.slots``."""
    x = GraphView(g)
    return [_evaluate(f, x, p, tols) for p, present in f.slots(x, **params) if present]


def _premise(f: Formula, x: GraphView, params: dict, tols: Tolerances) -> bool | None:
    pre = _evaluate(f, x, params, tols, SCREEN_MARGIN)
    return pre.holds if pre.in_domain else False


def _doubtful(slack: float, scale: float, tols: Tolerances, doubt: float) -> bool:
    """Whether a spectral slack is certified.  A conclusion's (``doubt``
    inf) is from hold * scale down, and within SCREEN_MARGIN * scale of the
    equality band's upper edge, equality * scale, where its float cannot
    tell a tie from a near miss (at tolerance 0, just above 0).  A
    premise's (``doubt`` SCREEN_MARGIN) is within (hold + doubt) * scale of
    0, the band the screen's premise test leaves to the reporting path,
    which holds a tie at tolerance 0."""
    if doubt < math.inf:
        return abs(slack) <= (tols.hold + doubt) * scale
    return (slack <= tols.hold * scale
            or abs(slack - tols.equality * scale) <= SCREEN_MARGIN * scale)


def _evaluate(f: Formula, x: GraphView, params: dict, tols: Tolerances,
              doubt: float = math.inf) -> BoundReport:
    """A report of ``f``; a spectral slack is certified where
    :func:`_doubtful`, a premise's (``doubt`` finite) nearer its cut."""
    if f.gate(x, **params):
        return _skipped(f.name, _shown(params))
    premise = True
    if f.premise is not None:
        premise = _premise(f.premise, x, params, tols)
        if premise is False and not f.vacuous:
            return _skipped(f.name, _shown(params))
    shown = _shown(params)
    if f.shown:
        shown.update((name, getattr(x, name)) for name in f.shown)
    if f.trivial is not None and f.trivial(x):
        return _report(f.name, shown, 0.0, 0.0, tols)
    if not f.ranks:
        lhs, rhs = f.sides(x, **params)
        rep = _report(f.name, shown, lhs, rhs, tols, exact_slack=rhs - lhs)
    else:
        build = partial(f.sides, x, **params)
        lhs, rhs = build(*spectrum(x.g).eigenvalues[:f.ranks])
        rep = _report(f.name, shown, lhs, rhs, tols)
        if premise and _doubtful(rep.slack, rep.scale, tols, doubt):
            rep.holds, rep.equality = _certify(x.g, build, f.ranks, tols, rep.scale)
            rep.refined = True
    if not premise:  # failed, so vacuous, or undecided: no slack is claimed
        rep.slack = None
        rep.holds, rep.equality = (None, None) if premise is None else (True, False)
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
# conditional clique-count bound, per-vertex walk/clique inequality, and
# the edge-count corollary under the spectral premise


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


def _theorem3_gate(x, r: int, s: int, alpha):
    if not 1 <= s <= r:
        raise ValueError("need 1 <= s <= r")
    return x.omega <= r


def _theorem3_slots(x, r: int, alpha, s: int | None = None) -> list[tuple[dict, bool]]:
    """One outcome per s: each of 1..r where s is None, else s unless s > r."""
    if r < 1:
        raise ValueError("r must be >= 1")
    a = exact_alpha(alpha)
    sizes = range(1, r + 1) if s is None else [s] if s <= r else []
    return [({"r": r, "s": t, "alpha": a}, True) for t in sizes]


def _oldin_gate(x, s: int, l: int):
    if l < 2:
        raise ValueError("walk length l must be >= 2")
    return (s < 2) | (s > x.omega)


def _oldin_slots(x, s: int | None, l: int) -> list[tuple[dict, object]]:
    """One outcome per clique size: s, or each of 2..omega (on a block, of
    2..its largest omega, present up to the graph's)."""
    if s is not None:
        return [({"s": s, "l": l}, True)]
    om = x.omega
    top = om if isinstance(om, int) else int(om.max())
    return [({"s": t, "l": l}, t <= om) for t in range(2, top + 1)]


def _edge_gate(x, r: int, alpha):
    if r < 2:
        raise ValueError("r must be >= 2")
    return x.omega > r


def _premise_sides(x, mu, r: int, alpha):
    return (1 - _ratio(1, r, mu) - _ratio(*alpha.as_integer_ratio(), mu)) * x.n, mu


#: (s+1) k_{s+1} >= n^(s+1) prod_{t=1..s} ((r-t)/(rt) + alpha)
THEOREM3_PREMISE = Formula("theorem3_premise", lambda x, r, s, alpha: (
    theorem3_premise_threshold(x.n, r, s, alpha), (s + 1) * x.k(s + 1)), ranks=0)
THEOREM3 = Formula("theorem3", lambda x, r, s, alpha: (
    theorem3_conclusion_threshold(x.n, r, alpha), x.k(r + 1)), _theorem3_gate, ranks=0,
    premise=THEOREM3_PREMISE, vacuous=True, slots=_theorem3_slots)
OLDIN = Formula("oldin", lambda x, s, l: (
    x.kw(s, l + 1) - x.kw(s + 1, l), (s - 1) * x.k(s) * x.w(l)), _oldin_gate, ranks=0,
    slots=_oldin_slots)
#: mu >= (1 - 1/r - alpha) n, the premise of the edge corollary and (behind
#: its own gate, in :mod:`stability`) of the stability theorem
SPECTRAL_PREMISE = Formula("premise", _premise_sides)
EDGE_COROLLARY = Formula("edge_corollary", lambda x, r, alpha: (
    (Fraction(r - 1, 2 * r) - 2 * alpha) * x.n * x.n, x.m), _edge_gate, ranks=0,
    premise=SPECTRAL_PREMISE,
    slots=lambda x, r, alpha: [({"r": r, "alpha": exact_alpha(alpha)}, True)])

def theorem3_conditional(g: Graph, r: int, s: int, alpha,
                         tols: Tolerances = DEFAULT_TOLS) -> BoundReport:
    """If (s+1) k_{s+1} >= n^(s+1) prod_{t=1..s} ((r-t)/(rt) + alpha), then
    k_{r+1} >= alpha (r^2/(r+1)) (n/r)^(r+1), in exact rationals.  Out of
    domain unless r < omega; a failed premise gives a vacuous ``holds``
    with the conclusion's sides and no slack."""
    return evaluate(THEOREM3, g, {"r": r, "s": s, "alpha": exact_alpha(alpha)}, tols)


def oldin_check(g: Graph, s: int, l: int, tols: Tolerances = DEFAULT_TOLS) -> BoundReport:
    """sum_u (k_s(u) w_{l+1}(u) - k_{s+1}(u) w_l(u)) <= (s-1) k_s w_l,
    exact (tolerance zero).  Needs l >= 2; out of domain unless
    2 <= s <= omega."""
    return evaluate(OLDIN, g, {"s": s, "l": l}, tols)


def edge_corollary_check(g: Graph, r: int, alpha,
                         tols: Tolerances = DEFAULT_TOLS) -> BoundReport:
    """Under mu >= (1 - 1/r - alpha) n and K_{r+1}-freeness:
    m >= ((r-1)/(2r) - 2 alpha) n^2."""
    return evaluate(EDGE_COROLLARY, g, {"r": r, "alpha": exact_alpha(alpha)}, tols)
