"""Utilities over posterior beliefs: piecewise-affine values, receiver
reduction with sender-favored ties, and concavification.

A utility is its edge tables: strictly increasing edges, the value attained
at each edge, and the line of each open segment between neighbouring edges.
A value at an edge that neither neighbouring segment takes there is a jump
or an isolated point, which is enough to express step payoffs that take
distinct values at isolated beliefs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyDomain
from .info import TOL, BeliefDistribution, _row_dots

SENDER, MEDIATOR, RECEIVER = "sender", "mediator", "receiver"
_VALUE, _SUP, _ABOVE, _BELOW = range(4)  # rows of PiecewiseUtility._at


@dataclass(frozen=True, eq=False)
class PiecewiseUtility:
    """Piecewise-affine function given by its edge tables: strictly
    increasing ``edges`` that span its domain, the value ``values[k]``
    attained at ``edges[k]``, and the line ``slopes[k] * beta +
    intercepts[k]`` of the open segment between ``edges[k]`` and
    ``edges[k + 1]``."""

    edges: InitVar[Sequence[float]]
    values: InitVar[Sequence[float]]
    slopes: InitVar[Sequence[float]]
    intercepts: InitVar[Sequence[float]]

    def __post_init__(self, edges, values, slopes, intercepts):
        arrays = ev, value_at, slopes, inters = [np.array(a, dtype=float) for a in (edges, values, slopes, intercepts)]
        n = ev.size
        shapes = [a.shape for a in arrays]
        if n == 0 or shapes != [(n,), (n,), (n - 1,), (n - 1,)]:
            raise ValueError(f"need one or more edges, with 1-d tables of n, n, n - 1, n - 1 entries; got {shapes}")
        if not np.isfinite(np.concatenate(arrays)).all():
            raise ValueError("an entry of the utility tables is not finite")
        if not (ev[1:] > ev[:-1]).all():
            raise ValueError("utility edges must increase strictly")
        # lookup tables indexed by a belief's left insertion index i among the
        # edges: the affine coefficients of the open segment left of edge i
        # (the first segment for i = 0) and the attained value at edge i
        slope_at, inter_at = (np.concatenate([a[:1], a]) if n > 1 else np.zeros(1) for a in (slopes, inters))
        # one-sided limits at each edge (an end edge repeats its one side); a
        # limit within TOL of the attained value is that value, not a jump
        below_at = above_at = value_at
        if n > 1:
            below = slope_at * ev + inter_at
            above = np.append(slope_at[1:] * ev[:-1] + inter_at[1:], below[-1])
            below_at, above_at = (np.where(np.abs(v - value_at) <= TOL, value_at, v) for v in (below, above))
        sup_at = np.maximum(value_at, np.maximum(below_at, above_at))  # raised at a jump up
        at = np.stack([value_at, sup_at, above_at, below_at])  # rows _VALUE, _SUP, _ABOVE, _BELOW
        tables = {"_edges": ev, "_slope_at": slope_at, "_inter_at": inter_at, "_at": at}
        for name, a in tables.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self._edges[0]), float(self._edges[-1])

    @property
    def breakpoints(self) -> np.ndarray:
        """All edges, isolated points included."""
        return self._edges

    def __call__(self, beta: float) -> float:
        return float(self.eval_many(beta))

    def eval_many(self, betas) -> np.ndarray:
        return self._read(self._locate(betas), _VALUE)

    def _locate(self, betas):
        """Find each belief's segment once, for any number of table reads.

        The beliefs are checked against the domain (a NaN fails) and clamped
        into it, and one ``searchsorted`` against the edges gives each one's
        left insertion index. Returns ``(idx, exact, affine)``: that index,
        whether the belief sits on the edge there, and the affine value of
        the open segment left of it, which every table shares off the edges.
        """
        b = np.asarray(betas, dtype=float)
        edges = self._edges
        lo, hi = edges[0], edges[-1]
        if b.size and not (b.min() >= lo - 1e-12 and b.max() <= hi + 1e-12):
            raise ValueError("belief outside utility domain")
        b = np.minimum(np.maximum(b, lo), hi)
        idx = np.minimum(np.searchsorted(edges, b, side="left"), len(edges) - 1)
        return idx, edges[idx] == b, self._slope_at[idx] * b + self._inter_at[idx]

    def _read(self, loc, row) -> np.ndarray:
        """Values at beliefs located by :meth:`_locate`: a belief on an edge
        gets the entry of the per-edge table ``row`` (``_VALUE``, ``_SUP``,
        ``_ABOVE`` or ``_BELOW``, or an array of them broadcast against the
        beliefs) there, any other belief the affine value of its segment."""
        idx, exact, affine = loc
        return np.where(exact, self._at[row, idx], affine)

    # -- constructors -------------------------------------------------------

    @classmethod
    def affine(cls, slope: float, intercept: float, domain=(0.0, 1.0)) -> "PiecewiseUtility":
        (lo, hi), slope, intercept = map(float, domain), float(slope), float(intercept)
        return cls([lo, hi], [slope * lo + intercept, slope * hi + intercept], [slope], [intercept])

    @classmethod
    def from_points(cls, points: Sequence, singletons: Iterable = ()) -> "PiecewiseUtility":
        """Build from graph points, e.g. ``[(0, 0), (.5, 1), (1, 0)]``.

        Each pair of consecutive points with distinct abscissas is a segment,
        and each edge takes the value of the segment that starts there (the
        last edge that of the last segment). A repeated abscissa encodes a
        jump, whose edge takes the right-hand segment's value.
        ``singletons`` are (beta, value) pairs that override the value at
        beta, which becomes an edge of its own when it lies inside a
        segment; a later one at the same beta wins.
        """
        pts = [(float(x), float(y)) for x, y in points]
        if len(pts) < 2:
            raise ValueError("need at least two points")
        if any(x1 < x0 for (x0, _), (x1, _) in zip(pts, pts[1:])):
            raise ValueError("points must have nondecreasing abscissas")
        segs = [(x0, y0, x1, y1) for (x0, y0), (x1, y1) in zip(pts, pts[1:]) if x0 != x1]
        if not segs:
            raise ValueError("points describe an empty graph")
        slopes = [(y1 - y0) / (x1 - x0) for x0, y0, x1, y1 in segs]
        inters = [y0 - s * x0 for s, (x0, y0, _, _) in zip(slopes, segs)]
        edges = [seg[0] for seg in segs] + [segs[-1][2]]
        values = [s * e + c for s, c, e in zip(slopes + slopes[-1:], inters + inters[-1:], edges)]
        for x, v in singletons:
            x, v = float(x), float(v)
            if not edges[0] <= x <= edges[-1]:
                raise ValueError(f"singleton {x} outside domain")
            k = bisect_left(edges, x)
            if edges[k] != x:  # inside segment k - 1, whose line then lies on both sides
                edges.insert(k, x)
                values.insert(k, v)
                slopes.insert(k, slopes[k - 1])
                inters.insert(k, inters[k - 1])
            edges[k], values[k] = x, 0.0 * x + v
        return cls(edges, values, slopes, inters)

    @classmethod
    def step(cls, cutoffs: Sequence[float], values: Sequence[float]) -> "PiecewiseUtility":
        """Step function: value ``values[k]`` on ``[c_{k-1}, c_k)``, the last
        value also at 1."""
        cuts = [float(c) for c in cutoffs]
        if len(values) != len(cuts) + 1:
            raise ValueError("need one more value than cutoffs")
        xs = [0.0] + cuts + [1.0]
        pts = []
        for k, v in enumerate(values):
            pts.append((xs[k], float(v)))
            pts.append((xs[k + 1], float(v)))
        return cls.from_points(pts)


def expected_utility(u: PiecewiseUtility, tau: BeliefDistribution) -> float:
    return float(_expected_utilities(u, tau.beliefs[None], tau.probs[None], np.array([tau.beliefs.size]))[0])


def _expected_utilities(u: PiecewiseUtility, beliefs, probs, sizes) -> np.ndarray:
    """The expected utility of the atoms in the first ``sizes[i]`` entries of
    each row of the (n, k) ``beliefs`` and ``probs``, with one ``eval_many``;
    the rows of each size share one stacked dot, which sums each one as
    ``u.eval_many(tau.beliefs) @ tau.probs`` does."""
    atom = np.arange(beliefs.shape[1]) < sizes[:, None]
    vals = np.zeros(beliefs.shape)
    vals[atom] = u.eval_many(beliefs[atom])
    out = np.empty(len(sizes))
    for k in set(sizes.tolist()):
        rows = np.flatnonzero(sizes == k)
        out[rows] = _row_dots(vals[rows, :k], probs[rows, :k])
    return out


# ---------------------------------------------------------------------------
# Receiver reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ActionGame:
    """Finite action set with per-player payoff tables over two states.

    Tables are (n_actions, 2) arrays ordered (state 1, state 2 = target).
    """

    actions: tuple
    sender: np.ndarray
    mediator: np.ndarray
    receiver: np.ndarray

    def __post_init__(self):
        if len(self.actions) < 2:
            raise ValueError("need at least two actions")
        for name in (SENDER, MEDIATOR, RECEIVER):
            t = np.asarray(getattr(self, name), dtype=float)
            if t.shape != (len(self.actions), 2):
                raise ValueError(f"{name} table must be (n_actions, 2)")
            t.setflags(write=False)
            object.__setattr__(self, name, t)

    def line(self, player: str, action: int):
        """Expected payoff of ``action`` as an affine function of the belief."""
        t = getattr(self, player)
        return t[action, 1] - t[action, 0], t[action, 0]


def induce_belief_utilities(game: ActionGame):
    """Compile the receiver's behavior into belief-based utilities.

    The receiver plays an expected-utility argmax with ties resolved in the
    sender's favor; all three induced utilities share the resulting action
    map. Its edges sit where two receiver lines cross, and where two sender
    lines cross, which moves the sender's favourite among actions the
    receiver ties; an isolated tie-break switch is an edge value that
    neither neighbouring segment takes. An inner edge where a player's line
    does not change and whose action is a neighbour's is dropped from that
    player's utility.
    """
    nA = len(game.actions)
    lines = [game.line(RECEIVER, a) for a in range(nA)]

    def receiver_best(beta: float) -> int:
        vals = [s * beta + c for s, c in lines]
        top = max(vals)
        best = [a for a in range(nA) if vals[a] >= top - 1e-12]
        if len(best) == 1:
            return best[0]
        s_vals = [game.sender[a, 0] * (1 - beta) + game.sender[a, 1] * beta for a in best]
        return best[int(np.argmax(s_vals))]

    edges = {0.0, 1.0}
    for player in (RECEIVER, SENDER):
        for a in range(nA):
            for b in range(a + 1, nA):
                (sa, ca), (sb, cb) = game.line(player, a), game.line(player, b)
                if abs(sa - sb) > 1e-14:
                    x = (cb - ca) / (sa - sb)
                    if 1e-12 < x < 1 - 1e-12:
                        edges.add(float(x))
    edges = sorted(edges)

    interval_action = [receiver_best(0.5 * (x0 + x1)) for x0, x1 in zip(edges, edges[1:])]
    edge_action = [receiver_best(x) for x in edges]

    def build(player: str) -> PiecewiseUtility:
        seg = [game.line(player, a) for a in interval_action]
        keep = [
            k for k in range(len(edges))
            if k in (0, len(edges) - 1) or seg[k - 1] != seg[k] or edge_action[k] not in interval_action[k - 1 : k + 1]
        ]
        at = [(edges[k], *game.line(player, edge_action[k])) for k in keep]
        return PiecewiseUtility([x for x, _, _ in at], [s * x + c for x, s, c in at], *zip(*(seg[k] for k in keep[:-1])))

    return build(SENDER), build(MEDIATOR), build(RECEIVER)


# ---------------------------------------------------------------------------
# Concavification
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Concavification:
    """Upper concave envelope of ``utility`` over the belief interval ``domain``.

    The envelope is the upper hull of the utility's supremum at its
    breakpoints inside the interval, at the interval's low end from above
    and at its high end from below; the utility is affine in between.
    ``xs`` and ``ys`` are the hull vertices, and ``raised`` marks those whose
    value is a one-sided limit above the attained value: an optimum
    supported there is only approached (``unattained``). ``value`` reads
    the vertices and the chain between them, ``linear_span`` the chain's
    slopes; the ``coincident`` set is built when first read.
    """

    utility: PiecewiseUtility
    domain: tuple[float, float]
    xs: list[float]
    ys: list[float]
    raised: list[bool]

    @cached_property
    def _chain(self):
        """Slopes and intercepts of the chain's segments between the hull vertices."""
        xs, ys = self.xs, self.ys
        slopes = [(y1 - y0) / (x1 - x0) for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:])]
        return slopes, [y0 - s * x0 for s, x0, y0 in zip(slopes, xs, ys)]

    @property
    def unattained(self) -> tuple[tuple[float, float], ...]:
        return tuple((x, y) for x, y, r in zip(self.xs, self.ys, self.raised) if r)

    def value(self, beta: float) -> float:
        """The envelope at ``beta``: a hull vertex's own value ``ys[k]`` at the
        vertex, else the chain segment's affine value."""
        beta, (lo, hi) = float(beta), self.domain
        if beta < lo - 1e-12 or beta > hi + 1e-12:
            raise ValueError("belief outside utility domain")
        beta = min(max(beta, lo), hi)
        slopes, inters = self._chain
        k = bisect_left(self.xs, beta)
        return self.ys[k] if self.xs[k] == beta else slopes[k - 1] * beta + inters[k - 1]

    def linear_span(self, beta: float) -> tuple[float, float]:
        """Endpoints of the maximal run of equal slopes (within 1e-11,
        relative) through the envelope segment containing ``beta``."""
        xs, slopes = self.xs, self._chain[0]
        k = min(max(bisect_right(xs, beta) - 1, 0), len(xs) - 2)
        lo_i, hi_i, s = k, k + 1, slopes[k]
        while lo_i > 0 and abs(slopes[lo_i - 1] - s) <= 1e-11 * max(1.0, abs(s)):
            lo_i -= 1
        while hi_i < len(xs) - 1 and abs(slopes[hi_i] - s) <= 1e-11 * max(1.0, abs(s)):
            hi_i += 1
        return float(xs[lo_i]), float(xs[hi_i])

    @cached_property
    def coincident(self) -> tuple[tuple[float, float], ...]:
        """Closed intervals (points when degenerate) where the envelope meets
        the utility; optimal posterior supports live there.

        The cuts are the domain's ends and the utility's breakpoints between
        them. Between two cuts both functions are affine, so the open segment
        coincides when the utility's inward one-sided limits at its ends are
        within ``TOL`` of the envelope there; a cut coincides when its
        attained value is. Returns the closures of the maximal runs of
        coinciding cuts and segments.
        """
        u, (lo, hi) = self.utility, self.domain
        bps = u.breakpoints
        cuts = np.concatenate([[lo], bps[(bps > lo) & (bps < hi)], [hi]])
        env = np.array([self.value(c) for c in cuts])
        on = np.empty(2 * cuts.size - 1, dtype=bool)  # cut 0, segment 0, cut 1, ..., cut n
        at = u._locate(cuts)
        on[0::2] = env - u._read(at, _VALUE) <= TOL
        on[1::2] = (env[:-1] - u._read(at, _ABOVE)[:-1] <= TOL) & (env[1:] - u._read(at, _BELOW)[1:] <= TOL)
        flips = np.flatnonzero(np.diff(np.concatenate([[0], on, [0]])))  # run starts, then ends (exclusive)
        return tuple((float(cuts[s // 2]), float(cuts[e // 2])) for s, e in zip(flips[::2], flips[1::2]))


def _payoffs(concs: Sequence[Concavification], beliefs: np.ndarray, probs: np.ndarray):
    """The envelope's payoff of the distribution in each row of the (n, k)
    arrays ``beliefs`` and ``probs`` under ``concs[i]``, concavifications of
    one utility, read through it on hull vertices (a raised vertex counts its
    limit); the values of ``solver._mediator_batch`` and so of ``bp_solve``.
    One ``eval_many`` and one stacked dot serve the batch. Returns the values
    and whether each distribution earns its value."""
    vals = concs[0].utility.eval_many(beliefs)
    attained = np.ones(len(concs), dtype=bool)
    for i, conc in enumerate(concs):
        for x, y in conc.unattained:
            on = beliefs[i] == x
            vals[i, on] = y
            attained[i] &= not on.any()
    return _row_dots(vals, probs), attained


def _upper_hull(xl: list, yl: list) -> list:
    """Monotone-chain upper hull of points with increasing abscissas; returns vertex indices."""
    stack: list[int] = []
    for i in range(len(xl)):
        xi, yi = xl[i], yl[i]
        while len(stack) >= 2:
            j, k = stack[-2], stack[-1]
            cross = (xl[k] - xl[j]) * (yi - yl[j]) - (yl[k] - yl[j]) * (xi - xl[j])
            if cross >= -1e-15:  # k is below or on chord j->i
                stack.pop()
            else:
                break
        stack.append(i)
    return stack


def _concavifications(u: PiecewiseUtility, los, his) -> list[Concavification]:
    """The concavification of ``u`` over each interval [lo, hi]: the
    breakpoints' values read from the utility's per-edge tables, and the
    interval ends located once for all intervals."""
    bps = u.breakpoints
    bx, by, ba = bps.tolist(), u._at[_SUP].tolist(), u._at[_VALUE].tolist()  # the tables at their own edges
    ends = np.column_stack([los, his])
    at_ends = u._locate(ends)
    end_att = u._read(at_ends, _VALUE)
    end_sup = np.maximum(end_att, u._read(at_ends, [_ABOVE, _BELOW])).tolist()  # inward limits
    firsts = np.searchsorted(bps, ends[:, 0], side="right").tolist()
    lasts = np.searchsorted(bps, ends[:, 1], side="left").tolist()
    out = []
    for (lo, hi), (y_lo, y_hi), (a_lo, a_hi), i, j in zip(ends.tolist(), end_sup, end_att.tolist(), firsts, lasts):
        xs, ys, att = [lo, *bx[i:j], hi], [y_lo, *by[i:j], y_hi], [a_lo, *ba[i:j], a_hi]
        idx = _upper_hull(xs, ys)
        hull = [xs[k] for k in idx], [ys[k] for k in idx], [ys[k] > att[k] for k in idx]
        out.append(Concavification(u, (lo, hi), *hull))
    return out


def concavify(u: PiecewiseUtility, domain=(0.0, 1.0)) -> Concavification:
    """Upper concave envelope of ``u`` over ``domain``: the range checks and a
    batch of one for :func:`_concavifications`."""
    lo, hi = float(domain[0]), float(domain[1])
    if not (u.domain[0] - 1e-12 <= lo < hi <= u.domain[1] + 1e-12):
        if lo >= hi:
            raise EmptyDomain(f"domain [{lo}, {hi}] is empty")
        raise ValueError("domain exceeds the utility's domain")
    return _concavifications(u, [lo], [hi])[0]
