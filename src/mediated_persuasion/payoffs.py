"""Utilities over posterior beliefs: piecewise-affine values, receiver
reduction with sender-favored ties, and concavification.

A utility is a partition of the belief interval into affine pieces whose
endpoints may be open, closed, or isolated singletons; that is enough to
express step payoffs that take distinct values at isolated beliefs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyDomain
from .info import TOL, BeliefDistribution

SENDER, MEDIATOR, RECEIVER = "sender", "mediator", "receiver"


@dataclass(frozen=True)
class Piece:
    """Affine piece ``value = slope*beta + intercept`` on an interval.

    ``lo == hi`` marks a singleton (both ends closed).
    """

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool
    slope: float
    intercept: float

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def value_at(self, beta: float) -> float:
        return self.slope * beta + self.intercept


def _affine_through(x0, y0, x1, y1):
    slope = (y1 - y0) / (x1 - x0)
    return slope, y0 - slope * x0


@dataclass(frozen=True, eq=False)
class PiecewiseUtility:
    """Piecewise-affine function whose pieces exactly partition its domain."""

    pieces: tuple[Piece, ...]

    def __post_init__(self):
        pieces = tuple(sorted(self.pieces, key=lambda p: (p.lo, p.hi)))
        if not pieces:
            raise ValueError("need at least one piece")
        for p in pieces:
            if p.lo > p.hi:
                raise ValueError(f"inverted piece [{p.lo}, {p.hi}]")
            if p.is_singleton and not (p.lo_closed and p.hi_closed):
                raise ValueError("singleton pieces must be closed")
        if not pieces[0].lo_closed or not pieces[-1].hi_closed:
            raise ValueError("domain endpoints must be attained")
        for prev, cur in zip(pieces, pieces[1:]):
            if prev.hi != cur.lo:
                raise ValueError(f"gap or overlap at {prev.hi} vs {cur.lo}")
            if prev.hi_closed == cur.lo_closed:
                raise ValueError(f"breakpoint {cur.lo} owned by {'both' if prev.hi_closed else 'neither'} side")
        object.__setattr__(self, "pieces", pieces)
        # lookup tables indexed by a belief's left insertion index i among the
        # edges: the affine coefficients of the open segment left of edge i
        # (the first segment for i = 0) and the attained value at edge i
        edges = sorted({p.lo for p in pieces} | {p.hi for p in pieces})
        slope_at = np.zeros(len(edges))
        inter_at = np.zeros(len(edges))
        for k in range(1, len(edges)):
            p = self._covering_piece(0.5 * (edges[k - 1] + edges[k]))
            slope_at[k], inter_at[k] = p.slope, p.intercept
        if len(edges) > 1:
            slope_at[0], inter_at[0] = slope_at[1], inter_at[1]
        value_at = np.array([self._covering_piece(e).value_at(e) for e in edges])
        ev = np.array(edges)
        # one-sided limits at each edge (an end edge repeats its one side); a
        # limit within TOL of the attained value is that value, not a jump
        below_at = above_at = value_at
        if len(edges) > 1:
            below = slope_at * ev + inter_at
            above = np.append(slope_at[1:] * ev[:-1] + inter_at[1:], below[-1])
            below_at, above_at = (np.where(np.abs(v - value_at) <= TOL, value_at, v) for v in (below, above))
        tables = {
            "_edges": ev, "_slope_at": slope_at, "_inter_at": inter_at, "_value_at": value_at,
            "_below_at": below_at, "_above_at": above_at,
            "_sup_at": np.maximum(value_at, np.maximum(below_at, above_at)),  # raised at a jump up
        }
        for name, a in tables.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def _covering_piece(self, beta: float) -> Piece:
        for p in self.pieces:
            if p.is_singleton:
                if p.lo == beta:
                    return p
            else:
                lo_ok = beta > p.lo or (p.lo_closed and beta == p.lo)
                hi_ok = beta < p.hi or (p.hi_closed and beta == p.hi)
                if lo_ok and hi_ok:
                    return p
        raise ValueError(f"{beta} outside domain [{self.domain[0]}, {self.domain[1]}]")

    @property
    def domain(self) -> tuple[float, float]:
        return self.pieces[0].lo, self.pieces[-1].hi

    @property
    def breakpoints(self) -> np.ndarray:
        """All piece endpoints (includes singleton locations)."""
        return self._edges

    def __call__(self, beta: float) -> float:
        return float(self._lookup(beta, "_value_at"))

    def eval_many(self, betas) -> np.ndarray:
        return self._lookup(betas, "_value_at")

    def sup_many(self, betas) -> np.ndarray:
        """Like ``eval_many``, but a belief on a jump gets the larger of its
        attained value and its one-sided limits."""
        return self._lookup(betas, "_sup_at")

    def limits_many(self, betas, above) -> np.ndarray:
        """One-sided limits at the beliefs: from above where ``above`` holds, else from below."""
        return np.where(above, self._lookup(betas, "_above_at"), self._lookup(betas, "_below_at"))

    def _lookup(self, betas, table: str) -> np.ndarray:
        """Values at the beliefs, checked against the domain and clamped into
        it. Each belief's segment is found with one ``searchsorted`` against
        the edges: a belief on an edge gets the entry of the per-edge
        ``table`` there, any other belief the affine value of its open
        segment."""
        b = np.asarray(betas, dtype=float)
        lo, hi = self.domain
        if b.size and (b.min() < lo - 1e-12 or b.max() > hi + 1e-12):
            raise ValueError("belief outside utility domain")
        shape = b.shape
        b = np.minimum(np.maximum(b.reshape(-1), lo), hi)
        edges = self._edges
        idx = np.minimum(np.searchsorted(edges, b, side="left"), len(edges) - 1)
        exact = edges[idx] == b
        v = self._slope_at[idx] * b + self._inter_at[idx]
        v[exact] = getattr(self, table)[idx[exact]]
        return v.reshape(shape)

    # -- constructors -------------------------------------------------------

    @classmethod
    def affine(cls, slope: float, intercept: float, domain=(0.0, 1.0)) -> "PiecewiseUtility":
        lo, hi = domain
        return cls((Piece(lo, hi, True, True, slope, intercept),))

    @classmethod
    def constant(cls, value: float, domain=(0.0, 1.0)) -> "PiecewiseUtility":
        return cls.affine(0.0, value, domain)

    @classmethod
    def from_points(cls, points: Sequence, singletons: Iterable = ()) -> "PiecewiseUtility":
        """Build from graph points, e.g. ``[(0, 0), (.5, 1), (1, 0)]``.

        A repeated abscissa encodes a jump; the right-hand piece owns the
        breakpoint. ``singletons`` are isolated (beta, value) overrides and
        take precedence wherever they land.
        """
        pts = [(float(x), float(y)) for x, y in points]
        if len(pts) < 2:
            raise ValueError("need at least two points")
        if any(x1 < x0 for (x0, _), (x1, _) in zip(pts, pts[1:])):
            raise ValueError("points must have nondecreasing abscissas")
        pieces: list[Piece] = []
        i = 0
        while i < len(pts) - 1:
            (x0, y0), (x1, y1) = pts[i], pts[i + 1]
            if x0 == x1:  # jump marker; right side owns x0
                i += 1
                continue
            slope, inter = _affine_through(x0, y0, x1, y1)
            pieces.append(Piece(x0, x1, True, False, slope, inter))
            i += 1
        if not pieces:
            raise ValueError("points describe an empty graph")
        last = pieces[-1]
        pieces[-1] = Piece(last.lo, last.hi, last.lo_closed, True, last.slope, last.intercept)
        u = cls(tuple(pieces))
        for x, v in singletons:
            u = u.with_singleton(float(x), float(v))
        return u

    @classmethod
    def step(cls, cutoffs: Sequence[float], values: Sequence[float]) -> "PiecewiseUtility":
        """Step function: value ``values[k]`` on ``[c_{k-1}, c_k)``, last piece closed."""
        cuts = [float(c) for c in cutoffs]
        if len(values) != len(cuts) + 1:
            raise ValueError("need one more value than cutoffs")
        xs = [0.0] + cuts + [1.0]
        pts = []
        for k, v in enumerate(values):
            pts.append((xs[k], float(v)))
            pts.append((xs[k + 1], float(v)))
        return cls.from_points(pts)

    def with_singleton(self, x: float, value: float) -> "PiecewiseUtility":
        """Override the value at the single belief ``x``."""
        lo, hi = self.domain
        if not lo <= x <= hi:
            raise ValueError(f"singleton {x} outside domain")
        out: list[Piece] = []
        for p in self.pieces:
            covers = (p.lo < x < p.hi) or (p.lo_closed and x == p.lo) or (p.hi_closed and x == p.hi)
            if not covers:
                out.append(p)
                continue
            if p.is_singleton:
                out.append(Piece(x, x, True, True, 0.0, value))
                continue
            if p.lo < x < p.hi:
                out.append(Piece(p.lo, x, p.lo_closed, False, p.slope, p.intercept))
                out.append(Piece(x, x, True, True, 0.0, value))
                out.append(Piece(x, p.hi, False, p.hi_closed, p.slope, p.intercept))
            elif x == p.lo:
                out.append(Piece(x, x, True, True, 0.0, value))
                out.append(Piece(p.lo, p.hi, False, p.hi_closed, p.slope, p.intercept))
            else:
                out.append(Piece(p.lo, p.hi, p.lo_closed, False, p.slope, p.intercept))
                out.append(Piece(x, x, True, True, 0.0, value))
        return PiecewiseUtility(tuple(out))


def expected_utility(u: PiecewiseUtility, tau: BeliefDistribution) -> float:
    return float(u.eval_many(tau.beliefs) @ tau.probs)


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

    The receiver plays her expected-utility argmax with ties resolved in the
    sender's favor; all three induced utilities share the resulting action
    map, so breakpoints sit at receiver-indifference beliefs and isolated
    tie-break switches become singleton pieces.
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
    for a in range(nA):
        for b in range(a + 1, nA):
            (sa, ca), (sb, cb) = lines[a], lines[b]
            if abs(sa - sb) > 1e-14:
                x = (cb - ca) / (sa - sb)
                if 1e-12 < x < 1 - 1e-12:
                    edges.add(float(x))
    edges = sorted(edges)

    interval_action = [receiver_best(0.5 * (x0 + x1)) for x0, x1 in zip(edges, edges[1:])]
    edge_action = [receiver_best(x) for x in edges]
    n_int = len(interval_action)

    def build(player: str) -> PiecewiseUtility:
        pieces: list[Piece] = []
        for k, act in enumerate(interval_action):
            x0, x1 = edges[k], edges[k + 1]
            slope, inter = game.line(player, act)
            lo_owner = edge_action[k]
            hi_owner = edge_action[k + 1]
            lo_closed = lo_owner == act
            # the right neighbor owns a shared edge when its action matches;
            # otherwise the edge falls to this piece or to a singleton
            if k == n_int - 1:
                hi_closed = hi_owner == act
            else:
                hi_closed = hi_owner == act and interval_action[k + 1] != hi_owner
            if not lo_closed and (k == 0 or interval_action[k - 1] != lo_owner):
                s, c = game.line(player, lo_owner)
                pieces.append(Piece(x0, x0, True, True, 0.0, s * x0 + c))
            pieces.append(Piece(x0, x1, lo_closed, hi_closed, slope, inter))
        if edge_action[-1] != interval_action[-1]:
            s, c = game.line(player, edge_action[-1])
            pieces[-1] = Piece(
                pieces[-1].lo, pieces[-1].hi, pieces[-1].lo_closed, False,
                pieces[-1].slope, pieces[-1].intercept,
            )
            pieces.append(Piece(1.0, 1.0, True, True, 0.0, s * 1.0 + c))
        # cosmetic: merge adjacent pieces carrying the same line
        merged: list[Piece] = [pieces[0]]
        for p in pieces[1:]:
            q = merged[-1]
            same_line = (
                not p.is_singleton and not q.is_singleton
                and p.slope == q.slope and p.intercept == q.intercept
                and q.hi == p.lo and (q.hi_closed != p.lo_closed)
            )
            if same_line:
                merged[-1] = Piece(q.lo, p.hi, q.lo_closed, p.hi_closed, q.slope, q.intercept)
            else:
                merged.append(p)
        return PiecewiseUtility(tuple(merged))

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
    supported there is only approached (``unattained``). ``value`` and
    ``linear_span`` read the vertex chain; the ``envelope`` as a
    ``PiecewiseUtility`` and the ``coincident`` set are built when first read.
    """

    utility: PiecewiseUtility
    domain: tuple[float, float]
    xs: list[float]
    ys: list[float]
    raised: list[bool]

    @cached_property
    def _chain(self):
        """Slopes, intercepts and vertex values of the chain through the hull
        vertices, computed as :meth:`PiecewiseUtility.from_points` builds its
        pieces and evaluates them: each vertex but the last takes the value of
        the piece it starts, the last that of the piece it ends."""
        xs, ys = self.xs, self.ys
        slopes = [(y1 - y0) / (x1 - x0) for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:])]
        inters = [y0 - s * x0 for s, x0, y0 in zip(slopes, xs, ys)]
        vals = [s * x0 + c for s, c, x0 in zip(slopes, inters, xs)]
        vals.append(slopes[-1] * xs[-1] + inters[-1])
        return slopes, inters, vals

    @property
    def unattained(self) -> tuple[tuple[float, float], ...]:
        return tuple((x, y) for x, y, r in zip(self.xs, self.ys, self.raised) if r)

    @cached_property
    def envelope(self) -> PiecewiseUtility:
        return PiecewiseUtility.from_points(list(zip(self.xs, self.ys)))

    def value(self, beta: float) -> float:
        """The envelope at ``beta``, read as ``self.envelope(beta)`` reads it."""
        beta, (lo, hi) = float(beta), self.domain
        if beta < lo - 1e-12 or beta > hi + 1e-12:
            raise ValueError("belief outside utility domain")
        beta = min(max(beta, lo), hi)
        slopes, inters, vals = self._chain
        k = bisect_left(self.xs, beta)
        return vals[k] if self.xs[k] == beta else slopes[k - 1] * beta + inters[k - 1]

    def linear_span(self, beta: float) -> tuple[float, float]:
        """Endpoints of the maximal run of equal slopes (within 1e-11,
        relative) through the envelope segment containing ``beta``."""
        xs, vals = self.xs, self._chain[2]
        k = min(max(bisect_right(xs, beta) - 1, 0), len(xs) - 2)
        lo_i, hi_i = k, k + 1

        def slope(i):
            return (vals[i + 1] - vals[i]) / (xs[i + 1] - xs[i])

        s = slope(k)
        while lo_i > 0 and abs(slope(lo_i - 1) - s) <= 1e-11 * max(1.0, abs(s)):
            lo_i -= 1
        while hi_i < len(xs) - 1 and abs(slope(hi_i) - s) <= 1e-11 * max(1.0, abs(s)):
            hi_i += 1
        return float(xs[lo_i]), float(xs[hi_i])

    def payoff(self, tau: BeliefDistribution) -> tuple[float, bool]:
        """The envelope at the barycenter of ``tau``, read through ``tau`` on
        hull vertices (a raised vertex counts its limit), and whether ``tau``
        earns it."""
        raised = dict(self.unattained)
        vals = [raised.get(b, v) for b, v in zip(tau.beliefs.tolist(), self.utility.eval_many(tau.beliefs))]
        return float(np.array(vals) @ tau.probs), not raised.keys() & set(tau.beliefs.tolist())

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
        on[0::2] = env - u.eval_many(cuts) <= TOL
        on[1::2] = (env[:-1] - u.limits_many(cuts[:-1], True) <= TOL) & (env[1:] - u.limits_many(cuts[1:], False) <= TOL)
        flips = np.flatnonzero(np.diff(np.concatenate([[0], on, [0]])))  # run starts, then ends (exclusive)
        return tuple((float(cuts[s // 2]), float(cuts[e // 2])) for s, e in zip(flips[::2], flips[1::2]))


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
    """The concavification of ``u`` over each interval [lo, hi], with the
    breakpoints' values looked up once for all intervals."""
    bps = u.breakpoints
    bx, by, ba = bps.tolist(), u.sup_many(bps).tolist(), u.eval_many(bps).tolist()
    ends = np.column_stack([los, his])
    end_att = u.eval_many(ends)
    end_sup = np.maximum(end_att, u.limits_many(ends, [True, False])).tolist()
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
