"""Utilities over posterior beliefs: piecewise-affine values, receiver
reduction with sender-favored ties, and concavification.

A utility is a partition of the belief interval into affine pieces whose
endpoints may be open, closed, or isolated singletons; that is enough to
express step payoffs that take distinct values at isolated beliefs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
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
        object.__setattr__(self, "_edges_list", edges)

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

    @property
    def max_abs_slope(self) -> float:
        return float(max((abs(p.slope) for p in self.pieces), default=0.0))

    def __call__(self, beta: float) -> float:
        beta = float(beta)
        lo, hi = self.domain
        if beta < lo - 1e-12 or beta > hi + 1e-12:
            raise ValueError("belief outside utility domain")
        beta = min(max(beta, lo), hi)
        edges = self._edges_list
        i = bisect_left(edges, beta)
        if i < len(edges) and edges[i] == beta:
            return float(self._value_at[i])
        return float(self._slope_at[i] * beta + self._inter_at[i])

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
    """Upper concave envelope of a utility over a belief sub-interval.

    ``coincident`` lists closed intervals (points when degenerate) where the
    envelope meets the utility; optimal posterior supports live there.
    ``unattained`` lists the hull vertices (belief, value) whose value is a
    one-sided limit above the attained value: an optimum supported there is
    only approached.
    """

    envelope: PiecewiseUtility
    coincident: tuple[tuple[float, float], ...]
    domain: tuple[float, float]
    unattained: tuple[tuple[float, float], ...] = ()

    def value(self, beta: float) -> float:
        return self.envelope(beta)

    def linear_span(self, beta: float) -> tuple[float, float]:
        """Endpoints of the maximal linear envelope segment containing ``beta``."""
        verts = self.envelope.breakpoints
        return _linear_span(verts.tolist(), self.envelope.eval_many(verts).tolist(), beta)


def _linear_span(verts: list, vals: list, beta: float) -> tuple[float, float]:
    """Endpoints of the maximal run of equal slopes (within 1e-11, relative)
    through the segment of the vertex chain ``(verts, vals)`` containing ``beta``."""
    k = min(max(bisect_right(verts, beta) - 1, 0), len(verts) - 2)
    lo_i, hi_i = k, k + 1

    def slope(i):
        return (vals[i + 1] - vals[i]) / (verts[i + 1] - verts[i])

    s = slope(k)
    while lo_i > 0 and abs(slope(lo_i - 1) - s) <= 1e-11 * max(1.0, abs(s)):
        lo_i -= 1
    while hi_i < len(verts) - 1 and abs(slope(hi_i) - s) <= 1e-11 * max(1.0, abs(s)):
        hi_i += 1
    return float(verts[lo_i]), float(verts[hi_i])


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


def _hull_vertices(u: PiecewiseUtility, los, his) -> list:
    """The envelope's vertices over each interval [lo, hi], as python lists.

    The envelope is the upper hull of the utility's supremum at its
    breakpoints inside the interval (``sup_many``), at ``lo`` from above and
    at ``hi`` from below; the utility is affine in between. Returns one
    ``(xs, ys, raised)`` per interval, ``raised`` marking the vertices whose
    value is a one-sided limit above the attained value. The breakpoints'
    values are looked up once for all intervals.
    """
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
        out.append(([xs[k] for k in idx], [ys[k] for k in idx], [ys[k] > att[k] for k in idx]))
    return out


def _hull_chain(xs: list, ys: list):
    """Slopes, intercepts and vertex values of the envelope through hull
    vertices, computed as :meth:`PiecewiseUtility.from_points` builds its
    pieces and evaluates them: each vertex but the last takes the value of
    the piece it starts, the last that of the piece it ends."""
    slopes = [(y1 - y0) / (x1 - x0) for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:])]
    inters = [y0 - s * x0 for s, x0, y0 in zip(slopes, xs, ys)]
    vals = [s * x0 + c for s, c, x0 in zip(slopes, inters, xs)]
    vals.append(slopes[-1] * xs[-1] + inters[-1])
    return slopes, inters, vals


def concavify(u: PiecewiseUtility, domain=(0.0, 1.0)) -> Concavification:
    """Upper concave envelope over ``domain``, built from the hull vertices of
    :func:`_hull_vertices`. The envelope ``PiecewiseUtility`` and its
    coincident set are built here for ``bp_solve`` and direct callers; the
    mediator's best response reads its span and value from the hull vertices
    alone (``solver._mediator_batch``)."""
    lo, hi = float(domain[0]), float(domain[1])
    if not (u.domain[0] - 1e-12 <= lo < hi <= u.domain[1] + 1e-12):
        if lo >= hi:
            raise EmptyDomain(f"domain [{lo}, {hi}] is empty")
        raise ValueError("domain exceeds the utility's domain")
    (vx, vy, raised), = _hull_vertices(u, [lo], [hi])
    env = PiecewiseUtility.from_points(list(zip(vx, vy)))
    coincident = _coincident_set(u, env, lo, hi)
    unattained = tuple((x, y) for x, y, r in zip(vx, vy, raised) if r)
    return Concavification(env, tuple(coincident), (lo, hi), unattained)


def _coincident_set(u, env, lo, hi):
    cuts = np.unique(
        np.concatenate(
            [
                u.breakpoints[(u.breakpoints >= lo) & (u.breakpoints <= hi)],
                env.breakpoints,
                [lo, hi],
            ]
        )
    )
    out: list[tuple[float, float]] = []

    def push(a, b):
        if out and abs(out[-1][1] - a) <= 1e-15:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))

    for x0, x1 in zip(cuts, cuts[1:]):
        mid = 0.5 * (x0 + x1)
        du0 = env(x0) - u(x0)
        du1 = env(x1) - u(x1)
        dum = env(mid) - u(mid)
        if max(du0, dum, du1) <= TOL:
            push(float(x0), float(x1))
        else:
            if du0 <= TOL:
                push(float(x0), float(x0))
            if du1 <= TOL:
                push(float(x1), float(x1))
    # merge and dedupe point entries swallowed by intervals
    merged: list[tuple[float, float]] = []
    for a, b in out:
        if merged and a <= merged[-1][1] + 1e-15:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged
