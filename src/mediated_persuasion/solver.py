"""Best responses, equilibrium checking and search, outcome comparisons.

The sender maximizes over the feasible posterior pairs of the fixed
garbling; the mediator concavifies over the posterior interval of the
fixed experiment. Both best responses are exact for piecewise-affine
utilities and report the supremum, with whether their outcome attains it.
On the garbling's square of composite rows the sender's expected utility is
linear on each cell of a line arrangement, so its supremum is a limit at a
vertex: babbling and the corners, breakpoint pairs, or feasible-slice ends.
Through a breakpoint belief the feasible slice is a ray of composite rows
cut by the square in closed form, so a slice as narrow as a single point is
found. The winner's experiment is built for the ordered pair the square
test admitted, with no fallback. The mediator reads the linear span through
the prior and its value straight from the upper-hull vertices of its
interval; it builds no envelope.

Each best response has one batched core, ``_sender_batch`` or
``_mediator_batch``, that solves a stack of strategies in one numpy pass
over all their candidates; the public single-strategy functions are a
batch of one. Search enumerates a finite set of experiments, one per pair
of candidate posteriors (0, 1 and the breakpoints of both utilities) on
either side of the prior, solves the best responses they need in two
rounds of batches, and checks the profiles each one anchors against both
exact best responses.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BarycenterMismatch, DimensionMismatch
from .feasible import (
    UNINFORMATIVE_X,
    _inducing_experiment,
    _slice_ends,
    _square_test,
    reconstruct_experiment,
)
from .info import (
    TOL,
    BeliefDistribution,
    _as_array,
    _bayes,
    _composite,
    _pair_weights,
    bayes_plausible_weights,
    garbling_rank,
    induced_tau,
    is_mps,
)
from .payoffs import (
    MEDIATOR,
    RECEIVER,
    SENDER,
    Concavification,
    PiecewiseUtility,
    _hull_chain,
    _hull_vertices,
    _linear_span,
    concavify,
    expected_utility,
)


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Full description of one mediated persuasion game."""

    prior: float
    u_sender: PiecewiseUtility
    u_mediator: PiecewiseUtility
    u_receiver: Optional[PiecewiseUtility] = None
    tol_dev: float = 1e-6

    def __post_init__(self):
        if not TOL < self.prior < 1.0 - TOL:
            raise ValueError("prior must be interior to (0, 1)")
        for u in (self.u_sender, self.u_mediator, self.u_receiver):
            if u is not None and u.domain != (0.0, 1.0):
                raise ValueError("game utilities must cover the whole belief space")


@dataclass(frozen=True, eq=False)
class BestResponse:
    """An optimizer's strategy with the induced outcome and value.

    ``value`` is the supremum of the optimizer's payoff. ``attained`` says
    whether the returned outcome earns it; if not, the outcome is the limit
    of outcomes whose payoffs approach it.
    """

    strategy: np.ndarray
    tau: BeliefDistribution
    value: float
    attained: bool


def _point_mass(prior: float) -> BeliefDistribution:
    return BeliefDistribution.from_atoms([(prior, 1.0)], prior)


def _pair_tau(q1: float, q2: float, prior: float) -> BeliefDistribution:
    lo, hi = min(q1, q2), max(q1, q2)
    if hi - lo <= TOL:
        return _point_mass(prior)
    p_lo, p_hi = bayes_plausible_weights(lo, hi, prior)
    return BeliefDistribution.from_atoms([(lo, p_lo), (hi, p_hi)], prior)


def _babbling_response(u: PiecewiseUtility, prior: float) -> BestResponse:
    return BestResponse(UNINFORMATIVE_X.copy(), _point_mass(prior), float(u(prior)), True)


def _envelope_value(u: PiecewiseUtility, unattained, tau: BeliefDistribution):
    """The envelope at the prior, read through ``tau`` on hull vertices, and
    whether ``tau`` earns it; ``unattained`` lists the (belief, value) hull
    vertices whose value is a limit."""
    raised = dict(unattained)
    vals = [raised.get(b, v) for b, v in zip(tau.beliefs.tolist(), u.eval_many(tau.beliefs))]
    return float(np.array(vals) @ tau.probs), not raised.keys() & set(tau.beliefs.tolist())


# ---------------------------------------------------------------------------
# Unmediated benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BenchmarkSolution:
    tau: BeliefDistribution
    x: np.ndarray
    value: float  # the envelope at the prior
    concavification: Concavification
    attained: bool  # whether ``tau`` earns ``value``


def bp_solve(u_s: PiecewiseUtility, prior: float) -> BenchmarkSolution:
    """Optimal unmediated persuasion: concavify over the whole belief space.

    When concavification gains nothing at the prior the babbling outcome is
    returned (point mass, uninformative experiment).
    """
    conc = concavify(u_s, (0.0, 1.0))
    base = float(u_s(prior))
    if conc.value(prior) <= base + TOL:
        return BenchmarkSolution(_point_mass(prior), UNINFORMATIVE_X.copy(), base, conc, True)
    tau = _pair_tau(*conc.linear_span(prior), prior)
    x = reconstruct_experiment(np.eye(2), prior, tau)
    value, attained = _envelope_value(u_s, conc.unattained, tau)
    return BenchmarkSolution(tau, x, value, conc, attained)


# ---------------------------------------------------------------------------
# Sender best response
# ---------------------------------------------------------------------------


_BABBLING, _CORNER = 0, 1  # candidate kinds; the first two blocks of _sender_candidates


def _both_orders(lo, hi):
    """Each pair (lo, hi) followed by its swap (hi, lo), as q1 and q2 flat
    over every axis after the leading one."""
    q1, q2 = np.stack([lo, hi], axis=-1), np.stack([hi, lo], axis=-1)
    return q1.reshape(len(q1), -1), q2.reshape(len(q2), -1)


def _sender_candidates(u_s: PiecewiseUtility, a: np.ndarray, prior: float):
    """Candidate ordered pairs (q1, q2) of the sender best response for a
    stack ``a`` of n full-rank garblings.

    Returns q1 and q2, shaped (n, k), the kind of each of the k candidates
    and, shaped (n, k), whether the candidate exists. The blocks come in
    tie-break order: babbling; the two off-diagonal corners of each
    garbling's square, induced by X = I and by the column swap; breakpoint
    pairs, the same for every garbling; and feasible-slice ends, where a
    slice that does not exist holds a masked slot, so every garbling has the
    same candidate order.
    """
    n = len(a)
    # (n, corner, posterior): the corners induced by X = I and by the column swap
    corners = np.stack([_bayes(b[..., 0], b[..., 1], prior)[1] for b in (a, a[..., ::-1])], axis=1)
    bps = u_s.breakpoints[(u_s.breakpoints >= 0.0) & (u_s.breakpoints <= 1.0)]
    lows = np.unique(np.append(bps[bps <= prior + TOL], (0.0, prior)))
    highs = np.unique(np.append(bps[bps >= prior - TOL], (prior, 1.0)))
    pair_lo, pair_hi = (m.reshape(1, -1) for m in np.meshgrid(lows, highs, indexing="ij"))

    fixed = np.concatenate([lows, highs])
    is_low = np.arange(fixed.size) < lows.size
    slot, ends, present = _slice_ends(a, prior, fixed, is_low)
    f, low = fixed[slot, None], is_low[slot, None]

    blocks = [
        (np.full((n, 1), prior), np.full((n, 1), prior)),
        (corners[..., 0], corners[..., 1]),
        tuple(np.broadcast_to(q, (n, q.shape[1])) for q in _both_orders(pair_lo, pair_hi)),
        _both_orders(np.where(low, f, ends), np.where(low, ends, f)),
    ]
    q1 = np.concatenate([b[0] for b in blocks], axis=1)
    q2 = np.concatenate([b[1] for b in blocks], axis=1)
    sizes = [b[0].shape[1] for b in blocks]
    kind = np.repeat(np.arange(len(blocks)), sizes)
    exists = np.concatenate([np.ones((n, sum(sizes[:-1])), dtype=bool), np.repeat(present, 4, axis=1)], axis=1)
    return q1, q2, kind, exists


def _sender_values(u: PiecewiseUtility, a: np.ndarray, prior: float, q1, q2):
    """Attained values and suprema at the candidate pairs, shaped (n, k) for
    the stack ``a`` of n garblings; babbling is column 0 and the corners
    follow it.

    On each cell of the square, cut by the lines where a posterior sits on a
    breakpoint, the expected utility is linear, so near a vertex it tends to
    one-sided limits. Inside its range ([corner, prior] for the low
    posterior, [prior, corner] for the high one) a posterior takes either
    side (``sup_many``); at a range end only the inward limit. Next to
    babbling, the square's diagonal corners (t, t), t in {m, M}, put weight t
    on the low posterior, or 1 - t with the labels swapped.
    """
    deg = np.abs(q2 - q1) <= TOL
    w1, w2 = _pair_weights(q1, q2, prior)
    q1, q2 = np.clip(q1, 0.0, 1.0), np.clip(q2, 0.0, 1.0)
    u_prior = float(u(prior))
    attained = np.where(deg, u_prior, w1 * u.eval_many(q1) + w2 * u.eval_many(q2))

    natural = q1 <= q2
    # columns of the natural corner (q1 <= q2) and of the other one: X = I's
    # corner is the natural one unless only the swap's is
    swap = (q1[:, 1] > q2[:, 1]) & (q1[:, 2] <= q2[:, 2])
    nat, per = np.where(swap, 2, 1)[:, None], np.where(swap, 1, 2)[:, None]
    (n1, n2), (p1, p2) = ((np.take_along_axis(q, c, axis=1) for q in (q1, q2)) for c in (nat, per))
    sides = []
    for q, r_lo, r_hi in ((np.minimum(q1, q2), np.where(natural, n1, p2), prior),
                          (np.maximum(q1, q2), prior, np.where(natural, n2, p1))):
        at_lo, at_hi = np.abs(q - r_lo) <= TOL, np.abs(q - r_hi) <= TOL
        sides.append(np.where(at_lo | at_hi, u.limits_many(q, at_lo), u.sup_many(q)))
    v1, v2 = np.where(natural, sides[0], sides[1]), np.where(natural, sides[1], sides[0])
    sup = np.where(deg, u_prior, np.maximum(attained, w1 * v1 + w2 * v2))

    # babbling: a jump within TOL of the prior counts as at the prior, as in
    # the feasible slices, so the limits are taken outside the TOL window
    near = u.breakpoints[np.abs(u.breakpoints - prior) <= TOL]
    lims = np.sort(u.limits_many([near.min(initial=prior), near.max(initial=prior)], [False, True]))
    w = np.maximum(a[:, 0].max(axis=-1), 1.0 - a[:, 0].min(axis=-1))  # the most weight the larger limit can carry
    sup[:, 0] = np.maximum(u_prior, lims[0] + w * (lims[1] - lims[0]))
    return attained, sup


def _sender_batch(u_s: PiecewiseUtility, sigmas: np.ndarray, prior: float) -> list[BestResponse]:
    """Sender best responses to a stack of 2x2 garblings, in one numpy pass
    over all their candidates; see :func:`sender_best_response`."""
    full = np.array([garbling_rank(s).full_rank for s in sigmas], dtype=bool)
    out = [None if f else _babbling_response(u_s, prior) for f in full]
    if not full.any():
        return out
    a = sigmas[full]
    if a.shape[1:] != (2, 2):
        raise DimensionMismatch("expected a 2x2 garbling")
    q1, q2, kind, exists = _sender_candidates(u_s, a, prior)
    feasible = _square_test(a[:, None], prior, q1, q2) & exists
    feasible[:, :3] = True  # babbling and the corners are always available
    attained, sup = _sender_values(u_s, a, prior, q1, q2)
    sup[~feasible] = -np.inf

    vmax = sup.max(axis=1, keepdims=True)
    tie = sup >= vmax - 1e-12
    short = attained < vmax - 1e-12
    # ties first, then attained, then the smallest sorted pair, then candidate order
    best = np.lexsort((np.maximum(q1, q2), np.minimum(q1, q2), short, ~tie), axis=-1)[:, :1]
    picked = (np.take_along_axis(v, best, axis=1)[:, 0] for v in (q1, q2, attained))
    for i, a_i, b, v, b1, b2, got in zip(np.flatnonzero(full), a, best[:, 0].tolist(), vmax[:, 0].tolist(), *picked):
        tau = _pair_tau(b1, b2, prior)
        if kind[b] == _BABBLING or tau.is_degenerate():
            x = UNINFORMATIVE_X.copy()
        elif kind[b] == _CORNER:
            x = np.eye(2) if b == 1 else np.eye(2)[::-1]
        else:
            x = _inducing_experiment(a_i, prior, b1, b2)
        out[i] = BestResponse(x, tau, v, bool(got >= v - 1e-12))
    return out


def sender_best_response(u_s: PiecewiseUtility, sigma, prior: float) -> BestResponse:
    """Supremum of expected sender utility over the feasible set of ``sigma``.

    A rank-deficient garbling leaves only the babbling outcome. Ties within
    1e-12 break first to candidates that attain the supremum, then to the
    lexicographically smallest sorted posterior pair, and among equal pairs
    to the first candidate in ``_sender_candidates`` order. This is a batch
    of one for :func:`_sender_batch`.
    """
    return _sender_batch(u_s, _as_array(sigma)[None], prior)[0]


# ---------------------------------------------------------------------------
# Mediator best response
# ---------------------------------------------------------------------------


def _mediator_batch(u_m: PiecewiseUtility, xs: np.ndarray, prior: float) -> list[BestResponse]:
    """Mediator best responses to a stack of 2x2 experiments; see
    :func:`mediator_best_response`.

    Each reply reads the envelope over its posterior interval from the hull
    vertices (``payoffs._hull_vertices``, one breakpoint lookup for the
    batch): the linear span through the prior, and the value of the outcome
    on it, raised at vertices whose value is a limit.
    """
    _, q = _bayes(xs[..., 0], xs[..., 1], prior)
    lo, hi = np.minimum(q[:, 0], q[:, 1]), np.maximum(q[:, 0], q[:, 1])
    informative = hi - lo > TOL
    # an uninformative experiment leaves every garbling optimal
    out = [None if f else BestResponse(np.eye(2), _point_mass(prior), float(u_m(prior)), True) for f in informative]
    hulls = _hull_vertices(u_m, lo[informative], hi[informative])
    for i, (vx, vy, raised) in zip(np.flatnonzero(informative), hulls):
        slopes, inters, vals = _hull_chain(vx, vy)
        tau = _pair_tau(*_linear_span(vx, vals, prior), prior)
        # one atom when the span is a point, and also when the prior is a kink of
        # the envelope: the span then starts at the prior and its far end has no mass
        if tau.is_degenerate():
            # the envelope at the prior, read as PiecewiseUtility.__call__ reads it
            beta = min(max(prior, vx[0]), vx[-1])
            k = bisect_left(vx, beta)
            value = vals[k] if vx[k] == beta else slopes[k - 1] * beta + inters[k - 1]
            out[i] = BestResponse(UNINFORMATIVE_X.copy(), _point_mass(prior), value, value <= u_m(prior))
            continue
        comp = np.column_stack(_composite(tau.beliefs, tau.probs, prior))
        sigma = np.clip(comp @ np.linalg.inv(xs[i]), 0.0, 1.0)
        sigma /= sigma.sum(axis=0, keepdims=True)
        unattained = [(x, y) for x, y, r in zip(vx, vy, raised) if r]
        out[i] = BestResponse(sigma, tau, *_envelope_value(u_m, unattained, tau))
    return out


def mediator_best_response(u_m: PiecewiseUtility, x, prior: float) -> BestResponse:
    """Concavify over the posterior interval of the fixed experiment.

    Among payoff-equal optimal garblings the Blackwell-most-informative one
    is selected (the maximal coincident linear run through the prior), so an
    indifferent mediator reproduces the experiment faithfully (identity).
    This is a batch of one for :func:`_mediator_batch`.
    """
    return _mediator_batch(u_m, _as_array(x)[None], prior)[0]


# ---------------------------------------------------------------------------
# Equilibrium checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Deviation:
    player: str
    strategy: np.ndarray
    tau: BeliefDistribution
    value: float
    gain: float


@dataclass(frozen=True, eq=False)
class EquilibriumCertificate:
    x: np.ndarray
    sigma: np.ndarray
    tau: BeliefDistribution
    sender_value: float
    mediator_value: float
    sender_gap: float
    mediator_gap: float
    verified: bool
    tol: float
    witness: Optional[Deviation] = None

    @property
    def max_gap(self) -> float:
        return max(self.sender_gap, self.mediator_gap)


def _certificate(game, xa, sa, br_s, br_m, tol) -> EquilibriumCertificate:
    tau = induced_tau(sa @ xa, game.prior)
    cur_s = float(expected_utility(game.u_sender, tau))
    cur_m = float(expected_utility(game.u_mediator, tau))
    gap_s = max(br_s.value - cur_s, 0.0)
    gap_m = max(br_m.value - cur_m, 0.0)
    verified = gap_s <= tol and gap_m <= tol
    witness = None
    if not verified:
        if gap_s >= gap_m:
            witness = Deviation(SENDER, br_s.strategy, br_s.tau, br_s.value, gap_s)
        else:
            witness = Deviation(MEDIATOR, br_m.strategy, br_m.tau, br_m.value, gap_m)
    return EquilibriumCertificate(
        x=xa,
        sigma=sa,
        tau=tau,
        sender_value=cur_s,
        mediator_value=cur_m,
        sender_gap=gap_s,
        mediator_gap=gap_m,
        verified=verified,
        tol=tol,
        witness=witness,
    )


class _ResponseMemo:
    """Best responses of one game, each computed once per fixed strategy.

    The sender's best response depends only on the garbling and the
    mediator's only on the experiment, so each is keyed by the float64 bytes
    of that strategy. A lookup takes a list of strategies and hands the
    distinct ones it has not seen to the batched core (``_sender_batch`` or
    ``_mediator_batch``) in one call. A search makes one memo and drops it
    when it returns. Callers share the returned responses and must not
    modify their arrays.
    """

    def __init__(self, game: GameSpec):
        self.game = game
        self._sender: dict[bytes, BestResponse] = {}
        self._mediator: dict[bytes, BestResponse] = {}

    def sender(self, sigma) -> BestResponse:
        return self.senders([sigma])[0]

    def mediator(self, x) -> BestResponse:
        return self.mediators([x])[0]

    def senders(self, sigmas) -> list[BestResponse]:
        return self._solve(self._sender, _sender_batch, self.game.u_sender, sigmas)

    def mediators(self, xs) -> list[BestResponse]:
        return self._solve(self._mediator, _mediator_batch, self.game.u_mediator, xs)

    def _solve(self, cache: dict, solve, u: PiecewiseUtility, strategies) -> list[BestResponse]:
        arrays = [_as_array(s) for s in strategies]
        keys = [a.tobytes() for a in arrays]
        missing = {k: a for k, a in zip(keys, arrays) if k not in cache}  # first of each key
        if missing:
            cache.update(zip(missing, solve(u, np.array(list(missing.values())), self.game.prior)))
        return [cache[k] for k in keys]


def check_equilibrium(
    game: GameSpec, x, sigma, tol: Optional[float] = None, *, memo: Optional[_ResponseMemo] = None
) -> EquilibriumCertificate:
    """Verify a pure strategy profile by solving both best responses.

    With ``memo`` the best responses come from it (computed there on first
    use), so repeated checks of one strategy solve its best response once.
    """
    xa, sa = _as_array(x), _as_array(sigma)
    tol = game.tol_dev if tol is None else tol
    memo = _ResponseMemo(game) if memo is None else memo
    return _certificate(game, xa, sa, memo.sender(sa), memo.mediator(xa), tol)


# ---------------------------------------------------------------------------
# Equilibrium search
# ---------------------------------------------------------------------------


_BABBLING_PROFILE = np.array([[0.0, 0.0], [1.0, 1.0]])  # X = sigma: one signal always


def search_equilibria(game: GameSpec) -> list[EquilibriumCertificate]:
    """Certify the profiles built from breakpoint-pair experiments.

    The candidate posteriors are 0, 1 and the breakpoints of both utilities.
    For each pair of them, one below and one above the prior (each more than
    ``TOL`` away), B is the experiment with those two posteriors. Two
    profiles are checked per B: the sender plays B and the mediator its
    reply to B; and the mediator plays B as a garbling and the sender its
    reply to that garbling. Babbling, with one signal from both players, is
    checked as well. Each profile goes through ``check_equilibrium`` at
    ``tol_dev``.

    One ``_ResponseMemo``, which lives only for this call, solves the best
    responses in two rounds of batches, one batch per player per round.
    Round 1 solves the mediator's reply to every B and the sender's reply to
    every B as a garbling, both with babbling. Round 2 solves the sender's
    replies to the mediator's round-1 garblings and the mediator's replies
    to the sender's round-1 experiments. Every check then reads both best
    responses from the memo, and each distinct strategy is solved once.

    Returns the verified certificates, sorted by support size, support and
    largest gap, keeping the first of those with ``allclose`` outcomes.
    """
    memo = _ResponseMemo(game)
    pi = game.prior
    beliefs = np.unique(np.concatenate([(0.0, 1.0), game.u_sender.breakpoints, game.u_mediator.breakpoints]))
    bs = []
    for lo in beliefs[beliefs < pi - TOL]:
        for hi in beliefs[beliefs > pi + TOL]:
            w = np.array(_pair_weights(lo, hi, pi))
            bs.append(np.column_stack(_composite(np.array([lo, hi]), w, pi)))  # posteriors lo, hi
    mediator_replies = memo.mediators([_BABBLING_PROFILE, *bs])[1:]
    sender_replies = memo.senders([_BABBLING_PROFILE, *bs])[1:]
    memo.senders([r.strategy for r in mediator_replies])
    memo.mediators([r.strategy for r in sender_replies])

    certs = [check_equilibrium(game, _BABBLING_PROFILE, _BABBLING_PROFILE, memo=memo)]
    for b, to_b, from_b in zip(bs, mediator_replies, sender_replies):
        certs.append(check_equilibrium(game, b, to_b.strategy, memo=memo))
        certs.append(check_equilibrium(game, from_b.strategy, b, memo=memo))

    final: list[EquilibriumCertificate] = []
    for cert in sorted(
        (c for c in certs if c.verified),
        key=lambda c: (c.tau.beliefs.size, tuple(c.tau.beliefs), c.max_gap),
    ):
        if not any(cert.tau.allclose(f.tau) for f in final):
            final.append(cert)
    return final


# ---------------------------------------------------------------------------
# Outcome comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    blackwell: str  # mp_more_informative | bp_more_informative | equivalent | unranked
    welfare: dict
    receiver_benefits: bool
    mps_witness: Optional[np.ndarray] = None


def compare_outcomes(
    game: GameSpec, tau_mp: BeliefDistribution, tau_bp: BeliefDistribution
) -> ComparisonReport:
    """Blackwell-rank two outcome distributions and report welfare deltas."""
    if abs(tau_mp.prior - tau_bp.prior) > TOL:
        raise BarycenterMismatch("outcomes have different priors")
    fwd = is_mps(tau_mp, tau_bp)
    rev = is_mps(tau_bp, tau_mp)
    if fwd and rev:
        rank = "equivalent"
    elif fwd:
        rank = "mp_more_informative"
    elif rev:
        rank = "bp_more_informative"
    else:
        rank = "unranked"
    players = [(SENDER, game.u_sender), (MEDIATOR, game.u_mediator)]
    if game.u_receiver is not None:
        players.append((RECEIVER, game.u_receiver))
    welfare = {}
    for name, u in players:
        v_mp = float(expected_utility(u, tau_mp))
        v_bp = float(expected_utility(u, tau_bp))
        welfare[name] = {"mp": v_mp, "bp": v_bp, "delta": v_mp - v_bp}
    benefits = (
        game.u_receiver is not None and welfare[RECEIVER]["delta"] > TOL
    )
    return ComparisonReport(
        blackwell=rank,
        welfare=welfare,
        receiver_benefits=bool(benefits),
        mps_witness=fwd.witness if fwd else (rev.witness if rev else None),
    )
