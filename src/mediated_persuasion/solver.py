"""Best responses, equilibrium checking and search, outcome comparisons.

The sender maximizes over the feasible posterior pairs of the fixed
garbling; the mediator concavifies over the posterior interval of the
fixed experiment. Both best responses are exact for piecewise-affine
utilities and report the supremum, with whether their outcome attains it.
On the garbling's square of composite rows the sender's expected utility is
linear on each cell of a line arrangement, so its supremum is a limit at a
vertex: babbling and the corners, breakpoint pairs, or feasible-slice ends.
Through a breakpoint belief ``companion_slices`` intersects a ray of
composite rows with the square in closed form, so a slice as narrow as a
single point is found. The winner's experiment is built for the ordered pair
the square test admitted, with no fallback.

Search enumerates a finite set of experiments, one per pair of candidate
posteriors (0, 1 and the breakpoints of both utilities) on either side of
the prior, and checks the profiles each one anchors against both exact best
responses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BarycenterMismatch
from .feasible import (
    UNINFORMATIVE_X,
    _inducing_experiment,
    companion_slices,
    ordered_member_many,
    posterior_pair,
    reconstruct_experiment,
)
from .info import (
    TOL,
    BeliefDistribution,
    _as_array,
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


def _pair_tau(q1: float, q2: float, prior: float) -> BeliefDistribution:
    lo, hi = min(q1, q2), max(q1, q2)
    if hi - lo <= TOL:
        return BeliefDistribution.from_atoms([(prior, 1.0)], prior)
    p_lo, p_hi = bayes_plausible_weights(lo, hi, prior)
    return BeliefDistribution.from_atoms([(lo, p_lo), (hi, p_hi)], prior)


def _babbling_response(u: PiecewiseUtility, prior: float) -> BestResponse:
    return BestResponse(
        UNINFORMATIVE_X.copy(),
        BeliefDistribution.from_atoms([(prior, 1.0)], prior),
        float(u(prior)),
        True,
    )


def _envelope_value(u: PiecewiseUtility, conc: Concavification, tau: BeliefDistribution):
    """The envelope at the prior, read through ``tau`` on hull vertices, and whether ``tau`` earns it."""
    raised = dict(conc.unattained)
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
        tau = BeliefDistribution.from_atoms([(prior, 1.0)], prior)
        return BenchmarkSolution(tau, UNINFORMATIVE_X.copy(), base, conc, True)
    tau = _pair_tau(*conc.linear_span(prior), prior)
    x = reconstruct_experiment(np.eye(2), prior, tau)
    value, attained = _envelope_value(u_s, conc, tau)
    return BenchmarkSolution(tau, x, value, conc, attained)


# ---------------------------------------------------------------------------
# Sender best response
# ---------------------------------------------------------------------------


_BABBLING, _CORNER = 0, 1  # candidate kinds; the first two blocks of _sender_candidates


def _both_orders(lo, hi):
    """Each pair (lo, hi) followed by its swap (hi, lo), as flat q1 and q2."""
    return np.stack([lo, hi], axis=-1).ravel(), np.stack([hi, lo], axis=-1).ravel()


def _sender_candidates(u_s: PiecewiseUtility, a: np.ndarray, prior: float):
    """Candidate ordered pairs (q1, q2) of the sender best response and their kinds.

    The blocks come in tie-break order: babbling; the two off-diagonal
    corners of the garbling's square, induced by X = I and by the column
    swap; breakpoint pairs; and feasible-slice ends.
    """
    corners = np.array([posterior_pair(a, prior), posterior_pair(a[:, ::-1], prior)])
    bps = u_s.breakpoints[(u_s.breakpoints >= 0.0) & (u_s.breakpoints <= 1.0)]
    lows = np.unique(np.append(bps[bps <= prior + TOL], (0.0, prior)))
    highs = np.unique(np.append(bps[bps >= prior - TOL], (prior, 1.0)))
    pair_lo, pair_hi = (m.ravel() for m in np.meshgrid(lows, highs, indexing="ij"))

    tasks = [(c, True) for c in lows] + [(c, False) for c in highs]
    slices = companion_slices(a, prior, tasks)
    fixed = np.array([f for f, _, _ in slices])[:, None]
    is_low = np.array([low for _, low, _ in slices], dtype=bool)[:, None]
    ends = np.array([r for _, _, r in slices]).reshape(-1, 2)
    slice_lo = np.where(is_low, fixed, ends)
    slice_hi = np.where(is_low, ends, fixed)

    blocks = [
        ((prior,), (prior,)),
        (corners[:, 0], corners[:, 1]),
        _both_orders(pair_lo, pair_hi),
        _both_orders(slice_lo, slice_hi),
    ]
    q1 = np.concatenate([np.ravel(b[0]) for b in blocks])
    q2 = np.concatenate([np.ravel(b[1]) for b in blocks])
    kind = np.repeat(np.arange(len(blocks)), [np.size(b[0]) for b in blocks])
    return q1, q2, kind


def _sender_values(u: PiecewiseUtility, a: np.ndarray, prior: float, q1, q2):
    """Attained values and suprema at the candidate pairs; babbling is index 0
    and the corners follow it.

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
    (n1, n2), (p1, p2) = sorted(((q1[1], q2[1]), (q1[2], q2[2])), key=lambda c: c[0] > c[1])
    sides = []
    for q, r_lo, r_hi in ((np.minimum(q1, q2), np.where(natural, n1, p2), prior),
                          (np.maximum(q1, q2), prior, np.where(natural, n2, p1))):
        at_lo, at_hi = np.abs(q - r_lo) <= TOL, np.abs(q - r_hi) <= TOL
        sides.append(np.where(at_lo | at_hi, u.limits_many(q, at_lo), u.sup_many(q)))
    v1, v2 = np.where(natural, sides[0], sides[1]), np.where(natural, sides[1], sides[0])
    sup = np.where(deg, u_prior, np.maximum(attained, w1 * v1 + w2 * v2))

    # babbling: a jump within TOL of the prior counts as at the prior, as in
    # companion_slices, so the limits are taken outside the TOL window
    near = u.breakpoints[np.abs(u.breakpoints - prior) <= TOL]
    lims = np.sort(u.limits_many([near.min(initial=prior), near.max(initial=prior)], [False, True]))
    w = max(a[0].max(), 1.0 - a[0].min())  # the most weight the larger limit can carry
    sup[0] = max(u_prior, lims[0] + w * (lims[1] - lims[0]))
    return attained, sup


def sender_best_response(u_s: PiecewiseUtility, sigma, prior: float) -> BestResponse:
    """Supremum of expected sender utility over the feasible set of ``sigma``.

    A rank-deficient garbling leaves only the babbling outcome. Ties within
    1e-12 break first to candidates that attain the supremum, then to the
    lexicographically smallest sorted posterior pair, and among equal pairs
    to the first candidate in ``_sender_candidates`` order.
    """
    a = _as_array(sigma)
    if not garbling_rank(a).full_rank:
        return _babbling_response(u_s, prior)

    q1, q2, kind = _sender_candidates(u_s, a, prior)
    feasible = ordered_member_many(a, prior, q1, q2)
    feasible[:3] = True  # babbling and the corners are always available
    idx = np.nonzero(feasible)[0]
    q1, q2, kind = q1[idx], q2[idx], kind[idx]
    attained, sup = _sender_values(u_s, a, prior, q1, q2)

    vmax = float(sup.max())
    tie = np.nonzero(sup >= vmax - 1e-12)[0]
    lo_s = np.minimum(q1[tie], q2[tie])
    hi_s = np.maximum(q1[tie], q2[tie])
    short = attained[tie] < vmax - 1e-12
    best = int(tie[np.lexsort((hi_s, lo_s, short))[0]])

    tau = _pair_tau(q1[best], q2[best], prior)
    if kind[best] == _BABBLING or tau.is_degenerate():
        x = UNINFORMATIVE_X.copy()
    elif kind[best] == _CORNER:
        x = np.eye(2) if idx[best] == 1 else np.eye(2)[::-1]
    else:
        x = _inducing_experiment(a, prior, q1[best], q2[best])
    return BestResponse(x, tau, vmax, bool(attained[best] >= vmax - 1e-12))


# ---------------------------------------------------------------------------
# Mediator best response
# ---------------------------------------------------------------------------


def mediator_best_response(u_m: PiecewiseUtility, x, prior: float) -> BestResponse:
    """Concavify over the posterior interval of the fixed experiment.

    Among payoff-equal optimal garblings the Blackwell-most-informative one
    is selected (the maximal coincident linear run through the prior), so an
    indifferent mediator reproduces the experiment faithfully (identity).
    """
    xa = _as_array(x)
    lo, hi = sorted(posterior_pair(xa, prior))
    if hi - lo <= TOL:  # uninformative experiment: every garbling is optimal
        return BestResponse(
            np.eye(2),
            BeliefDistribution.from_atoms([(prior, 1.0)], prior),
            float(u_m(prior)),
            True,
        )
    conc = concavify(u_m, (lo, hi))
    tau = _pair_tau(*conc.linear_span(prior), prior)
    # one atom when the span is a point, and also when the prior is a kink of
    # the envelope: the span then starts at the prior and its far end has no mass
    if tau.is_degenerate():
        tau = BeliefDistribution.from_atoms([(prior, 1.0)], prior)
        value = float(conc.value(prior))
        return BestResponse(UNINFORMATIVE_X.copy(), tau, value, value <= u_m(prior))
    comp = np.column_stack(_composite(tau.beliefs, tau.probs, prior))
    sigma = comp @ np.linalg.inv(xa)
    sigma = np.clip(sigma, 0.0, 1.0)
    sigma /= sigma.sum(axis=0, keepdims=True)
    return BestResponse(sigma, tau, *_envelope_value(u_m, conc, tau))


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
    of that strategy. A search makes one memo and drops it when it returns.
    Callers share the returned responses and must not modify their arrays.
    """

    def __init__(self, game: GameSpec):
        self.game = game
        self._sender: dict[bytes, BestResponse] = {}
        self._mediator: dict[bytes, BestResponse] = {}

    def sender(self, sigma) -> BestResponse:
        return self._solve(self._sender, sender_best_response, self.game.u_sender, sigma)

    def mediator(self, x) -> BestResponse:
        return self._solve(self._mediator, mediator_best_response, self.game.u_mediator, x)

    def _solve(self, cache: dict, solve, u: PiecewiseUtility, strategy) -> BestResponse:
        a = _as_array(strategy)
        key = a.tobytes()
        if key not in cache:
            cache[key] = solve(u, a, self.game.prior)
        return cache[key]


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
    ``tol_dev``. One ``_ResponseMemo``, which lives only for this call,
    solves each best response once per distinct strategy.

    Returns the verified certificates, sorted by support size, support and
    largest gap, keeping the first of those with ``allclose`` outcomes.
    """
    memo = _ResponseMemo(game)
    pi = game.prior
    beliefs = np.unique(np.concatenate([(0.0, 1.0), game.u_sender.breakpoints, game.u_mediator.breakpoints]))
    certs = [check_equilibrium(game, _BABBLING_PROFILE, _BABBLING_PROFILE, memo=memo)]
    for lo in beliefs[beliefs < pi - TOL]:
        for hi in beliefs[beliefs > pi + TOL]:
            w = np.array(_pair_weights(lo, hi, pi))
            b = np.column_stack(_composite(np.array([lo, hi]), w, pi))  # posteriors lo, hi
            certs.append(check_equilibrium(game, b, memo.mediator(b).strategy, memo=memo))
            certs.append(check_equilibrium(game, memo.sender(b).strategy, b, memo=memo))

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
