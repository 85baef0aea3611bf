"""Best responses, equilibrium checking and search, outcome comparisons.

The sender maximizes over the feasible posterior pairs of the fixed
garbling; the mediator concavifies over the posterior interval of the
fixed experiment. Both best responses are exact for piecewise-affine
utilities and report the supremum, with whether their outcome attains it.
On the garbling's square of composite rows the sender's expected utility is
linear on each cell of a line arrangement, so its supremum is a limit at a
vertex: babbling and the corners, breakpoint pairs, or feasible-slice ends,
each listed once. Through a breakpoint belief the feasible slice is a ray of
composite rows cut by the square, which is convex, so its ends are where
the ray enters and leaves the square, in closed form, each in the one
signal orientation it was computed for. The one square test that decides
every candidate admits them, so a slice as narrow as a single point is
found. The winner's experiment is built for the ordered pair the square
test admitted, with no fallback. The mediator reads the linear span through
the prior and its value from the ``Concavification`` of its interval; the
unmediated benchmark ``bp_solve`` is the mediator core's reply to X = I,
whose interval is all of [0, 1].

Each best response has one batched core, ``_sender_batch`` or
``_mediator_batch``, that solves a stack of strategies in numpy passes over
all their candidates, then builds all the replies' outcomes in one call of
``_pair_taus``, through the rules kernel ``info._belief_rows`` that every
distribution goes through, and their strategies with one stacked inverse;
the public single-strategy functions are a batch of one. Babbling, a
rank-deficient garbling and an uninformative experiment are rows of their
batch like any other: their outcome is the pair (prior, prior) in that
call, and no distribution is built on its own. The sender core works
through its garblings in chunks of at most ``_CANDIDATE_BUDGET``
candidates, which bounds its memory on utilities with many breakpoints;
every row's arithmetic is its own, so the chunks change no bit.
Each core locates a stack of beliefs on the utility once
(``PiecewiseUtility._locate``) and reads every value it needs there. The
certificate core ``_certificates`` checks a stack of profiles the same way,
given each profile's two best responses, and ``check_equilibrium`` is a
batch of one. Search enumerates a finite set of experiments, one per pair of
candidate posteriors (0, 1 and the breakpoints of both utilities) on either
side of the prior, solves the best responses they need in three batches, and
certifies every profile it anchors in one call, handing the certificate core
each profile's two replies by index into those batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BarycenterMismatch, DimensionMismatch
from .feasible import (
    UNINFORMATIVE_X,
    _inducing_experiments,
    _on_signal_1,
    _slice_ends,
    _square_test,
)
from .info import (
    TOL,
    BeliefDistribution,
    _bayes,
    _composite,
    _induced_taus,
    _pair_weights,
    bayes_plausible_weights,
    is_mps,
    validate_stochastic,
)
from .payoffs import (
    _ABOVE,
    _BELOW,
    _SUP,
    _VALUE,
    MEDIATOR,
    RECEIVER,
    SENDER,
    PiecewiseUtility,
    _concavifications,
    _expected_utilities,
    _payoffs,
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
        for name, u in ((SENDER, self.u_sender), (MEDIATOR, self.u_mediator), (RECEIVER, self.u_receiver)):
            if u is not None and u.domain != (0.0, 1.0):
                raise ValueError(f"the {name} utility must cover the whole belief space")


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


def _pair_taus(q1, q2, prior: float):
    """The outcome of each posterior pair (q1[i], q2[i]), built in one pass: a
    point mass at the prior when the pair is at most ``TOL`` wide, else both
    posteriors with the weights of :func:`bayes_plausible_weights`. Returns
    the outcomes and their rows (``BeliefDistribution._from_rows``); a wide
    pair has one atom when a posterior's weight is at most ``TOL``."""
    q1, q2 = np.asarray(q1, dtype=float), np.asarray(q2, dtype=float)
    lo, hi = np.where(q2 < q1, q2, q1), np.where(q2 > q1, q2, q1)  # as min() and max() pick
    wide = ~(hi - lo <= TOL)
    # a narrow pair becomes the atom (prior, 1) next to one of no mass
    lo, hi = np.where(wide, lo, prior), np.where(wide, hi, prior)
    p_lo, p_hi = bayes_plausible_weights(lo, hi, prior)
    beliefs, probs = np.array([lo, hi]).T, np.array([np.where(wide, p_lo, 1.0), np.where(wide, p_hi, 0.0)]).T
    return BeliefDistribution._from_rows(beliefs, probs, prior)


# ---------------------------------------------------------------------------
# Unmediated benchmark
# ---------------------------------------------------------------------------


def bp_solve(u_s: PiecewiseUtility, prior: float) -> BestResponse:
    """Optimal unmediated persuasion: the mediator core's reply to full
    revelation, which concavifies over the whole belief space; its
    ``strategy`` is the experiment.

    When concavification gains nothing at the prior the babbling outcome is
    returned (point mass, uninformative experiment).
    """
    br = _mediator_batch(u_s, np.eye(2)[None], prior)[0]
    base = float(u_s(prior))
    if br.value <= base + TOL:
        (tau,), *_ = _pair_taus([prior], [prior], prior)
        return BestResponse(UNINFORMATIVE_X.copy(), tau, base, True)
    return br


# ---------------------------------------------------------------------------
# Sender best response
# ---------------------------------------------------------------------------


_BABBLING, _CORNER, _PAIR, _SLICE_END = range(4)  # candidate kinds, the blocks of _sender_candidates


def _shared_candidates(u_s: PiecewiseUtility, prior: float):
    """The part of the sender's candidates that no garbling changes.

    The l low beliefs are 0 and the breakpoints more than TOL below the
    prior; the h high ones are 1 and the breakpoints more than TOL above it.
    A belief within TOL of the prior would pair as babbling does, and
    column 0 covers that. Returns the breakpoint pairs in both orders, each
    shaped (1, 2 l h); the low and high beliefs together as the fixed
    beliefs whose rays :func:`feasible._slice_ends` follows through the
    square, and which of them are low; and the kind of each candidate a
    garbling gets."""
    bps = u_s.breakpoints[(u_s.breakpoints >= 0.0) & (u_s.breakpoints <= 1.0)]
    lows = np.unique(np.append(bps[bps < prior - TOL], 0.0))
    highs = np.unique(np.append(bps[bps > prior + TOL], 1.0))
    pair = np.empty((lows.size, highs.size, 2))  # (low, high) for every low and high belief
    pair[..., 0], pair[..., 1] = lows[:, None], highs
    pairs = pair.reshape(1, -1), pair[..., ::-1].reshape(1, -1)  # each pair followed by its swap
    fixed = np.concatenate([lows, highs])
    # a fixed belief's ray enters and leaves the square in each of 2 orientations
    kind = np.repeat([_BABBLING, _CORNER, _PAIR, _SLICE_END], [1, 2, pairs[0].shape[1], 4 * fixed.size])
    return pairs, fixed, fixed < prior, kind


def _sender_candidates(a: np.ndarray, prior: float, shared):
    """Candidate ordered pairs (q1, q2) of the sender best response for a
    stack ``a`` of n full-rank garblings, with the ``shared`` part from
    :func:`_shared_candidates`.

    Returns q1 and q2, shaped (n, k), in blocks of the candidates' kinds and
    in tie-break order: babbling; the two off-diagonal corners of each
    garbling's square, induced by X = I and by the column swap; breakpoint
    pairs, the same for every garbling; and the companions where each fixed
    belief's ray enters and leaves the square (:func:`feasible._slice_ends`),
    natural orientation first, each pair in the orientation its end was
    computed for (:func:`feasible._on_signal_1`). These are the vertices of
    the square's line arrangement, each listed once. An end off the ray's
    range reads as the pair (f, f), so every garbling has the same candidate
    order; only the square test decides which candidates are feasible.
    """
    pairs, fixed, is_low, kind = shared
    # (n, corner, posterior): the corners induced by X = I and by the column swap
    corners = np.stack([_bayes(b[..., 0], b[..., 1], prior)[1] for b in (a, a[..., ::-1])], axis=1)
    ends = _slice_ends(a, prior, fixed, is_low)
    f, on_signal_1 = fixed[:, None, None], _on_signal_1(is_low)[..., None]
    slice_ends = np.where(on_signal_1, f, ends), np.where(on_signal_1, ends, f)
    q1, q2 = np.empty((2, len(a), kind.size))
    end = 3 + pairs[0].shape[1]  # where the pairs end and the slice ends start
    for q, corner, pair, slice_end in zip((q1, q2), (corners[..., 0], corners[..., 1]), pairs, slice_ends):
        q[:, 0], q[:, 1:3], q[:, 3:end], q[:, end:] = prior, corner, pair, slice_end.reshape(len(a), -1)
    return q1, q2


def _sender_values(u: PiecewiseUtility, a: np.ndarray, prior: float, q1, q2, weights):
    """Attained values and suprema at the candidate pairs, shaped (n, k) for
    the stack ``a`` of n garblings, with the pairs' ``_pair_weights``;
    babbling is column 0 and the corners follow it.

    On each cell of the square, cut by the lines where a posterior sits on a
    breakpoint, the expected utility is linear, so near a vertex it tends to
    one-sided limits. Inside its range ([corner, prior] for the low
    posterior, [prior, corner] for the high one) a posterior takes either
    side (``_SUP``); at a range end only the inward limit. Next to
    babbling, the square's diagonal corners (t, t), t in {m, M}, put weight t
    on the low posterior, or 1 - t with the labels swapped. Each posterior
    stack is located once (``PiecewiseUtility._locate``) and every value is
    a read of that location.
    """
    deg = np.abs(q2 - q1) <= TOL
    w1, w2 = weights
    q1, q2 = np.clip(q1, 0.0, 1.0), np.clip(q2, 0.0, 1.0)
    # babbling: a jump within TOL of the prior counts as at the prior, as in
    # the feasible slices, so the limits are taken outside the TOL window
    near = u.breakpoints[np.abs(u.breakpoints - prior) <= TOL]
    at_prior = u._locate([prior, near.min(initial=prior), near.max(initial=prior)])
    u_prior, *lims = u._read(at_prior, [_VALUE, _BELOW, _ABOVE]).tolist()
    lims.sort()
    at1, at2 = u._locate(q1), u._locate(q2)
    attained = np.where(deg, u_prior, w1 * u._read(at1, _VALUE) + w2 * u._read(at2, _VALUE))

    natural = q1 <= q2
    # the natural corner (q1 <= q2) and the other one: X = I's corner is the
    # natural one unless only the swap's is
    swap = (q1[:, 1] > q2[:, 1]) & (q1[:, 2] <= q2[:, 2])
    nat, rows = np.where(swap, 2, 1)[:, None], np.arange(len(a))[:, None]
    (n1, n2), (p1, p2) = ((q1[rows, c], q2[rows, c]) for c in (nat, 3 - nat))

    def inward(at, q, r_lo, r_hi):  # either side inside the range [r_lo, r_hi], the inward limit at its ends
        return u._read(at, np.where(np.abs(q - r_lo) <= TOL, _ABOVE, np.where(np.abs(q - r_hi) <= TOL, _BELOW, _SUP)))

    # the low posterior's range runs from its corner to the prior, the high one's from the prior to its corner
    v1 = inward(at1, q1, np.where(natural, n1, prior), np.where(natural, prior, p1))
    v2 = inward(at2, q2, np.where(natural, prior, p2), np.where(natural, n2, prior))
    sup = np.where(deg, u_prior, np.maximum(attained, w1 * v1 + w2 * v2))

    w = np.maximum(a[:, 0].max(axis=-1), 1.0 - a[:, 0].min(axis=-1))  # the most weight the larger limit can carry
    sup[:, 0] = np.maximum(u_prior, lims[0] + w * (lims[1] - lims[0]))
    return attained, sup


# garbling x candidate entries one pass of the sender batch holds: it bounds
# the batch's memory, while a fixture's batch fits in one pass
_CANDIDATE_BUDGET = 1 << 16


def _sender_batch(u_s: PiecewiseUtility, sigmas: np.ndarray, prior: float) -> list[BestResponse]:
    """Sender best responses to a stack of 2x2 garblings, in numpy passes over
    chunks of garblings, each with at most ``_CANDIDATE_BUDGET`` candidates in
    all, and one build of every reply's outcome; see
    :func:`sender_best_response`."""
    if sigmas.shape[1:] != (2, 2):
        raise DimensionMismatch("expected a 2x2 garbling")
    n = len(sigmas)
    # a rank-deficient garbling (as garbling_rank decides), or a prior within
    # TOL of 0 or 1, leaves only babbling: the pair (prior, prior)
    full = ~(np.abs(sigmas[..., 0] - sigmas[..., 1]).max(axis=1) <= TOL) & (TOL < prior < 1.0 - TOL)
    b1, b2 = np.full(n, prior, dtype=float), np.full(n, prior, dtype=float)
    vmax, got = np.empty(n), np.ones(n, dtype=bool)
    best, kind = np.zeros(n, dtype=int), np.full(n, _BABBLING)
    rows, chunks = np.flatnonzero(full), []
    if rows.size:
        shared = _shared_candidates(u_s, prior)
        kind_of = shared[-1]
        step = max(1, _CANDIDATE_BUDGET // kind_of.size)
        chunks = [rows[i : i + step] for i in range(0, rows.size, step)]
    for chunk in chunks:
        a = sigmas[chunk]
        q1, q2 = _sender_candidates(a, prior, shared)
        weights = _pair_weights(q1, q2, prior)
        feasible = _square_test(a[:, None], prior, q1, q2, w1=weights[0])
        feasible[:, :3] = True  # babbling and the corners are always available
        attained, sup = _sender_values(u_s, a, prior, q1, q2, weights)
        sup[~feasible] = -np.inf

        top = sup.max(axis=1)
        tie = sup >= top[:, None] - 1e-12
        short = attained < top[:, None] - 1e-12
        # ties first, then attained, then the smallest sorted pair, then candidate order
        won = np.lexsort((np.maximum(q1, q2), np.minimum(q1, q2), short, ~tie), axis=-1)[:, 0]
        i = np.arange(len(a))
        b1[chunk], b2[chunk], vmax[chunk] = q1[i, won], q2[i, won], top
        got[chunk], best[chunk], kind[chunk] = attained[i, won] >= top - 1e-12, won, kind_of[won]
    taus, _, _, sizes = _pair_taus(b1, b2, prior)
    if rows.size < n:
        vmax[~full] = u_s(prior)
    # a one-atom outcome is babbling, whichever candidate won
    kind[sizes == 1] = _BABBLING
    # corner 1 is induced by X = I, corner 2 by the column swap
    corner_x = np.where((best == 1)[:, None, None], np.eye(2), np.eye(2)[::-1])
    xs = np.where((kind == _BABBLING)[:, None, None], UNINFORMATIVE_X, corner_x)
    inducing = kind > _CORNER
    xs[inducing] = _inducing_experiments(sigmas[inducing], prior, b1[inducing], b2[inducing])
    return [BestResponse(x, tau, v, g) for x, tau, v, g in zip(xs, taus, vmax.tolist(), got.tolist())]


def sender_best_response(u_s: PiecewiseUtility, sigma, prior: float) -> BestResponse:
    """Supremum of expected sender utility over the feasible set of ``sigma``.

    A rank-deficient garbling, or a prior within ``TOL`` of 0 or 1, leaves
    only the babbling outcome. Ties within 1e-12 break first to candidates
    that attain the supremum, then to the lexicographically smallest sorted
    posterior pair, and among equal pairs to the first candidate in
    ``_sender_candidates`` order. This is a batch of one for
    :func:`_sender_batch`.
    """
    return _sender_batch(u_s, validate_stochastic(sigma)[None], prior)[0]


# ---------------------------------------------------------------------------
# Mediator best response
# ---------------------------------------------------------------------------


def _mediator_batch(u_m: PiecewiseUtility, xs: np.ndarray, prior: float) -> list[BestResponse]:
    """Mediator best responses to a stack of 2x2 experiments; see
    :func:`mediator_best_response`.

    Each reply reads the ``Concavification`` of its posterior interval (all
    of [0, 1] for ``bp_solve``'s X = I), built for the whole batch in one
    pass (``payoffs._concavifications``): the linear span through the prior,
    and the payoff of the outcome on it.
    """
    _, q = _bayes(xs[..., 0], xs[..., 1], prior)
    lo, hi = np.minimum(q[:, 0], q[:, 1]), np.maximum(q[:, 0], q[:, 1])
    informative = hi - lo > TOL
    u_prior = float(u_m(prior))
    rows = np.flatnonzero(informative)
    concs = _concavifications(u_m, lo[rows], hi[rows])
    # an uninformative experiment leaves every garbling optimal: its outcome is
    # the pair (prior, prior), which a last row adds for any reply of one atom
    q1, q2 = np.full((2, len(xs) + 1), float(prior))
    q1[rows], q2[rows] = np.array([conc.linear_span(prior) for conc in concs]).reshape(-1, 2).T
    taus, beliefs, probs, sizes = _pair_taus(q1, q2, prior)
    taus, babbling, sizes = taus[:-1], taus[-1], sizes[rows]
    sigmas = np.where(informative[:, None, None], UNINFORMATIVE_X, np.eye(2))
    values, attained = np.full(len(xs), u_prior), np.ones(len(xs), dtype=bool)
    # one atom when the span is a point, and also when the prior is a kink of
    # the envelope: the span then starts at the prior and its far end has no mass
    for j in np.flatnonzero(sizes == 1).tolist():
        value = concs[j].value(prior)
        values[rows[j]], attained[rows[j]], taus[rows[j]] = value, value <= u_prior, babbling
    split = np.flatnonzero(sizes == 2)
    if split.size:
        i = rows[split]
        comp = np.stack(_composite(beliefs[i], probs[i], prior), axis=-1)
        s = np.clip(comp @ np.linalg.inv(xs[i]), 0.0, 1.0)
        sigmas[i] = s / s.sum(axis=1, keepdims=True)
        values[i], attained[i] = _payoffs([concs[j] for j in split], beliefs[i], probs[i])
    return [BestResponse(s, t, v, a) for s, t, v, a in zip(sigmas, taus, values.tolist(), attained.tolist())]


def mediator_best_response(u_m: PiecewiseUtility, x, prior: float) -> BestResponse:
    """Concavify over the posterior interval of the fixed experiment.

    Among payoff-equal optimal garblings the Blackwell-most-informative one
    is selected (the maximal coincident linear run through the prior), so an
    indifferent mediator reproduces the experiment faithfully (identity).
    ``x`` must be 2x2. This is a batch of one for :func:`_mediator_batch`.
    """
    x = validate_stochastic(x)
    if x.shape != (2, 2):
        raise DimensionMismatch("expected a 2x2 experiment")
    return _mediator_batch(u_m, x[None], prior)[0]


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


def _certificates(
    game: GameSpec, xs, sigmas, br_s, br_m, tol: float, *, refuted: bool = True
) -> list[EquilibriumCertificate]:
    """Certificates of the profiles (xs[i], sigmas[i]), checked in one pass;
    ``xs`` and ``sigmas`` are stacks of 2x2 matrices, each shaped (n, 2, 2),
    and ``br_s[i]`` and ``br_m[i]`` are the sender's best response to
    sigmas[i] and the mediator's to xs[i]. With ``refuted`` false only the
    verified profiles get one, in order.

    The composites sigma X are one stacked ``matmul``, their outcomes are
    built by ``_induced_taus`` and each player's payoffs by
    ``_expected_utilities`` on their rows, each bit for bit what the same
    steps give profile by profile.
    """
    taus, beliefs, probs, sizes = _induced_taus(np.matmul(sigmas, xs), game.prior)
    cur_s, cur_m = (_expected_utilities(u, beliefs, probs, sizes) for u in (game.u_sender, game.u_mediator))
    gap_s = np.array([r.value for r in br_s]) - cur_s
    gap_m = np.array([r.value for r in br_m]) - cur_m
    gap_s, gap_m = (np.where(gap < 0.0, 0.0, gap) for gap in (gap_s, gap_m))  # as max(gap, 0.0) picks
    certs = []
    for xa, sa, tau, bs, bm, vs, vm, gs, gm in zip(
        xs, sigmas, taus, br_s, br_m, cur_s.tolist(), cur_m.tolist(), gap_s.tolist(), gap_m.tolist()
    ):
        verified = gs <= tol and gm <= tol
        if not (verified or refuted):
            continue
        witness = None
        if not verified:
            if gs >= gm:
                witness = Deviation(SENDER, bs.strategy, bs.tau, bs.value, gs)
            else:
                witness = Deviation(MEDIATOR, bm.strategy, bm.tau, bm.value, gm)
        certs.append(EquilibriumCertificate(
            x=xa,
            sigma=sa,
            tau=tau,
            sender_value=vs,
            mediator_value=vm,
            sender_gap=gs,
            mediator_gap=gm,
            verified=verified,
            tol=tol,
            witness=witness,
        ))
    return certs


def check_equilibrium(game: GameSpec, x, sigma, tol: Optional[float] = None) -> EquilibriumCertificate:
    """Verify a pure strategy profile by solving both best responses; a batch
    of one for the certificate core ``_certificates``."""
    x, sigma = validate_stochastic(x), validate_stochastic(sigma)
    if x.shape != (2, 2) or sigma.shape != (2, 2):
        raise DimensionMismatch("profiles are pairs of 2x2 experiments and garblings")
    tol = game.tol_dev if tol is None else tol
    x, sigma = x[None], sigma[None]
    br_s, br_m = _sender_batch(game.u_sender, sigma, game.prior), _mediator_batch(game.u_mediator, x, game.prior)
    return _certificates(game, x, sigma, br_s, br_m, tol)[0]


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
    checked as well. Each profile is certified at ``tol_dev``.

    The best responses are solved in three batches. The first solves the
    mediator's replies to babbling and every B. The second, the one sender
    batch, solves the sender's replies to babbling, every B as a garbling and
    the mediator's replies. The third solves the mediator's replies to the
    sender's experiments. Babbling, a rank-deficient garbling and an
    uninformative experiment are rows of their batch like any other, and
    every reply's outcome is built with the batch. One call to the
    certificate core then checks every profile against the replies its two
    strategies got, and builds certificates for the verified profiles alone.

    Returns the verified certificates, sorted by support size, support and
    largest gap, keeping the first of those with ``allclose`` outcomes.
    """
    pi = game.prior
    beliefs = np.unique(np.concatenate([(0.0, 1.0), game.u_sender.breakpoints, game.u_mediator.breakpoints]))
    lo, hi = (m.ravel() for m in np.meshgrid(beliefs[beliefs < pi - TOL], beliefs[beliefs > pi + TOL], indexing="ij"))
    q, w = np.column_stack([lo, hi]), np.column_stack(_pair_weights(lo, hi, pi))
    bs = np.stack(_composite(q, w, pi), axis=-1)  # B[i] has posteriors lo[i], hi[i]
    n, babbling = len(bs), _BABBLING_PROFILE[None]
    med = _mediator_batch(game.u_mediator, np.concatenate([babbling, bs]), pi)  # babbling, then each B
    to_b = np.array([r.strategy for r in med[1:]])
    snd = _sender_batch(game.u_sender, np.concatenate([babbling, bs, to_b]), pi)  # babbling, each B, each reply to B
    from_b = np.array([r.strategy for r in snd[1 : n + 1]])
    to_from_b = _mediator_batch(game.u_mediator, from_b, pi)

    # babbling, then per B the profiles (B, the reply to B) and (the reply to
    # B as a garbling, B), each with the sender's reply to its garbling and
    # the mediator's to its experiment
    xs, sigmas = np.empty((2, 2 * n + 1, 2, 2))
    br_s, br_m = [None] * (2 * n + 1), [None] * (2 * n + 1)
    xs[0], sigmas[0], br_s[0], br_m[0] = _BABBLING_PROFILE, _BABBLING_PROFILE, snd[0], med[0]
    xs[1::2], sigmas[1::2], br_s[1::2], br_m[1::2] = bs, to_b, snd[n + 1 :], med[1:]
    xs[2::2], sigmas[2::2], br_s[2::2], br_m[2::2] = from_b, bs, snd[1 : n + 1], to_from_b
    certs = _certificates(game, xs, sigmas, br_s, br_m, game.tol_dev, refuted=False)

    final: list[EquilibriumCertificate] = []
    for cert in sorted(certs, key=lambda c: (c.tau.beliefs.size, tuple(c.tau.beliefs), c.max_gap)):
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
