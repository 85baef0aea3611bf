"""Best responses, equilibrium checking and grid search, outcome comparisons.

The sender maximizes over the feasible posterior pairs of the fixed
garbling; the mediator concavifies over the posterior interval of the
fixed experiment. Both best responses are exact for piecewise-affine
utilities: candidate optima sit at utility breakpoints, feasible-slice
ends, wing vertices, or along the four boundary families (which get a
zoomed local refinement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BarycenterMismatch
from .feasible import (
    UNINFORMATIVE_X,
    boundary_curves,
    companion_slices,
    family_experiment,
    ordered_member,
    ordered_member_many,
    pairs_along_family,
    posterior_pair,
    reconstruct_experiment,
)
from .info import (
    TOL,
    BeliefDistribution,
    _as_array,
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
    grid: float = 0.02  # profile grid step for equilibrium search
    br_points: int = 256  # boundary samples per family in best responses
    interior_step: float = 0.02
    tol_dev: float = 1e-6
    tol_search: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if not TOL < self.prior < 1.0 - TOL:
            raise ValueError("prior must be interior to (0, 1)")
        for u in (self.u_sender, self.u_mediator, self.u_receiver):
            if u is not None and u.domain != (0.0, 1.0):
                raise ValueError("game utilities must cover the whole belief space")


@dataclass(frozen=True, eq=False)
class BestResponse:
    """An optimizer's strategy with the induced outcome and value."""

    strategy: np.ndarray
    tau: BeliefDistribution
    value: float


def _pair_tau(q1: float, q2: float, prior: float) -> BeliefDistribution:
    lo, hi = min(q1, q2), max(q1, q2)
    if hi - lo <= TOL:
        return BeliefDistribution.from_atoms([(prior, 1.0)], prior)
    p_lo, p_hi = bayes_plausible_weights(lo, hi, prior)
    return BeliefDistribution.from_atoms([(lo, p_lo), (hi, p_hi)], prior)


def _pair_values(u: PiecewiseUtility, q1, q2, prior: float) -> np.ndarray:
    """Expected utility of ordered pairs (vectorized)."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    deg = np.abs(q2 - q1) <= TOL
    width = np.where(deg, 1.0, q2 - q1)
    w2 = np.minimum(np.maximum((prior - q1) / width, 0.0), 1.0)
    w1 = 1.0 - w2
    clip01 = lambda v: np.minimum(np.maximum(v, 0.0), 1.0)
    vals = w1 * u.eval_many(clip01(q1)) + w2 * u.eval_many(clip01(q2))
    return np.where(deg, float(u(prior)), vals)


def _babbling_response(u: PiecewiseUtility, prior: float) -> BestResponse:
    return BestResponse(
        UNINFORMATIVE_X.copy(),
        BeliefDistribution.from_atoms([(prior, 1.0)], prior),
        float(u(prior)),
    )


# ---------------------------------------------------------------------------
# Unmediated benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BenchmarkSolution:
    tau: BeliefDistribution
    x: np.ndarray
    value: float
    concavification: Concavification


def bp_solve(u_s: PiecewiseUtility, prior: float) -> BenchmarkSolution:
    """Optimal unmediated persuasion: concavify over the whole belief space.

    When concavification gains nothing at the prior the babbling outcome is
    returned (point mass, uninformative experiment).
    """
    conc = concavify(u_s, (0.0, 1.0))
    base = float(u_s(prior))
    if conc.value(prior) <= base + TOL:
        tau = BeliefDistribution.from_atoms([(prior, 1.0)], prior)
        return BenchmarkSolution(tau, UNINFORMATIVE_X.copy(), base, conc)
    a, b = conc.linear_span(prior)
    p_lo, p_hi = bayes_plausible_weights(a, b, prior)
    tau = BeliefDistribution.from_atoms([(a, p_lo), (b, p_hi)], prior)
    x = reconstruct_experiment(np.eye(2), prior, tau)
    return BenchmarkSolution(tau, x, float(expected_utility(u_s, tau)), conc)


# ---------------------------------------------------------------------------
# Sender best response
# ---------------------------------------------------------------------------


def _curve_refine(u, a, prior, fam, p0, span, rounds=5, pts=257):
    """Zoom the expected value along one boundary family around ``p0``."""
    lo, hi = max(0.0, p0 - span), min(1.0, p0 + span)
    best_p, best_v = p0, -np.inf
    for _ in range(rounds):
        ps = np.linspace(lo, hi, pts)
        q = pairs_along_family(a, prior, fam, ps)
        vals = _pair_values(u, q[:, 0], q[:, 1], prior)
        k = int(vals.argmax())
        if vals[k] > best_v:
            best_v, best_p = float(vals[k]), float(ps[k])
        width = (hi - lo) / 8.0
        lo, hi = max(0.0, ps[k] - width), min(1.0, ps[k] + width)
    return best_p, best_v


def sender_best_response(
    u_s: PiecewiseUtility,
    sigma,
    prior: float,
    n_points: int = 256,
    interior_step: float = 0.02,
) -> BestResponse:
    """Maximize expected sender utility over the feasible set of ``sigma``.

    A rank-deficient garbling leaves only the babbling outcome. Ties break
    to the lexicographically smallest sorted posterior pair.
    """
    a = _as_array(sigma)
    if not garbling_rank(a).full_rank:
        return _babbling_response(u_s, prior)

    cand_q1: list[float] = [prior]
    cand_q2: list[float] = [prior]
    sources: list[tuple] = [("babbling",)]

    curves = boundary_curves(a, prior, n_points)
    for fam, c in curves.items():
        for p, (q1, q2) in zip(c.params, c.points):
            cand_q1.append(q1)
            cand_q2.append(q2)
            sources.append(("curve", fam, float(p)))

    bps = [float(b) for b in u_s.breakpoints if 0.0 <= b <= 1.0]
    lows = sorted({b for b in bps if b <= prior + TOL} | {0.0, prior})
    highs = sorted({b for b in bps if b >= prior - TOL} | {prior, 1.0})
    for lo in lows:
        for hi in highs:
            for q1, q2 in ((lo, hi), (hi, lo)):
                cand_q1.append(q1)
                cand_q2.append(q2)
                sources.append(("pair",))
    tasks = [(c, True) for c in lows] + [(c, False) for c in highs]
    for fixed, is_low, (r_lo, r_hi) in companion_slices(a, prior, tasks):
        pairs = [(fixed, r_lo), (fixed, r_hi)] if is_low else [(r_lo, fixed), (r_hi, fixed)]
        for lo, hi in pairs:
            for q1, q2 in ((lo, hi), (hi, lo)):
                cand_q1.append(q1)
                cand_q2.append(q2)
                sources.append(("slice",))

    # snap one coordinate of each curve sample to a utility breakpoint
    samples = np.vstack([c.points for c in curves.values()])
    for b in bps:
        for q1, q2 in ((np.full(len(samples), b), samples[:, 1]),
                       (samples[:, 0], np.full(len(samples), b))):
            cand_q1 += list(q1)
            cand_q2 += list(q2)
            sources += [("snap",)] * len(samples)

    if interior_step:
        g_lo = np.arange(0.0, prior + 1e-12, interior_step)
        g_hi = np.arange(1.0, prior - 1e-12, -interior_step)[::-1]
        gl, gh = np.meshgrid(g_lo, g_hi, indexing="ij")
        for q1, q2 in ((gl.ravel(), gh.ravel()), (gh.ravel(), gl.ravel())):
            cand_q1 += list(q1)
            cand_q2 += list(q2)
            sources += [("grid",)] * gl.size

    q1 = np.array(cand_q1)
    q2 = np.array(cand_q2)
    feasible = ordered_member_many(a, prior, q1, q2)
    feasible[0] = True  # babbling is always available
    q1, q2 = q1[feasible], q2[feasible]
    kept = [s for s, f in zip(sources, feasible) if f]
    values = _pair_values(u_s, q1, q2, prior)

    vmax = float(values.max())
    tie = np.nonzero(values >= vmax - 1e-12)[0]
    lo_s = np.minimum(q1[tie], q2[tie])
    hi_s = np.maximum(q1[tie], q2[tie])
    order = np.lexsort((hi_s, lo_s))
    best = int(tie[order[0]])
    best_q, best_v, best_src = (float(q1[best]), float(q2[best])), vmax, kept[best]

    # slide along the winning boundary family (optima may fall between samples)
    curve_hits = [
        (i, kept[i]) for i in range(len(kept)) if kept[i][0] == "curve"
    ]
    if curve_hits:
        by_fam: dict[str, tuple[float, float]] = {}
        for i, (_, fam, p) in curve_hits:
            if values[i] >= vmax - 1e-9:
                cur = by_fam.get(fam)
                if cur is None or values[i] > cur[1]:
                    by_fam[fam] = (p, float(values[i]))
        span = 1.0 / max(n_points - 1, 1)
        for fam, (p0, _) in by_fam.items():
            p_ref, v_ref = _curve_refine(u_s, a, prior, fam, p0, span)
            if v_ref > best_v + 1e-12:
                best_v = v_ref
                qq = posterior_pair(a @ family_experiment(fam, p_ref), prior)
                best_q, best_src = qq, ("curve", fam, p_ref)

    tau = _pair_tau(best_q[0], best_q[1], prior)
    if best_src[0] == "curve":
        x = family_experiment(best_src[1], best_src[2])
    elif best_src[0] == "babbling" or tau.is_degenerate():
        x = UNINFORMATIVE_X.copy()
    else:
        x = ordered_member(a, prior, best_q[0], best_q[1])
        if x is None:  # numerical edge: fall back to the sorted reconstruction
            x = reconstruct_experiment(a, prior, tau)
    return BestResponse(x, tau, float(best_v))


# ---------------------------------------------------------------------------
# Mediator best response
# ---------------------------------------------------------------------------


def mediator_best_response(
    u_m: PiecewiseUtility, x, prior: float, grid: int = 2048
) -> BestResponse:
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
        )
    conc = concavify(u_m, (lo, hi), grid)
    a, b = conc.linear_span(prior)
    if b - a <= TOL:
        tau = BeliefDistribution.from_atoms([(prior, 1.0)], prior)
        sigma = UNINFORMATIVE_X.copy()
        return BestResponse(sigma, tau, float(u_m(prior)))
    p_lo, p_hi = bayes_plausible_weights(a, b, prior)
    tau = BeliefDistribution.from_atoms([(a, p_lo), (b, p_hi)], prior)
    comp = np.empty((2, 2))
    comp[:, 1] = tau.beliefs * tau.probs / prior
    comp[:, 0] = (1.0 - tau.beliefs) * tau.probs / (1.0 - prior)
    sigma = comp @ np.linalg.inv(xa)
    sigma = np.clip(sigma, 0.0, 1.0)
    sigma /= sigma.sum(axis=0, keepdims=True)
    return BestResponse(sigma, tau, float(expected_utility(u_m, tau)))


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


def check_equilibrium(game: GameSpec, x, sigma, tol: Optional[float] = None) -> EquilibriumCertificate:
    """Verify a pure strategy profile by solving both best responses."""
    xa, sa = _as_array(x), _as_array(sigma)
    tol = game.tol_dev if tol is None else tol
    br_s = sender_best_response(
        game.u_sender, sa, game.prior, game.br_points, game.interior_step
    )
    br_m = mediator_best_response(game.u_mediator, xa, game.prior)
    return _certificate(game, xa, sa, br_s, br_m, tol)


# ---------------------------------------------------------------------------
# Grid search for equilibria
# ---------------------------------------------------------------------------


CLUSTER_RADIUS = 0.02  # outcome bin width of the equilibrium search

# Profiles per grid block. A block holds whole sigma rows (n^2 profiles each,
# 2,601 at the default grid): about 150 KB per float64 temporary, so a block's
# temporaries stay in L2 cache. Blocks a quarter this size spend more on
# per-block numpy calls than they save.
_BLOCK_PROFILES = 20_000


def _grid_blocks(vals: np.ndarray):
    """Yield (block, c, d) for consecutive blocks of a few sigma rows.

    ``block`` is a slice of sigma indices; index s has first row
    (a, b) = (vals[s // n], vals[s % n]). Against an experiment column with
    first-row entry x_k the composite rows take c_k = a x_k + b (1 - x_k) and
    d_k = (1 - a) x_k + (1 - b) (1 - x_k): n values per sigma, so ``c`` and
    ``d`` have shape (rows, n).
    """
    n = len(vals)
    step = max(1, _BLOCK_PROFILES // (n * n))
    x = vals[None, :]
    for start in range(0, n * n, step):
        s = np.arange(start, min(start + step, n * n))
        a, b = vals[s // n][:, None], vals[s % n][:, None]
        yield slice(start, start + s.size), a * x + b * (1 - x), (1 - a) * x + (1 - b) * (1 - x)


def _signal(in_state0, in_state1, pi: float):
    """Probability and posterior of a signal sent with the given state likelihoods.

    A signal that (numerically) loses all mass gets the prior as posterior.
    """
    p = (1 - pi) * in_state0 + pi * in_state1
    with np.errstate(invalid="ignore", divide="ignore"):
        q = np.where(p > TOL, pi * in_state1 / np.where(p > 0, p, 1.0), pi)
    return p, q


def _grid_tables(game: GameSpec, vals: np.ndarray):
    """Expected sender and mediator utilities of every grid profile.

    Profiles are (sigma1, sigma2) x (x, y), each entry the first-row
    probability of the corresponding column; sigma index s and experiment
    index j stand for sigma1, sigma2 = vals[s // n], vals[s % n] and
    x, y = vals[j // n], vals[j % n]. Returns float32 tables (E_s, E_m) of
    shape (n^2, n^2), the only n^2 x n^2 arrays the search builds.

    The tables fill in blocks of a few sigma rows (``_grid_blocks``). Per
    sigma the composite entries take only n values, so each block broadcasts
    them to its (rows, n, n) profiles.
    """
    n = len(vals)
    pi = game.prior
    E_s = np.empty((n * n, n * n), dtype=np.float32)
    E_m = np.empty((n * n, n * n), dtype=np.float32)
    for block, c, d in _grid_blocks(vals):
        p1, q1 = _signal(c[:, :, None], c[:, None, :], pi)
        p2, q2 = _signal(d[:, :, None], d[:, None, :], pi)
        for u, out in ((game.u_sender, E_s), (game.u_mediator, E_m)):
            out[block] = (p1 * u.eval_many(q1) + p2 * u.eval_many(q2)).reshape(len(c), -1)
    return E_s, E_m


def _bin_winners(gaps, sig_idx, x_idx, k_lo, k_hi):
    """The profile of least (gap, sigma index, x index) in each outcome bin."""
    keys = k_lo * 100000 + k_hi
    order = np.lexsort((x_idx, sig_idx, gaps, keys))
    first = np.ones(order.size, dtype=bool)
    first[1:] = keys[order[1:]] != keys[order[:-1]]
    pick = order[first]
    return gaps[pick], sig_idx[pick], x_idx[pick], k_lo[pick], k_hi[pick]


def _coarse_representatives(game: GameSpec, vals: np.ndarray, E_s, E_m, cluster_radius: float):
    """Filter grid profiles by their grid-game gaps; one winner per outcome bin.

    A profile is kept when neither player gains more than ``eps_coarse`` by
    a deviation on the grid. Its outcome bin is the sorted posterior support
    (rounded to float32) in multiples of ``cluster_radius``. The blocks of
    ``_grid_blocks`` are swept again: posteriors are recomputed for kept
    profiles only, and each block passes on its bin winners. Returns arrays
    (gap, sigma index, x index, k_lo, k_hi) with one entry per bin, in
    ascending bin order.
    """
    n = len(vals)
    pi = game.prior
    slope = max(game.u_sender.max_abs_slope, game.u_mediator.max_abs_slope)
    eps_coarse = game.tol_search + 2.0 * slope * game.grid
    v_m = E_m.max(axis=0)  # best mediator reply per x
    winners = []
    for block, c, d in _grid_blocks(vals):
        es, em = E_s[block], E_m[block]
        v_s = es.max(axis=1, keepdims=True)  # best sender reply per sigma
        r, x_idx = np.nonzero((v_s - es <= eps_coarse) & (v_m - em <= eps_coarse))
        gaps = np.maximum(
            (v_s[r, 0] - es[r, x_idx]).astype(np.float64),
            (v_m[x_idx] - em[r, x_idx]).astype(np.float64),
        )
        k, j = x_idx // n, x_idx % n
        _, q1 = _signal(c[r, k], c[r, j], pi)
        _, q2 = _signal(d[r, k], d[r, j], pi)
        bins = [
            np.rint(t.astype(np.float32).astype(np.float64) / cluster_radius).astype(np.int64)
            for t in (np.minimum(q1, q2), np.maximum(q1, q2))
        ]
        winners.append(_bin_winners(gaps, r + block.start, x_idx, *bins))
    return _bin_winners(*(np.concatenate(w) for w in zip(*winners)))


def _tau_distance(t1: BeliefDistribution, t2: BeliefDistribution) -> float:
    a = np.array([t1.beliefs[0], t1.beliefs[-1]])
    b = np.array([t2.beliefs[0], t2.beliefs[-1]])
    return float(np.abs(a - b).max())


def search_equilibria(
    game: GameSpec, cluster_radius: float = CLUSTER_RADIUS
) -> list[EquilibriumCertificate]:
    """Sweep the profile grid, cluster near-equilibria by outcome, and polish
    each cluster with exact best responses.

    The coarse pass plays the grid game: deviations are restricted to the
    same grid, so exact grid equilibria show a zero gap and off-grid
    equilibria a gap bounded by the utility slopes times the step. The grid
    is swept twice in blocks of a few sigma rows: once to fill the two float32
    utility tables (``_grid_tables``), once to filter and bin the profiles
    (``_coarse_representatives``), which recomputes posteriors only for kept
    profiles. Cluster representatives are then verified exactly; a
    representative survives only if (possibly after best-response polishing
    or local grid refinement) an exact check passes at ``tol_search`` without
    leaving its cluster.
    """
    n = int(round(1.0 / game.grid)) + 1
    vals = np.linspace(0.0, 1.0, n)
    E_s, E_m = _grid_tables(game, vals)
    reps = _coarse_representatives(game, vals, E_s, E_m, cluster_radius)

    pi = game.prior
    clusters: dict[tuple, dict] = {}
    for gap, si, xi, k_lo, k_hi in zip(*(a.tolist() for a in reps)):
        s1, s2 = float(vals[si // n]), float(vals[si % n])
        x1, y1 = float(vals[xi // n]), float(vals[xi % n])
        sa = np.array([[s1, s2], [1 - s1, 1 - s2]])
        xa = np.array([[x1, y1], [1 - x1, 1 - y1]])
        tau = induced_tau(sa @ xa, pi)
        clusters[(k_lo, k_hi)] = {
            "gap": gap,
            "profile": (s1, s2, x1, y1),
            "tau": tau,
        }

    merged_keys = _merge_adjacent_bins(clusters)

    certs: list[EquilibriumCertificate] = []
    for group in merged_keys:
        rep = min(
            (clusters[k] for k in group),
            key=lambda c: (c["gap"], c["profile"]),
        )
        cert = _polish_candidate(game, rep, cluster_radius)
        if cert is not None:
            certs.append(cert)

    # dedupe polished outcomes and order deterministically
    final: list[EquilibriumCertificate] = []
    for cert in sorted(
        certs, key=lambda c: (c.tau.beliefs.size, tuple(c.tau.beliefs), c.max_gap)
    ):
        if any(_tau_distance(cert.tau, f.tau) <= cluster_radius for f in final):
            continue
        final.append(cert)
    return final


def _merge_adjacent_bins(clusters: dict) -> list[list[tuple]]:
    keys = sorted(clusters.keys())
    parent = {k: k for k in keys}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    keyset = set(keys)
    for k in keys:
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                nb = (k[0] + da, k[1] + db)
                if nb in keyset:
                    ra, rb = find(k), find(nb)
                    if ra != rb:
                        parent[ra] = rb
    groups: dict[tuple, list[tuple]] = {}
    for k in keys:
        groups.setdefault(find(k), []).append(k)
    return [sorted(g) for g in groups.values()]


def _profile_matrices(profile):
    s1, s2, x1, y1 = profile
    return (
        np.array([[x1, y1], [1 - x1, 1 - y1]]),
        np.array([[s1, s2], [1 - s1, 1 - s2]]),
    )


def _polish_candidate(
    game: GameSpec, rep: dict, cluster_radius: float
) -> Optional[EquilibriumCertificate]:
    xa, sa = _profile_matrices(rep["profile"])
    anchor = rep["tau"]
    best: Optional[EquilibriumCertificate] = None

    def consider(cert: EquilibriumCertificate) -> None:
        nonlocal best
        if not cert.verified:
            return
        if _tau_distance(cert.tau, anchor) > cluster_radius + game.grid:
            return
        if best is None or cert.max_gap < best.max_gap:
            best = cert

    direct = check_equilibrium(game, xa, sa, tol=game.tol_search)
    consider(direct)
    if best is not None and best.max_gap <= game.tol_dev:
        return best

    # best-response iteration from the representative
    x_cur = xa
    seen: list[BeliefDistribution] = []
    verified_elsewhere = False
    for _ in range(8):
        s_cur = mediator_best_response(game.u_mediator, x_cur, game.prior).strategy
        if garbling_rank(s_cur).full_rank:
            br_s = sender_best_response(
                game.u_sender, s_cur, game.prior, game.br_points, game.interior_step
            )
        else:
            br_s = _babbling_response(game.u_sender, game.prior)
        x_cur = br_s.strategy
        br_m = mediator_best_response(game.u_mediator, x_cur, game.prior)
        cand = _certificate(game, x_cur, s_cur, br_s, br_m, game.tol_search)
        consider(cand)
        verified_elsewhere |= cand.verified
        if cand.verified and cand.max_gap <= game.tol_dev:
            break
        if seen and _tau_distance(cand.tau, seen[-1]) <= 1e-10:
            break
        seen.append(cand.tau)
    if best is not None:
        return best
    slope = max(game.u_sender.max_abs_slope, game.u_mediator.max_abs_slope)
    if verified_elsewhere or direct.max_gap > 2.0 * slope * game.grid + 10.0 * game.tol_search:
        # the dynamics settled on an equilibrium owned by another cluster,
        # or the representative is nowhere near one: nothing to refine here
        return None

    # local grid refinement: halve the step around the representative
    step = game.grid
    prof = np.array(rep["profile"], dtype=float)

    def exact_gap(p) -> tuple[float, Optional[EquilibriumCertificate]]:
        x_m, s_m = _profile_matrices(p)
        cert = check_equilibrium(game, x_m, s_m, tol=game.tol_search)
        return cert.max_gap, cert

    cur_gap, cur_cert = exact_gap(prof)
    consider(cur_cert)
    for _ in range(5):
        step /= 2.0
        improved = True
        probes = 0
        while improved and probes < 12:
            improved = False
            for axis in range(4):
                for sign in (-1.0, 1.0):
                    trial = prof.copy()
                    trial[axis] = min(1.0, max(0.0, trial[axis] + sign * step))
                    g, cert = exact_gap(trial)
                    probes += 1
                    if g < cur_gap - 1e-12:
                        prof, cur_gap, cur_cert = trial, g, cert
                        consider(cert)
                        improved = True
        if cur_gap <= game.tol_search:
            break
    return best


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
