"""The set of receiver-posterior pairs inducible through a fixed garbling.

For an m x m garbling sigma the two columns of the m x 2 experiment range
independently over the simplex, so the composite columns c0 = sigma x0 and
c1 = sigma x1 range independently over the hull of sigma's columns
(Blackwell, 1953). The map (c0, c1) -> (p, p q) = ((1 - pi) c0 + pi c1, pi c1)
to a profile's masses and mass-weighted posteriors is linear and invertible,
so in those coordinates the feasible profiles are the convex hull of the m^2
``vertex_profiles`` V, row m i + j for x0 = e_i and x1 = e_j. V[mi+j] is a
term in i plus a term in j, so V[mi+j] + V[mk+l] = V[mi+l] + V[mk+j]; and
``profile_member_many`` admits a Bayes-plausible profile iff sigma^-1 c >= 0
for both of its columns.

With two signals the hull is a parallelogram with four vertices: the
babbling rows 0 and 3, and the pairs that X = I (row 1) and the column swap
(row 2) induce. Its babbling diagonal maps to the uninformative point
(pi, pi), and each triangle beside it to a convex "wing" of ordered pairs:
the natural wing, where the first signal moves the belief down, and the
perverse wing. Each edge pins one experiment column to a vertex of the
simplex, and its pairs run along a hyperbola through (pi, pi):

- x0 = e_i (rows 2i to 2i + 1), with k = sigma_0i:
  q1 q2 - (pi + (1 - pi) k) q1 - (pi + (1 - pi)(1 - k)) q2 + pi = 0;
- x1 = e_j (rows j to 2 + j), with k = sigma_0j:
  q1 q2 - pi (1 - k) q1 - pi k q2 = 0.

So the four vertex rows give the two-signal set exactly.

Membership of an ordered pair has a closed form too. The first row of the
composite sigma X has entries sigma_00 x_k + sigma_01 (1 - x_k), x the
experiment's first row, so as X varies it fills exactly the square
[min sigma_0., max sigma_0.]^2. An ordered posterior pair (q1, q2) fixes the
weights of the two signals and with them the composite row it needs; the
pair is inducible iff that row lies in the square. One kernel,
``_square_test``, answers this for every caller: pair membership, experiment
reconstruction, the feasible slices and every candidate of the sender's best
response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegeneratePrior,
    DimensionMismatch,
    NotSigmaPlausible,
    SingularGarbling,
)
from .info import (
    TOL,
    BeliefDistribution,
    BlackwellOrder,
    _as_array,
    _bayes,
    _blackwell,
    _composite,
    _induced_taus,
    _pair_weights,
    _row_dots,
    garbling_rank,
    validate_stochastic,
)

UNINFORMATIVE_X = np.full((2, 2), 0.5)


def posterior_pair(b, prior: float) -> tuple[float, float]:
    """Ordered posteriors (after signal 1, after signal 2) of a 2x2 structure.
    A zero-probability signal is reported at the prior, as in
    :func:`vertex_profiles`."""
    a = _as_array(b)
    _, q = _bayes(a[:, 0], a[:, 1], prior)
    return float(q[0]), float(q[1])


def _require_full_rank(sigma, square: bool = False) -> np.ndarray:
    """The garbling's array, 2x2 or, with ``square``, any m x m, checked by
    :func:`validate_stochastic`; a rank-deficient one raises
    ``SingularGarbling``."""
    a = _as_array(sigma)
    if a.shape[0] != a.shape[1] or not (square or a.shape == (2, 2)):
        raise DimensionMismatch("expected a square garbling" if square else "expected a 2x2 garbling")
    validate_stochastic(a)
    rank = garbling_rank(a)
    if rank < len(a):
        raise SingularGarbling(f"rank-deficient garbling: rank {rank} < {len(a)}")
    return a


def _require_interior_prior(prior: float) -> None:
    """A prior within ``TOL`` of 0 or 1 raises ``DegeneratePrior``: the
    composite rows divide by it, and no belief can move away from it."""
    if not TOL < prior < 1.0 - TOL:
        raise DegeneratePrior(f"prior {prior} cannot spread beliefs")


# ---------------------------------------------------------------------------
# Membership: the composite-row square test
# ---------------------------------------------------------------------------


def _square_test(a: np.ndarray, prior: float, q1, q2, w1=None) -> np.ndarray:
    """Membership of ordered pairs: is the composite row each implies in the square?

    Signal 1 carries weight w1 = (q2 - pi) / (q2 - q1), clamped into [0, 1],
    so the composite first row is c = (w1 (1 - q1) / (1 - pi), w1 q1 / pi), and
    the experiment's first row is x_k = (c_k - a01) / (a00 - a01). A pair is a
    member when both x_k lie in [-TOL, 1 + TOL]; the second row is 1 minus the
    first and needs no check. Pairs that are not Bayes-plausible are rejected;
    degenerate pairs (width at most TOL) at the prior are members. The leading
    axes of ``a`` broadcast against the pairs' shape, so a stack of garblings
    shaped (n, 1, 2, 2) tests its own row of (n, k) pairs each. A caller that
    has the pairs' weights already passes signal 1's as ``w1``.
    """
    lo, hi = np.minimum(q1, q2), np.maximum(q1, q2)
    ok_bayes = (lo <= prior + TOL) & (hi >= prior - TOL)
    deg = (hi - lo) <= TOL
    if w1 is None:
        w1, _ = _pair_weights(q1, q2, prior)
    c = np.stack(_composite(q1, w1, prior), axis=-1)
    a00, a01 = a[..., 0, 0, None], a[..., 0, 1, None]
    x = (c - a01) / (a00 - a01)
    inside = ((x >= -TOL) & (x <= 1.0 + TOL)).all(axis=-1)
    return (inside | (deg & (np.abs(lo - prior) <= TOL))) & ok_bayes


def _inducing_experiments(a: np.ndarray, prior: float, q1, q2) -> np.ndarray:
    """The experiments inducing non-degenerate ordered pairs the square test
    admitted: for each garbling of the stack ``a``, shaped (n, 2, 2), the
    experiment inducing (q1[i], q2[i]), shaped (n, 2, 2).

    X = sigma^-1 B with B the pair's composite, each row built from its own
    signal's posterior and weight, then clamped into [0, 1] and renormalised.
    Building X's second row as 1 minus the first would carry the rounding of
    signal 1's row into signal 2's posterior. One stacked ``inv`` and
    ``matmul`` serve the whole stack.
    """
    w1, w2 = _pair_weights(q1, q2, prior)
    b = np.stack([np.stack(_composite(q, w, prior), axis=-1) for q, w in ((q1, w1), (q2, w2))], axis=1)
    x = np.clip(np.linalg.inv(a) @ b, 0.0, 1.0)
    return x / x.sum(axis=1, keepdims=True)


def ordered_member_many(sigma, prior: float, q1s, q2s) -> np.ndarray:
    """Vectorized membership of ordered pairs (after signal 1, after signal 2)."""
    a = _require_full_rank(sigma)
    _require_interior_prior(prior)
    return _square_test(a, prior, np.asarray(q1s, dtype=float), np.asarray(q2s, dtype=float))


def reconstruct_experiment(sigma, prior: float, tau: BeliefDistribution) -> np.ndarray:
    """Experiment X with ``induced_tau(sigma @ X, prior) == tau``, if one exists.

    Both assignments of the two atoms to the signals go through one square
    test, since the plausibility of a distribution does not depend on signal
    labels; the first that passes, low belief on signal 1 first, gives X, its
    entries clamped into [0, 1].
    """
    a = _require_full_rank(sigma)
    if tau.beliefs.size > 2:
        raise ValueError("two signals support at most two posteriors")
    if tau.is_degenerate() and not TOL < prior < 1.0 - TOL:
        return UNINFORMATIVE_X.copy()
    _require_interior_prior(prior)
    if abs(tau.prior - prior) > TOL:
        raise NotSigmaPlausible(f"tau averages to {tau.prior}, prior is {prior}")
    if tau.is_degenerate():
        return UNINFORMATIVE_X.copy()
    lo, hi = (float(b) for b in tau.beliefs)
    member = _square_test(a, prior, np.array([lo, hi]), np.array([hi, lo]))
    if not member.any():
        raise NotSigmaPlausible(f"support ({lo:.6g}, {hi:.6g}) is outside the feasible set")
    q1, q2 = (lo, hi) if member[0] else (hi, lo)
    return _inducing_experiments(a[None], prior, np.array([q1]), np.array([q2]))[0]


# ---------------------------------------------------------------------------
# Nesting and symmetry reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NestingReport:
    nested: bool
    violations: list
    witness_failures: list


def nesting_report(s1, s2, prior: float) -> NestingReport:
    """Is ``F(s2, prior)`` a subset of ``F(s1, prior)``? Exact, from one pair.

    F(s2) is the image of the square [m2, M2]^2 of s2's first row, and an
    ordered pair fixes the composite row it needs, so F(s2) lies in F(s1)
    exactly when [m2, M2] lies in [m1, M1] or in 1 - [m1, M1]. That is when
    the pair X = I induces through s2 (the square's off-diagonal corner) is a
    member of F(s1) in either order; ``violations`` holds that pair if not.
    When ``s1`` Blackwell-dominates ``s2`` the constructive witness
    Y = s1^-1 G s1 X is validated too; Y is linear in X, so at X = I. G is
    the garbling of :func:`blackwell_compare`: the two-state order holds when
    the posteriors of ``s1`` spread those of ``s2`` in the convex order, and
    G comes from their curtain coupling by Bayes' rule. Nesting
    compares unordered outcomes, so the witness may reproduce s2 with its
    signals relabelled (G replaced by the row swap of G); a failure is
    recorded only when neither labelling works.
    """
    a1, a2 = _require_full_rank(s1), _require_full_rank(s2)
    _require_interior_prior(prior)
    q1, q2 = posterior_pair(a2, prior)
    if not _square_test(a1, prior, np.array([q1, q2]), np.array([q2, q1])).any():
        return NestingReport(False, [(q1, q2)], [])
    cmp = _blackwell(a1, a2)
    witness_failures = []
    if cmp.order in (BlackwellOrder.DOMINATES, BlackwellOrder.EQUIVALENT):
        tau2, reasons = _induced_taus(a2[None], prior)[0][0], []
        for g in (cmp.to_second, cmp.to_second[::-1]):
            Y = np.linalg.inv(a1) @ g @ a1
            if Y.min() < -TOL or abs(Y.sum(axis=0) - 1.0).max() > TOL:
                reasons.append("Y not stochastic")
            elif not _induced_taus((a1 @ np.clip(Y, 0.0, 1.0))[None], prior)[0][0].allclose(tau2, tol=1e-8):
                reasons.append("Y induces different tau")
            else:
                break
        else:
            witness_failures.append(reasons[0])
    return NestingReport(True, [], witness_failures)


@dataclass(frozen=True, eq=False)
class SymmetryReport:
    symmetric: bool
    witness: Optional[tuple]


def symmetry_report(sigma, prior: float) -> SymmetryReport:
    """Is the feasible set closed under swapping the two posteriors? Exact.

    Swapping the signals maps the square [m, M]^2 of sigma's first row to
    1 - [m, M]^2, so the set is swap-symmetric exactly when m + M = 1, that
    is, when the swap of the pair X = I induces is a member. ``witness`` is
    that pair otherwise.
    """
    a = _require_full_rank(sigma)
    _require_interior_prior(prior)
    q1, q2 = posterior_pair(a, prior)
    if _square_test(a, prior, np.array([q2]), np.array([q1]))[0]:
        return SymmetryReport(True, None)
    return SymmetryReport(False, (q1, q2))


# ---------------------------------------------------------------------------
# m signals: the vertex profiles and their membership test
# ---------------------------------------------------------------------------


def vertex_profiles(sigma, prior: float) -> tuple[np.ndarray, np.ndarray]:
    """(posteriors, probs), each (m^2, m): row m i + j is the profile of
    sigma X for X with state columns (e_i, e_j). In (mass, mass x posterior)
    coordinates each feasible profile is their average with weights
    x0_i x1_j, so each signal's posterior range is attained on a row. A
    signal of mass at most ``TOL`` gets the prior. No inverse is taken, so
    any square garbling works."""
    a = _as_array(sigma)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("vertex profiles need a square garbling")
    validate_stochastic(a)
    _require_interior_prior(prior)
    p, q = _bayes(a[:, :, None], a[:, None, :], prior)  # (signal, i, j)
    return q.reshape(len(a), -1).T, p.reshape(len(a), -1).T


def profile_member_many(sigma, prior: float, posteriors, probs) -> np.ndarray:
    """Membership of the posterior profiles in the rows of (n, m) arrays, the
    m-signal :func:`ordered_member_many`: a row is a member when its probs
    are at least -``TOL``, sum to 1 and average its posteriors to the prior,
    each within ``TOL``, and sigma^-1 c >= -``TOL`` for both composite
    columns c of ``_composite`` (their entries then sum to 1 as c's do)."""
    a = _require_full_rank(sigma, square=True)
    _require_interior_prior(prior)
    q, p = np.asarray(posteriors, dtype=float), np.asarray(probs, dtype=float)
    plausible = (p >= -TOL).all(axis=1) & (np.abs(p.sum(axis=1) - 1.0) <= TOL)
    plausible &= np.abs(_row_dots(p, q) - prior) <= TOL
    x = np.linalg.solve(a, np.concatenate(_composite(q, p, prior)).T)  # (m, 2n): c0 rows, then c1 rows
    return plausible & (x >= -TOL).all(axis=0).reshape(2, -1).all(axis=0)


# ---------------------------------------------------------------------------
# Feasible slices; the solver reads only their ends (``_slice_ends``)
# ---------------------------------------------------------------------------


def _on_signal_1(is_low: np.ndarray) -> np.ndarray:
    """Per fixed belief, shaped (beliefs, 2), whether each of its two
    orientations puts it on signal 1. The natural orientation, first, puts
    the low belief there."""
    return is_low[:, None] != [False, True]


def companion_slices(
    sigma, prior: float, fixed_beliefs: list[tuple[float, bool]]
) -> list[tuple[float, bool, tuple[float, float]]]:
    """Companion-belief ranges pairing feasibly with each fixed belief.

    Input is a list of (belief, is_low) tasks; each result entry is
    ``(fixed, is_low, (companion_lo, companion_hi))``. The slice through a
    fixed belief is an interval within each wing but not globally, so each
    task contributes up to two entries, one per signal orientation (the
    natural one first). A task whose belief lies on the wrong side of the
    prior contributes none. A belief within TOL of the prior gets the slice
    (prior, prior): any other companion would carry weight 0, so the pair
    would pay what babbling pays. Any other slice runs between the extreme
    companions that the square test admits among the two ends of
    :func:`_slice_ends`, where the ray enters and leaves the square, and the
    far end of the companion's range; an orientation where it admits none
    contributes no entry.
    """
    a = _require_full_rank(sigma)
    _require_interior_prior(prior)
    tasks = [(float(f), low) for f, low in fixed_beliefs if ((f <= prior + TOL) if low else (f >= prior - TOL))]
    far = [(f, low) for f, low in tasks if abs(f - prior) > TOL]
    ranges = {task: [(prior, prior)] for task in tasks}
    if far:
        fixed, is_low = (np.array(col) for col in zip(*far))
        end = np.broadcast_to(np.where(is_low, 1.0, 0.0)[:, None, None], (len(far), 2, 1))
        t, f = np.concatenate([_slice_ends(a[None], prior, fixed, is_low)[0], end], axis=-1), fixed[:, None, None]
        on_signal_1 = _on_signal_1(is_low)[..., None]
        member = _square_test(a, prior, np.where(on_signal_1, f, t), np.where(on_signal_1, t, f))
        lo, hi = np.where(member, t, np.inf).min(axis=-1), np.where(member, t, -np.inf).max(axis=-1)
        for task, found, l, h in zip(far, member.any(axis=-1).tolist(), lo.tolist(), hi.tolist()):
            ranges[task] = [(l[o], h[o]) for o in (0, 1) if found[o]]
    return [(f, low, r) for f, low in tasks for r in ranges[(f, low)]]


def _slice_ends(a: np.ndarray, prior: float, fixed: np.ndarray, is_low: np.ndarray) -> np.ndarray:
    """Companions where the rays through fixed beliefs enter and leave the
    squares of a stack of garblings.

    ``a`` is (n, 2, 2), full rank; each fixed belief lies more than TOL from
    the prior, on its side. Returns the companions shaped (n, beliefs, 2, 2):
    per garbling and fixed belief, the entry and the exit in the natural
    orientation (low belief on signal 1, :func:`_on_signal_1`), then in the
    swapped one.

    With belief f fixed on one signal, the companion t sets that signal's
    weight w = (t - pi) / (t - f), monotone in t, and its composite row w alpha
    with alpha = ((1 - f) / (1 - pi), f / pi) runs along a ray from the origin.
    The square of the signal's garbling row (row 0 for signal 1, row 1 for
    signal 2), whose entries run from m to M, is convex, so the ray enters it
    at w_in = max(m / alpha_0, m / alpha_1) and leaves it at
    w_out = min(M / alpha_0, M / alpha_1), a ratio 0 / 0 of a zero entry of
    alpha dropping out. Each end is mapped back by t = (pi - f w) / (1 - w)
    and clipped into [0, 1] against rounding. An end outside [0, w_end),
    w_end the weight at the far end of t's range, reads as f, whose pair
    (f, f) is no member; the far end itself pairs f with 0 or 1. Whether an
    end lies on the square, as when the ray misses it, only the square test
    decides, so a slice of one point is found.
    """
    end = np.where(is_low, 1.0, 0.0)
    edges = np.sort(a[:, np.where(_on_signal_1(is_low), 0, 1)], axis=-1)  # (n, beliefs, 2, (m, M))
    f = fixed[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.stack(_composite(fixed, 1.0, prior), axis=-1)[:, None, None, :]
        r = edges[..., None] / alpha  # (n, beliefs, 2, (m, M), (alpha_0, alpha_1))
        w = np.stack([np.fmax(r[..., 0, 0], r[..., 0, 1]), np.fmin(r[..., 1, 0], r[..., 1, 1])], axis=-1)
        w_end = ((end - prior) / (end - fixed))[:, None, None]
        t = np.clip((prior - f * w) / (1.0 - w), 0.0, 1.0)
    return np.where((w >= 0.0) & (w < w_end), t, f)
