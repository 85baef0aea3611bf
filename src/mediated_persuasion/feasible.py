"""The set of receiver-posterior pairs inducible through a fixed garbling.

For a full-rank 2x2 garbling sigma, the first row of the composite sigma X
has entries sigma_00 x_k + sigma_01 (1 - x_k), x the experiment's first row,
so as X varies it fills exactly the square [min sigma_0., max sigma_0.]^2.
An ordered posterior pair (q1, q2) fixes the weights of the two signals and
with them the composite row it needs; the pair is inducible iff that row lies
in the square. One kernel, ``_square_test``, answers this for every caller:
pair membership, experiment reconstruction, the feasible slices and every
candidate of the sender's best response.

The inducible pairs form two convex "wings" meeting at the uninformative
point (prior, prior): the natural wing (first signal moves the belief down)
and the perverse wing (labels flipped). The square's diagonal, where both
signals say the same, maps to that point; each triangle beside it maps to a
wing. So a wing's boundary is the image of the triangle's two outer edges:
the arcs of the two experiment families that pin one experiment column to a
vertex of the simplex and meet at an off-diagonal corner of the square. The
wing polygons are those arcs, sampled, and closed at the origin.

For an m x m garbling the two columns of the m x 2 experiment range
independently over the simplex, so the composite columns c0 = sigma x0 and
c1 = sigma x1 range independently over the hull of sigma's columns
(Blackwell, 1953). The map (c0, c1) -> (p, p q) = ((1 - pi) c0 + pi c1, pi c1)
to a profile's masses and mass-weighted posteriors is linear and invertible,
so in those coordinates the feasible profiles are the convex hull of the m^2
``vertex_profiles``, x0 = e_i and x1 = e_j; ``profile_member_many`` admits a
Bayes-plausible profile iff sigma^-1 c >= 0 for both of its columns.
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

# extreme-point experiment families: one column pinned to a simplex vertex
X_FAMILIES = ("X1", "X2", "X3", "X4")


def posterior_pair(b, prior: float) -> tuple[float, float]:
    """Ordered posteriors (after signal 1, after signal 2) of a 2x2 structure.

    A zero-probability signal is reported at the prior. A single structure
    has no direction to take a limit along; :func:`pairs_along_family`,
    which traces a one-parameter family, reports the limit along the family
    instead.
    """
    a = _as_array(b)
    _, q = _bayes(a[:, 0], a[:, 1], prior)
    return float(q[0]), float(q[1])


def pairs_along_family(sigma, prior: float, family: str, ps) -> np.ndarray:
    """Ordered posterior pairs of ``sigma @ X_family(p)`` for an array of p.

    A signal of zero mass takes its limit along the family. Both entries of
    its row are affine in p and vanish at the same p, so its posterior is
    constant along the family and equals pi d2 / ((1 - pi) d1 + pi d2), with
    d1 and d2 the slopes of the entries. The entry from the pinned column is
    constant, so it is zero and d1 or d2 vanishes: the limit is 1 when the
    moving column is the second (X1, X2) and 0 when it is the first (X3, X4).
    This keeps the family endpoints on the closure of the feasible set: with
    sigma = I, X1 at p = 1 gives (pi, 1), not (pi, pi).
    """
    a = _as_array(sigma)
    p = np.asarray(ps, dtype=float)
    mix0 = np.outer(a[:, 0], p) + np.outer(a[:, 1], 1.0 - p)  # sigma @ (p, 1-p)
    fixed0, fixed1 = a[:, [0]], a[:, [1]]
    if family == "X1":
        col1, col2 = fixed0, mix0
    elif family == "X2":
        col1, col2 = fixed1, mix0
    elif family == "X3":
        col1, col2 = mix0, fixed0
    elif family == "X4":
        col1, col2 = mix0, fixed1
    else:
        raise ValueError(f"unknown family {family!r}")
    mass, q = _bayes(col1, col2, prior)
    # _bayes put the prior there; only a zero row of sigma (ruled out by full
    # rank) keeps it
    q[(mass <= TOL) & (fixed0 != fixed1)] = float(family in ("X1", "X2"))
    return q.T


def _require_full_rank(sigma, square: bool = False) -> np.ndarray:
    """The garbling's array, 2x2 or, with ``square``, any m x m, checked by
    :func:`validate_stochastic`; a rank-deficient one raises
    ``SingularGarbling``."""
    a = _as_array(sigma)
    if a.shape[0] != a.shape[1] or not (square or a.shape == (2, 2)):
        raise DimensionMismatch("expected a square garbling" if square else "expected a 2x2 garbling")
    validate_stochastic(a)
    if garbling_rank(a) < len(a):
        raise SingularGarbling(
            "rank-deficient garbling: every experiment induces the prior"
        )
    return a


def _require_interior_prior(prior: float) -> None:
    """A prior within ``TOL`` of 0 or 1 raises ``DegeneratePrior``: the
    composite rows divide by it, and no belief can move away from it."""
    if not TOL < prior < 1.0 - TOL:
        raise DegeneratePrior(f"prior {prior} cannot spread beliefs")


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """One traced outer limit of the feasible set."""

    params: np.ndarray  # strictly increasing in [0, 1]
    points: np.ndarray  # (n, 2) ordered posterior pairs


def boundary_curves(sigma, prior: float, n_points: int = 256) -> dict[str, BoundaryCurve]:
    """Trace the four boundary families at ``n_points`` equispaced parameters."""
    a = _require_full_rank(sigma)
    _require_interior_prior(prior)
    return _curves(a, prior, n_points)


def _curves(a: np.ndarray, prior: float, n_points: int) -> dict[str, BoundaryCurve]:
    """:func:`boundary_curves` of a checked garbling and prior."""
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    ps = np.linspace(0.0, 1.0, n_points)
    return {
        fam: BoundaryCurve(ps, pairs_along_family(a, prior, fam, ps))
        for fam in X_FAMILIES
    }


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
# Wing polygons
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FeasibleSet:
    """Two convex wings of ordered posterior pairs, meeting at (prior, prior)."""

    left: np.ndarray  # natural wing vertices, CCW
    right: np.ndarray  # perverse wing vertices, CCW
    curves: dict[str, BoundaryCurve]  # the traced arcs the wings are cut from


def _wing(origin: tuple[float, float], into: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The convex polygon closed by the origin and two arcs meeting at a corner.

    Both arcs end at the uninformative point, up to rounding, so points within
    ``TOL`` of the origin are snapped onto it before repeated and collinear
    vertices are dropped; an ulp-off copy would otherwise make the origin look
    collinear with its neighbours and cut the corner. The polygon runs
    counter-clockwise and starts at its lexicographically smallest vertex.
    A wing with fewer than three vertices left is returned as its sorted
    distinct points.
    """
    pts = np.vstack([origin, into, out])
    pts[np.abs(pts - origin).max(axis=1) <= TOL] = origin
    pts = pts[(pts != np.roll(pts, 1, axis=0)).any(axis=1)]
    u = pts - np.roll(pts, 1, axis=0)
    v = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    corners = pts[np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]) > 1e-15]
    if len(corners) < 3:
        return np.unique(pts, axis=0)
    x, y = corners.T
    if np.dot(x, np.roll(y, -1)) < np.dot(y, np.roll(x, -1)):  # negative shoelace area
        corners = corners[::-1]
    return np.roll(corners, -int(np.lexsort((corners[:, 1], corners[:, 0]))[0]), axis=0)


def wing_polygons(sigma, prior: float, n_points: int = 256) -> FeasibleSet:
    """The two wings, each bounded by the two family arcs through its corner.

    X = I induces one off-diagonal corner of the square: family X4 ends
    there (p = 1) and X1 starts there (p = 0). The column swap induces the
    other, where X2 ends and X3 starts. Each wing is the origin, the arc into
    its corner and the arc out of it, sampled at ``n_points`` parameters, so
    every vertex is a point of :func:`boundary_curves`; the traced arcs are
    kept as ``curves``. Zero-mass signals sit at their limits along the
    families (see :func:`pairs_along_family`), so with sigma = I the natural
    wing is the whole rectangle [0, pi] x [pi, 1].
    The X = I corner belongs to the natural wing (q1 <= q2) when its first
    posterior is the lower one.
    """
    a = _require_full_rank(sigma)
    _require_interior_prior(prior)
    curves = _curves(a, prior, n_points)
    origin = (prior, prior)
    identity = _wing(origin, curves["X4"].points, curves["X1"].points)
    swap = _wing(origin, curves["X2"].points, curves["X3"].points)
    q1, q2 = posterior_pair(a, prior)
    left, right = (identity, swap) if q1 <= q2 else (swap, identity)
    return FeasibleSet(left=left, right=right, curves=curves)


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
    companions that the square test admits among the edge crossings of
    :func:`_slice_ends` and the far end of the companion's range; an
    orientation where it admits none contributes no entry.
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
        on_signal_1 = (is_low[:, None] != [False, True])[..., None]  # the natural orientation puts the low belief there
        member = _square_test(a, prior, np.where(on_signal_1, f, t), np.where(on_signal_1, t, f))
        lo, hi = np.where(member, t, np.inf).min(axis=-1), np.where(member, t, -np.inf).max(axis=-1)
        for task, found, l, h in zip(far, member.any(axis=-1).tolist(), lo.tolist(), hi.tolist()):
            ranges[task] = [(l[o], h[o]) for o in (0, 1) if found[o]]
    return [(f, low, r) for f, low in tasks for r in ranges[(f, low)]]


def _slice_ends(a: np.ndarray, prior: float, fixed: np.ndarray, is_low: np.ndarray) -> np.ndarray:
    """Companions where the rays through fixed beliefs cross the edges of the
    squares of a stack of garblings.

    ``a`` is (n, 2, 2), full rank; each fixed belief lies more than TOL from
    the prior, on its side. Returns the companions shaped (n, beliefs, 2, 4):
    per garbling and fixed belief, four crossings in the natural orientation
    (low belief on signal 1), then four in the swapped one.

    With belief f fixed on one signal, the companion t sets that signal's
    weight w = (t - pi) / (t - f), monotone in t, and its composite row w alpha
    with alpha = ((1 - f) / (1 - pi), f / pi) runs along a ray from the origin.
    The ray crosses an edge of the square of the signal's garbling row (row 0
    for signal 1, row 1 for signal 2), whose entries run from m to M, where
    w alpha_k is m or M: four roots w, each mapped back by
    t = (pi - f w) / (1 - w) and clipped into [0, 1] against rounding. A root
    outside [0, w_end), w_end the weight at the far end of t's range, reads
    as f, whose pair (f, f) is no member; the far end itself pairs f with 0
    or 1. Which crossings lie on the square, and so end a slice, only the
    square test decides.
    """
    end = np.where(is_low, 1.0, 0.0)
    edges = np.sort(a[:, np.where(is_low[:, None] != [False, True], 0, 1)], axis=-1)  # (n, beliefs, 2, (m, M))
    f = fixed[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.stack(_composite(fixed, 1.0, prior), axis=-1)[:, None, None, :]
        w = (edges[..., None] / alpha).reshape(*edges.shape[:-1], 4)
        w_end = ((end - prior) / (end - fixed))[:, None, None]
        t = np.clip((prior - f * w) / (1.0 - w), 0.0, 1.0)
    return np.where((w >= 0.0) & (w < w_end), t, f)
