import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mediated_persuasion import (
    BeliefDistribution,
    ColumnSumMismatch,
    DegeneratePrior,
    DimensionMismatch,
    NegativeEntry,
    NonFiniteEntry,
    NotSigmaPlausible,
    SingularGarbling,
    boundary_curves,
    companion_slices,
    compose,
    garbling_rank,
    induced_tau,
    nesting_report,
    ordered_member_many,
    posterior_pair,
    profile_member_many,
    reconstruct_experiment,
    symmetry_report,
    vertex_profiles,
    wing_polygons,
)
from mediated_persuasion.feasible import UNINFORMATIVE_X
from mediated_persuasion.info import TOL, _as_array, _bayes, _composite, _pair_weights

from conftest import RANKED_PAIR, UNRANKED_PAIR, brute_force_pairs, random_experiment, random_garbling

SIGMA_STAR = np.array([[6 / 7, 3 / 7], [1 / 7, 4 / 7]])
SIGMA_BUTTERFLY = np.array([[2 / 3, 1 / 4], [1 / 3, 3 / 4]])
SIGMA_TRACE = np.array([[1 / 3, 1 / 7], [2 / 3, 6 / 7]])
SIGMA3 = np.array([[1 / 3, 1 / 9, 2 / 3], [1 / 3, 4 / 9, 1 / 3], [1 / 3, 4 / 9, 0]])


def member_either_order(sigma, prior, lows, highs):
    """Label-free membership: the pair is a member with either signal first."""
    return ordered_member_many(sigma, prior, lows, highs) | ordered_member_many(
        sigma, prior, highs, lows
    )


def polygon_area(vertices):
    if len(vertices) < 3:
        return 0.0
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def point_to_polygon_distance(point, vertices):
    """Distance from a point to the polygon boundary (edges)."""
    p = np.asarray(point, dtype=float)
    if len(vertices) == 1:
        return float(np.hypot(*(p - vertices[0])))
    v0 = vertices
    v1 = np.roll(vertices, -1, axis=0)
    d = v1 - v0
    denom = np.maximum((d * d).sum(axis=1), 1e-300)
    t = np.clip(((p - v0) * d).sum(axis=1) / denom, 0.0, 1.0)
    proj = v0 + t[:, None] * d
    return float(np.sqrt(((proj - p) ** 2).sum(axis=1)).min())


def attained_beliefs(posteriors, probs, min_prob=TOL):
    """The distinct posteriors of signals with mass above ``min_prob``."""
    return np.unique(np.round(posteriors[probs > min_prob], 12))


def pair_tau(lo, hi, prior):
    p_hi = (prior - lo) / (hi - lo)
    return BeliefDistribution.from_atoms([(lo, 1.0 - p_hi), (hi, p_hi)], prior)


class TestBoundaryCurves:
    def test_identity_fully_revealing_endpoint(self):
        curves = boundary_curves(np.eye(2), 0.4, 33)
        q1, q2 = curves["X1"].points[0]  # p = 0 pins the revealing experiment
        assert (q1, q2) == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_endpoints_match_direct_evaluation(self):
        curves = boundary_curves(SIGMA_TRACE, 0.5, 65)
        x1_0 = np.array([[1.0, 0.0], [0.0, 1.0]])
        x1_1 = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert_allclose(
            curves["X1"].points[0], posterior_pair(SIGMA_TRACE @ x1_0, 0.5), atol=1e-12
        )
        assert_allclose(
            curves["X1"].points[-1], posterior_pair(SIGMA_TRACE @ x1_1, 0.5), atol=1e-12
        )

    def test_family_x4_at_one_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            sigma = random_garbling(rng)
            prior = rng.uniform(0.1, 0.9)
            curves = boundary_curves(sigma, prior, 17)
            assert_allclose(
                curves["X4"].points[-1], posterior_pair(sigma, prior), atol=1e-12
            )

    def test_zero_mass_signal_takes_family_limit(self):
        # sigma = I: the family endpoints where one signal has zero mass lie on
        # the closed rectangle's corners, not at (prior, prior)
        curves = boundary_curves(np.eye(2), 0.3, 5)
        assert tuple(curves["X1"].points[-1]) == (0.3, 1.0)
        assert tuple(curves["X2"].points[0]) == (1.0, 0.3)
        assert tuple(curves["X3"].points[-1]) == (0.3, 0.0)
        assert tuple(curves["X4"].points[0]) == (0.0, 0.3)
        assert not np.signbit(curves["X3"].points).any()
        # a single structure keeps the prior for its zero-mass signal
        assert posterior_pair([[1.0, 1.0], [0.0, 0.0]], 0.3) == (0.3, 0.3)

    def test_parameters_strictly_increasing(self):
        curves = boundary_curves(SIGMA_BUTTERFLY, 0.3, 64)
        for c in curves.values():
            assert np.all(np.diff(c.params) > 0)

    def test_every_sample_passes_membership(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            sigma = random_garbling(rng)
            prior = rng.uniform(0.15, 0.85)
            for c in boundary_curves(sigma, prior, 64).values():
                # in the order traced: signal 1's belief first
                assert ordered_member_many(sigma, prior, c.points[:, 0], c.points[:, 1]).all()

    def test_singular_garbling_rejected(self):
        with pytest.raises(SingularGarbling):
            boundary_curves([[0.5, 0.5], [0.5, 0.5]], 0.3)


class TestReconstruction:
    def test_identity_recovers_worked_example(self):
        tau = BeliefDistribution.from_atoms([(1 / 3, 9 / 14), (4 / 5, 5 / 14)])
        x = reconstruct_experiment(SIGMA_STAR, 0.5, tau)
        assert_allclose(x, np.eye(2), atol=1e-9)

    def test_uninformative_target(self):
        tau = BeliefDistribution.from_atoms([(0.3, 1.0)])
        x = reconstruct_experiment(SIGMA_BUTTERFLY, 0.3, tau)
        assert_allclose(x, UNINFORMATIVE_X)

    def test_label_swapped_assignment(self):
        tau = BeliefDistribution.from_atoms([(1 / 5, 5 / 14), (2 / 3, 9 / 14)])
        x = reconstruct_experiment(SIGMA_STAR, 0.5, tau)
        assert_allclose(x, [[0, 1], [1, 0]], atol=1e-9)

    def test_far_pair_not_plausible(self):
        p1, p2 = (0.99 - 0.3) / 0.98, (0.3 - 0.01) / 0.98
        tau = BeliefDistribution.from_atoms([(0.01, p1), (0.99, p2)])
        with pytest.raises(NotSigmaPlausible):
            reconstruct_experiment(SIGMA_BUTTERFLY, 0.3, tau)
        # confirmed by brute force: no grid experiment comes close
        cloud = brute_force_pairs(SIGMA_BUTTERFLY, 0.3, step=0.01)
        d = np.abs(cloud - np.array([0.01, 0.99])).max(axis=1)
        d_swap = np.abs(cloud - np.array([0.99, 0.01])).max(axis=1)
        assert min(d.min(), d_swap.min()) > 0.05

    def test_round_trip_on_random_feasible_targets(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            sigma = random_garbling(rng)
            prior = rng.uniform(0.05, 0.95)
            tau = induced_tau(compose(sigma, random_experiment(rng)), prior)
            x = reconstruct_experiment(sigma, prior, tau)
            assert x.min() >= 0.0 and x.max() <= 1.0
            assert np.abs(x.sum(axis=0) - 1.0).max() <= 1e-15
            back = induced_tau(compose(sigma, x), prior)
            assert back.beliefs.size == tau.beliefs.size
            assert np.abs(back.beliefs - tau.beliefs).max() < 1e-9
            assert np.abs(back.probs - tau.probs).max() < 1e-9

    def test_prior_at_the_edge_cannot_spread_beliefs(self):
        tau = BeliefDistribution.from_atoms([(0.0, 0.5), (0.5, 0.5)])
        with pytest.raises(DegeneratePrior):
            reconstruct_experiment(SIGMA_BUTTERFLY, 1e-10, tau)


@pytest.mark.parametrize("prior", [0.0, TOL / 2, 1.0 - TOL / 2, 1.0], ids=["0", "tol/2", "1-tol/2", "1"])
def test_membership_entries_reject_a_degenerate_prior(prior):
    # the composite rows divide by the prior and by 1 minus it: at 0 or 1
    # these entries warned of a division by zero or returned nothing
    with pytest.raises(DegeneratePrior):
        companion_slices(np.eye(2), prior, [(0.5, False)])
    with pytest.raises(DegeneratePrior):
        ordered_member_many(np.eye(2), prior, [0.0], [1.0])
    with pytest.raises(DegeneratePrior):
        profile_member_many(SIGMA3, prior, *vertex_profiles(SIGMA3, 0.5))
    # every arc of the two-signal set collapses to the prior, and no profile spreads
    with pytest.raises(DegeneratePrior):
        boundary_curves(np.eye(2), prior, 8)
    with pytest.raises(DegeneratePrior):
        wing_polygons(np.eye(2), prior, 8)
    with pytest.raises(DegeneratePrior):
        vertex_profiles(SIGMA3, prior)
    with pytest.raises(DegeneratePrior):
        symmetry_report(np.eye(2), prior)
    with pytest.raises(DegeneratePrior):
        nesting_report(np.eye(2), SIGMA_STAR, prior)


FEASIBLE_ENTRIES = {
    "ordered_member_many": lambda s: ordered_member_many(s, 0.5, [0.2], [0.8]),
    "boundary_curves": lambda s: boundary_curves(s, 0.5, 8),
    "companion_slices": lambda s: companion_slices(s, 0.5, [(0.2, True), (0.8, False)]),
    "symmetry_report": lambda s: symmetry_report(s, 0.5),
    "profile_member_many": lambda s: profile_member_many(s, 0.5, [[0.2, 0.8]], [[0.5, 0.5]]),
    "vertex_profiles": lambda s: vertex_profiles(s, 0.5),
    "reconstruct_experiment": lambda s: reconstruct_experiment(s, 0.5, pair_tau(0.4, 0.6, 0.5)),
    "nesting_report-first": lambda s: nesting_report(s, SIGMA_STAR, 0.5),
    "nesting_report-second": lambda s: nesting_report(SIGMA_STAR, s, 0.5),
    "wing_polygons": lambda s: wing_polygons(s, 0.5, 8),
}
BAD_GARBLINGS = {
    "column-sums-to-1.4": ([[0.9, 0.2], [0.5, 0.8]], ColumnSumMismatch),
    "negative-entry": ([[1.2, 0.0], [-0.2, 1.0]], NegativeEntry),
    "nan-entry": ([[np.nan, 0.2], [0.5, 0.8]], NonFiniteEntry),
}


@pytest.mark.parametrize("bad", sorted(BAD_GARBLINGS))
@pytest.mark.parametrize("entry", sorted(FEASIBLE_ENTRIES))
def test_feasible_entries_reject_a_garbling_that_is_not_stochastic(entry, bad):
    # every public entry that takes a garbling checks it as validate_stochastic does
    sigma, error = BAD_GARBLINGS[bad]
    with pytest.raises(error):
        FEASIBLE_ENTRIES[entry](sigma)


class TestMembership:
    def test_three_signal_garbling_is_rejected(self):
        with pytest.raises(DimensionMismatch):
            ordered_member_many(SIGMA3, 0.3, [0.1], [0.5])

    def test_prior_point_always_member(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sigma = random_garbling(rng)
            prior = rng.uniform(0.1, 0.9)
            assert ordered_member_many(sigma, prior, [prior], [prior])[0]
            point = BeliefDistribution.from_atoms([(prior, 1.0)], prior)
            x = reconstruct_experiment(sigma, prior, point)
            assert induced_tau(compose(sigma, x), prior).is_degenerate()

    def test_asymmetric_noise_pair_needs_identity(self):
        sigma = np.array([[1 / 100, 1 / 2], [99 / 100, 1 / 2]])
        lo, hi = 0.15 / 0.843, 0.15 / 0.157
        # the high belief comes after signal 1
        assert ordered_member_many(sigma, 0.3, [hi, lo], [lo, hi]).tolist() == [True, False]
        x = reconstruct_experiment(sigma, 0.3, pair_tau(lo, hi, 0.3))
        assert_allclose(x, np.eye(2), atol=1e-9)

    def test_blackwell_inferior_pair_can_be_infeasible(self):
        # a contraction of the most informative point that no experiment
        # induces: the pair sits inside the tip's interval yet outside both
        # wings (confirmed against the brute-force cloud)
        assert not member_either_order(SIGMA_BUTTERFLY, 0.3, [0.15], [0.32])[0]
        with pytest.raises(NotSigmaPlausible):
            reconstruct_experiment(SIGMA_BUTTERFLY, 0.3, pair_tau(0.15, 0.32, 0.3))
        cloud = brute_force_pairs(SIGMA_BUTTERFLY, 0.3, step=0.01)
        d = np.abs(cloud - np.array([0.15, 0.32])).max(axis=1)
        d_swap = np.abs(cloud - np.array([0.32, 0.15])).max(axis=1)
        assert min(d.min(), d_swap.min()) > 0.03

    def test_not_bayes_plausible_rejected(self):
        assert not member_either_order(SIGMA_BUTTERFLY, 0.3, [0.4], [0.6])[0]

    def test_oracle_agreement_away_from_boundaries(self):
        # label-free comparison: supports are canonicalized to sorted pairs
        rng = np.random.default_rng(41)
        for _ in range(20):
            sigma = random_garbling(rng, lo=0.15, hi=0.85, min_det=0.1)
            prior = rng.uniform(0.25, 0.75)
            cloud = np.sort(brute_force_pairs(sigma, prior, step=0.01), axis=1)
            fs = wing_polygons(sigma, prior, 256)
            test_pts = np.sort(
                np.column_stack([rng.uniform(0, 1, 300), rng.uniform(0, 1, 300)]),
                axis=1,
            )
            for lo, hi in test_pts:
                d_edge = min(
                    point_to_polygon_distance((lo, hi), fs.left),
                    point_to_polygon_distance((hi, lo), fs.right),
                )
                if d_edge <= 0.02:
                    continue
                exact = bool(member_either_order(sigma, prior, [lo], [hi])[0]) and (
                    lo <= prior <= hi
                )
                # both distances are Euclidean: a sup-norm cloud test would
                # admit hits up to sqrt(2) * 0.02 away, beyond the skipped band
                near_cloud = bool(
                    (np.hypot(cloud[:, 0] - lo, cloud[:, 1] - hi) <= 0.02).any()
                )
                assert exact == near_cloud, (sigma, prior, (lo, hi))


class TestWingPolygons:
    def test_identity_garbling_gives_bayes_rectangle(self):
        fs = wing_polygons(np.eye(2), 0.3, 64)
        corners = {(round(a, 6), round(b, 6)) for a, b in fs.left}
        assert {(0.0, 0.3), (0.0, 1.0), (0.3, 1.0), (0.3, 0.3)} <= corners
        corners = {(round(a, 6), round(b, 6)) for a, b in fs.right}
        assert {(0.3, 0.0), (1.0, 0.0), (1.0, 0.3), (0.3, 0.3)} <= corners
        # the natural wing moves the first belief down, the perverse one up
        assert (fs.left[:, 0] <= fs.left[:, 1] + 1e-12).all()
        assert (fs.right[:, 0] >= fs.right[:, 1] - 1e-12).all()

    def test_butterfly_vertices_contain_perverse_tip(self):
        fs = wing_polygons(SIGMA_BUTTERFLY, 0.3, 256)
        verts = np.vstack([fs.left, fs.right])
        sorted_verts = np.sort(verts, axis=1)
        target = np.array([0.16, 0.53333333])
        assert np.abs(sorted_verts - target).max(axis=1).min() < 1e-3

    def test_wings_convex_and_contain_origin(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            sigma = random_garbling(rng)
            prior = rng.uniform(0.2, 0.8)
            fs = wing_polygons(sigma, prior, 128)
            origin = np.array([prior, prior])
            for wing in (fs.left, fs.right):
                if len(wing) < 3:
                    continue
                # convexity: all cross products one sign (CCW)
                v = np.roll(wing, -1, axis=0) - wing
                w = np.roll(wing, -2, axis=0) - np.roll(wing, -1, axis=0)
                cross = v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]
                assert (cross >= -1e-9).all()
                assert np.abs(wing - origin).max(axis=1).min() < 5e-3

    def test_origin_is_a_vertex_of_both_wings(self):
        # both arcs of a wing end at the uninformative point only up to
        # rounding; fig20's garbling once lost that vertex at 32 points
        rng = np.random.default_rng(8)
        cases = [(np.array([[0.01, 0.5], [0.99, 0.5]]), 0.3)]
        cases += [(random_garbling(rng), rng.uniform(0.1, 0.9)) for _ in range(50)]
        for sigma, prior in cases:
            for n in (3, 32, 256):
                fs = wing_polygons(sigma, prior, n)
                for wing in (fs.left, fs.right):
                    assert ((wing[:, 0] == prior) & (wing[:, 1] == prior)).any()
                    assert len(wing) <= 2 * n - 2

    def test_all_vertices_pass_membership(self):
        fs = wing_polygons(SIGMA_BUTTERFLY, 0.3, 128)
        for q1, q2 in np.vstack([fs.left, fs.right]):
            lo, hi = min(q1, q2), max(q1, q2)
            assert member_either_order(SIGMA_BUTTERFLY, 0.3, [lo], [hi])[0]

    def test_near_singular_wings_collapse(self):
        eps = 1e-4
        sigma = np.array([[0.5 + eps, 0.5 - eps], [0.5 - eps, 0.5 + eps]])
        fs = wing_polygons(sigma, 0.4, 64)
        assert polygon_area(fs.left) < 1e-3
        assert np.abs(np.vstack([fs.left, fs.right]) - 0.4).max() < 0.01

    def test_bayes_plausibility_of_vertices(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sigma = random_garbling(rng)
            prior = rng.uniform(0.2, 0.8)
            fs = wing_polygons(sigma, prior, 64)
            for q1, q2 in np.vstack([fs.left, fs.right]):
                assert min(q1, q2) <= prior + 1e-9 <= max(q1, q2) + 2e-9

    def test_midpoint_closure_within_wings(self):
        rng = np.random.default_rng(6)
        sigma = SIGMA_BUTTERFLY
        prior = 0.3
        pairs = []
        while len(pairs) < 50:
            x = random_experiment(rng)
            q1, q2 = posterior_pair(sigma @ x, prior)
            if q1 <= prior <= q2:  # natural wing only
                pairs.append((q1, q2))
        pairs = np.array(pairs)
        for _ in range(200):
            i, j = rng.integers(0, len(pairs), 2)
            mid = 0.5 * (pairs[i] + pairs[j])
            assert member_either_order(sigma, prior, [mid.min()], [mid.max()])[0]


class TestNesting:
    def test_ranked_pair_nested_with_witnesses(self):
        s1, s2 = RANKED_PAIR
        rep = nesting_report(s1, s2, 0.3)
        assert rep.nested
        assert not rep.violations
        assert not rep.witness_failures

    def test_unranked_pair_violations_both_ways(self):
        s1, s2 = UNRANKED_PAIR
        rep_fwd = nesting_report(s1, s2, 0.3)
        rep_rev = nesting_report(s2, s1, 0.3)
        assert rep_fwd.violations
        assert rep_rev.violations

    def test_same_garbling_trivially_nested(self):
        rep = nesting_report(SIGMA_BUTTERFLY, SIGMA_BUTTERFLY, 0.3)
        assert rep.nested and not rep.witness_failures

    def test_relabelled_garbling_nested_through_the_swap(self):
        # swapping sigma's rows maps its square to 1 - square: the same outcomes
        # and the Blackwell witness may relabel the signals back
        relabelled = SIGMA_BUTTERFLY[::-1]
        for s1, s2 in ((SIGMA_BUTTERFLY, relabelled), (relabelled, SIGMA_BUTTERFLY)):
            rep = nesting_report(s1, s2, 0.3)
            assert rep.nested
            assert not rep.witness_failures

    def test_square_a_hair_wider_is_not_nested(self):
        # s2's square [0.1999, 0.8] sticks out of s1's [0.2, 0.8] and of 1 - [0.2, 0.8]
        s1 = np.array([[0.2, 0.8], [0.8, 0.2]])
        s2 = np.array([[0.1999, 0.8], [0.8001, 0.2]])
        rep = nesting_report(s1, s2, 0.3)
        assert not rep.nested
        assert len(rep.violations) == 1


class TestSymmetry:
    def test_symmetric_garbling(self):
        rep = symmetry_report([[2 / 3, 1 / 3], [1 / 3, 2 / 3]], 0.5)
        assert rep.symmetric

    def test_asymmetric_garbling_has_witness(self):
        rep = symmetry_report(SIGMA_BUTTERFLY, 0.5)
        assert not rep.symmetric
        assert rep.witness is not None

    def test_identity_symmetric(self):
        rep = symmetry_report(np.eye(2), 0.5)
        assert rep.symmetric

    def test_square_off_centre_by_1e4_is_not_symmetric(self):
        # m + M = 1.0001
        rep = symmetry_report(np.array([[0.2, 0.8001], [0.8, 0.1999]]), 0.3)
        assert not rep.symmetric
        assert rep.witness is not None


def _simplex_grid(m: int, resolution: float) -> np.ndarray:
    """All points of the m-simplex with coordinates on a 1/k grid, in lexicographic order."""
    k = max(int(round(1.0 / resolution)), 1)
    heads = (p for p in itertools.product(range(k + 1), repeat=m - 1) if sum(p) <= k)
    return np.array([(*p, k - sum(p)) for p in heads], dtype=float) / k


@dataclass(frozen=True, eq=False)
class BeliefCloud:
    """Induced posterior supports over a grid of experiments."""

    posteriors: np.ndarray  # (N, m); prior where the signal has zero mass
    probs: np.ndarray  # (N, m)
    prior: float


def sample_feasible_general(sigma, prior: float, grid_resolution: float = 0.02) -> BeliefCloud:
    """Enumerate m x 2 experiments on a simplex grid and push them through an
    m x m garbling; returns every induced posterior profile.

    The sampler this library exported the m-signal feasible set with before
    ``vertex_profiles``, kept verbatim as the oracle."""
    a = _as_array(sigma)
    m = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("general sampler expects a square garbling")
    cols = _simplex_grid(m, grid_resolution)  # (nc, m) experiment columns
    d = a @ cols.T  # (m, nc): signal distribution per column choice
    nc = cols.shape[0]
    p, beta = _bayes(d[:, :, None], d[:, None, :], prior)  # (m, nc, nc)
    n = nc * nc
    return BeliefCloud(
        posteriors=np.moveaxis(beta, 0, -1).reshape(n, m),
        probs=np.moveaxis(p, 0, -1).reshape(n, m),
        prior=prior,
    )


def signal_ranges(posteriors, probs):
    """Each signal's (lowest, highest) posterior over the rows where it has mass."""
    return [
        (float(posteriors[probs[:, k] > TOL, k].min()), float(posteriors[probs[:, k] > TOL, k].max()))
        for k in range(posteriors.shape[1])
    ]


def random_square_garbling(rng, m):
    return rng.dirichlet(np.ones(m), size=m).T


class TestGeneralSampler:
    def test_two_signal_grid_agrees_with_membership(self):
        sigma = SIGMA_BUTTERFLY
        cloud = sample_feasible_general(sigma, 0.3, 0.05)
        mask = (cloud.probs > 1e-9).all(axis=1)
        pts = cloud.posteriors[mask]
        lo = np.minimum(pts[:, 0], pts[:, 1])
        hi = np.maximum(pts[:, 0], pts[:, 1])
        assert member_either_order(sigma, 0.3, lo, hi).all()

    def test_three_signals_reach_below_prior(self):
        assert attained_beliefs(*vertex_profiles(SIGMA3, 0.3)).min() < 0.3 - 1e-6

    def test_restricted_block_is_uninformative(self):
        sub = SIGMA3[np.ix_([1, 2], [0, 1])]
        sub = sub / sub.sum(axis=0, keepdims=True)
        assert garbling_rank(sub) == 1
        rows = vertex_profiles(sub, 0.3)
        assert_allclose(attained_beliefs(*rows), [0.3], atol=1e-9)
        with pytest.raises(SingularGarbling):
            profile_member_many(sub, 0.3, *rows)

    def test_uninformative_square_collapses(self):
        sigma = np.full((3, 3), 1 / 3)
        posteriors, probs = vertex_profiles(sigma, 0.4)
        assert posteriors.shape == probs.shape == (9, 3)
        assert (posteriors == 0.4).all()
        with pytest.raises(SingularGarbling):
            profile_member_many(sigma, 0.4, posteriors, probs)

    def test_fig18_cloud_and_vertex_rows_are_members(self):
        cloud = sample_feasible_general(SIGMA3, 0.3, 0.05)
        assert cloud.posteriors.shape == (53_361, 3)
        assert profile_member_many(SIGMA3, 0.3, cloud.posteriors, cloud.probs).all()
        posteriors, probs = vertex_profiles(SIGMA3, 0.3)
        assert posteriors.shape == probs.shape == (9, 3)
        assert profile_member_many(SIGMA3, 0.3, posteriors, probs).all()

    def test_vertex_rows_follow_the_experiment_columns(self):
        # row 3 i + j is sigma X with X's state-1 column e_i and state-2 column e_j
        posteriors, probs = vertex_profiles(SIGMA3, 0.3)
        for i, j in itertools.product(range(3), repeat=2):
            x = np.eye(3)[:, [i, j]]
            tau = induced_tau(SIGMA3 @ x, 0.3)
            mass = probs[3 * i + j] > TOL
            got = BeliefDistribution.from_atoms(zip(posteriors[3 * i + j][mass], probs[3 * i + j][mass]), 0.3)
            assert got.allclose(tau, tol=1e-12)

    @pytest.mark.parametrize("step, member", [(-2e-6, False), (2e-6, True)], ids=["outward", "inward"])
    def test_nudged_vertex_row(self, step, member):
        # row (0, 1): composite columns sigma e_0 and sigma e_1; moving the
        # second to sigma ((1 + s) e_1 - s e_2) or sigma ((1 - s) e_1 + s e_2)
        # keeps the row Bayes-plausible with positive masses, and puts
        # sigma^-1 c1 outside the simplex by s only outward
        x1 = np.array([0.0, 1.0 - step, step])
        c0, c1 = SIGMA3[:, 0], SIGMA3 @ x1
        p, q = _bayes(c0, c1, 0.3)
        assert (p > 0.0).all() and np.linalg.solve(SIGMA3, c1).min() == pytest.approx(min(step, 0.0), abs=1e-15)
        assert profile_member_many(SIGMA3, 0.3, q[None], p[None]).tolist() == [member]

    @pytest.mark.parametrize(
        "q_scale, q_shift, p_scale",
        [(1 / 1.01, 0.0, 1.01), (1.0, 0.01, 1.0), (1.0, -0.01, 1.0)],
        ids=["mass-1.01", "barycenter-up", "barycenter-down"],
    )
    def test_rows_that_are_not_bayes_plausible_are_rejected(self, q_scale, q_shift, p_scale):
        # the first keeps each row's barycenter at the prior, but its masses
        # sum to 1.01; the others keep the masses and move the barycenter
        posteriors, probs = vertex_profiles(SIGMA3, 0.3)
        inner = (posteriors > 0.02) & (posteriors < 0.98)
        moved = np.where(inner, posteriors * q_scale + q_shift, posteriors)
        assert not profile_member_many(SIGMA3, 0.3, moved, probs * p_scale).any()

    def test_vertex_ranges_equal_the_cloud_ranges(self):
        cloud = sample_feasible_general(SIGMA3, 0.3, 0.05)
        got = signal_ranges(*vertex_profiles(SIGMA3, 0.3))
        assert got == signal_ranges(cloud.posteriors, cloud.probs)
        as_fractions = [tuple(Fraction(b).limit_denominator(1000) for b in r) for r in got]
        assert as_fractions == [(Fraction(1, 15), Fraction(18, 25)), (Fraction(9, 37), Fraction(4, 11)), (0, 1)]

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_profiles_average_the_vertex_rows(self, m):
        # (p, p q) is linear in (c0, c1), so sigma X's profile is the average
        # of the vertex rows with weights x0_i x1_j
        rng = np.random.default_rng(17 + m)
        for _ in range(200):
            sigma, prior = random_square_garbling(rng, m), rng.uniform(0.05, 0.95)
            x = rng.dirichlet(np.ones(m), size=2).T
            p, q = _bayes((sigma @ x)[:, 0], (sigma @ x)[:, 1], prior)
            vq, vp = vertex_profiles(sigma, prior)
            weights = np.outer(x[:, 0], x[:, 1]).ravel()
            assert np.abs(weights @ vp - p).max() <= 1e-15
            assert np.abs(weights @ (vp * vq) - p * q).max() <= 1e-15
            assert profile_member_many(sigma, prior, q[None], p[None]).all()
            assert profile_member_many(sigma, prior, vq, vp).all()

    def test_two_signals_agree_with_ordered_membership(self):
        # 2,000 ordered pairs: each an induced pair stretched away from the
        # prior by a factor in [0.5, 1.5], so about half are members
        rng = np.random.default_rng(23)
        admitted = 0
        for _ in range(20):
            sigma, prior = random_garbling(rng), rng.uniform(0.05, 0.95)
            induced = np.array([posterior_pair(sigma @ random_experiment(rng), prior) for _ in range(100)]).T
            q1, q2 = np.clip(prior + rng.uniform(0.5, 1.5, (2, 100)) * (induced - prior), 0.0, 1.0)
            assert (np.abs(q2 - q1) > 1e-6).all()
            w1, w2 = _pair_weights(q1, q2, prior)
            want = ordered_member_many(sigma, prior, q1, q2)
            got = profile_member_many(sigma, prior, np.column_stack([q1, q2]), np.column_stack([w1, w2]))
            assert got.tolist() == want.tolist()
            admitted += int(want.sum())
        assert 200 < admitted < 1800


def reference_slice_ends(a: np.ndarray, prior: float, fixed: np.ndarray, is_low: np.ndarray):
    """The interval intersection this library cut the feasible slices with
    before the square test alone decided them, kept verbatim as the oracle.

    ``a`` is (n, 2, 2), full rank; each fixed belief lies on its side of the
    prior (within TOL). A belief within TOL of the prior has one slot, any
    other two: the natural orientation, then the swapped one. Returns the task
    of each slot, the companion range (lo, hi) per garbling and slot, shaped
    (n, slots, 2), and whether that range exists. A missing range reads
    (prior, prior), so every entry is a belief.
    """
    near = np.abs(fixed - prior) <= TOL
    slot = np.repeat(np.arange(fixed.size), np.where(near, 1, 2))
    swapped = np.zeros(slot.size, dtype=bool)
    swapped[1:] = slot[1:] == slot[:-1]
    f, low, near = fixed[slot], is_low[slot], near[slot]
    # the natural orientation puts the low belief on signal 1
    rows = a[:, np.where(low != swapped, 0, 1), :]  # (n, slots, 2)
    row_min, row_max = rows.min(axis=-1), rows.max(axis=-1)
    end = np.where(low, 1.0, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        w_end = (end - prior) / (end - f)
        w_lo, w_hi = np.zeros_like(row_min), np.broadcast_to(w_end, row_max.shape)
        for alpha_k in _composite(f, 1.0, prior):
            up = alpha_k > 0.0
            w_lo = np.where(up, np.maximum(w_lo, row_min / alpha_k),
                            np.where(row_min > 0.0, np.inf, w_lo))  # the ray stays on an axis the square misses
            w_hi = np.where(up, np.minimum(w_hi, row_max / alpha_k), w_hi)
        t_lo, t_hi = (np.where(w == w_end, end, (prior - f * w) / (1.0 - w)) for w in (w_lo, w_hi))
    present = near | ~(w_lo > w_hi)
    keep = present & ~near
    ends = np.stack([np.where(keep, np.minimum(t_lo, t_hi), prior),
                     np.where(keep, np.maximum(t_lo, t_hi), prior)], axis=-1)
    return slot, ends, present


def reference_companion_slices(sigma, prior, fixed_beliefs):
    """``companion_slices`` on the interval oracle, as it was built on it."""
    a = np.asarray(sigma, dtype=float)
    tasks = [(float(f), low) for f, low in fixed_beliefs if ((f <= prior + TOL) if low else (f >= prior - TOL))]
    if not tasks:
        return []
    fixed, is_low = (np.array(col) for col in zip(*tasks))
    slot, ends, present = reference_slice_ends(a[None], prior, fixed, is_low.astype(bool))
    return [
        (tasks[k][0], tasks[k][1], (float(ends[0, s, 0]), float(ends[0, s, 1])))
        for s, k in enumerate(slot.tolist())
        if present[0, s]
    ]


def garbling_of(first_row):
    s1, s2 = first_row
    return np.array([[s1, s2], [1.0 - s1, 1.0 - s2]])


def slice_bits(slices):
    """Slices with every float as its hex string, so that equality is bit
    equality and a signed zero counts."""
    return [(f.hex(), low, lo.hex(), hi.hex()) for f, low, (lo, hi) in slices]


class TestCompanionIntervals:
    def test_three_step_slice_at_upper_cutoff(self):
        # the exact slice through 2/3 is {1/5} u [3/8, 5/11]: the companion
        # 1/5 needs the composite row (3/7, 6/7), a corner of the square, so
        # only X = [[0, 1], [1, 0]] induces it
        pieces = sorted(rng for _, _, rng in companion_slices(SIGMA_STAR, 0.5, [(2 / 3, False)]))
        assert len(pieces) == 2
        assert pieces[0] == pytest.approx((1 / 5, 1 / 5), abs=1e-9)
        assert pieces[1] == pytest.approx((3 / 8, 5 / 11), abs=1e-9)
        tau = pair_tau(1 / 5, 2 / 3, 0.5)
        assert_allclose(reconstruct_experiment(SIGMA_STAR, 0.5, tau), [[0, 1], [1, 0]], atol=1e-9)

    def test_slice_endpoints_feasible(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            sigma = random_garbling(rng)
            prior = rng.uniform(0.2, 0.8)
            c = rng.uniform(0.0, prior)
            for _, _, (lo, hi) in companion_slices(sigma, prior, [(c, True)]):
                assert member_either_order(sigma, prior, [c, c], [lo, hi]).all()

    def test_slices_are_maximal(self):
        # just past each end of a piece, inside the companion's range and
        # outside every other piece, neither orientation is a member. The
        # kernel admits experiment entries within TOL = 1e-9 of [0, 1]; with the
        # fixed belief 0.1 away from the prior and from 0 and 1, a 1e-7 step in
        # the companion moves the binding entry by more than 1.4e-9
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(200):
            sigma = random_garbling(rng)
            prior = rng.uniform(0.3, 0.7)
            tasks = [(rng.uniform(0.1, prior - 0.1), True), (rng.uniform(prior + 0.1, 0.9), False)]
            slices = companion_slices(sigma, prior, tasks)
            for fixed, is_low, (lo, hi) in slices:
                assert member_either_order(sigma, prior, [fixed, fixed], [lo, hi]).all()
                span = (prior, 1.0) if is_low else (0.0, prior)
                for t in (lo - 1e-7, hi + 1e-7):
                    inside_other = any(
                        f == fixed and a <= t <= b for f, _, (a, b) in slices
                    )
                    if span[0] <= t <= span[1] and not inside_other:
                        assert not member_either_order(sigma, prior, [fixed], [t])[0]
                        checked += 1
        assert checked > 300

    def test_slice_narrower_than_scan_step_is_found(self):
        # just below 2/3 the ray of composite rows clips the square's corner
        # (3/7, 6/7): a piece near 1/5 about 4e-4 wide, under the 0.5 / 256
        # step of a 257-point scan of the companion range [0, 1/2]
        fixed = 2 / 3 - 1e-4
        pieces = sorted(rng for _, _, rng in companion_slices(SIGMA_STAR, 0.5, [(fixed, False)]))
        assert len(pieces) == 2
        lo, hi = pieces[0]
        assert 0.2 < lo < hi < 0.2 + 0.5 / 256
        ts = np.linspace(lo, hi, 9)
        assert member_either_order(SIGMA_STAR, 0.5, np.full(9, fixed), ts).all()


    def test_slices_equal_the_interval_oracle(self):
        # random garblings, some with entries anywhere in [0, 1]; fixed
        # beliefs at 0, 1, the prior, within TOL of it, on the 1/20 grid and
        # uniform, each taken as low and as high. Off the square's corners the
        # ray's crossings admitted by the square test end the same slices the
        # interval intersection did, bit for bit
        rng = np.random.default_rng(19)
        tasks_checked = entries = 0
        for i in range(800):
            sigma = random_garbling(rng) if i % 2 else random_garbling(rng, lo=0.0, hi=1.0, min_det=0.01)
            prior = float(rng.uniform(0.05, 0.95))
            pool = [0.0, 1.0, prior, prior + rng.uniform(-TOL, TOL), rng.integers(21) / 20, rng.uniform()]
            tasks = [(float(pool[rng.integers(len(pool))]), bool(rng.integers(2))) for _ in range(rng.integers(1, 7))]
            got = companion_slices(sigma, prior, tasks)
            assert slice_bits(got) == slice_bits(reference_companion_slices(sigma, prior, tasks)), (sigma, prior, tasks)
            tasks_checked += len(tasks)
            entries += len(got)
        for fixed in (2 / 3, 2 / 3 - 1e-4):  # the corner cases above
            tasks = [(fixed, False)]
            assert slice_bits(companion_slices(SIGMA_STAR, 0.5, tasks)) == slice_bits(reference_companion_slices(SIGMA_STAR, 0.5, tasks))
        assert tasks_checked >= 1000 and entries >= 1000

    @pytest.mark.parametrize("prior", [0.3, 0.5, 0.7])
    def test_identity_slices_reach_the_far_end_exactly(self, prior):
        # through sigma = I every pair of the rectangle [0, pi] x [pi, 1] is
        # inducible, so each slice ends at the far end of its range, 1 or 0,
        # which no edge crossing gives exactly
        tasks = [(f, f < prior) for f in np.arange(21) / 20 if abs(f - prior) > TOL]
        slices = companion_slices(np.eye(2), prior, tasks)
        assert len(slices) == 2 * len(tasks)
        for _, is_low, rng in slices:
            assert rng == ((prior, 1.0) if is_low else (0.0, prior))

    def test_slices_stay_in_the_belief_space(self):
        # garblings with an entry 0 or 1, where a crossing can fall on the far
        # end of the ray's range and round past 0 or 1
        rng = np.random.default_rng(23)
        grid = np.arange(21) / 20
        for _ in range(300):
            row = [1.0 if rng.integers(2) else 0.0, float(grid[rng.integers(1, 20)])]
            sigma = garbling_of(row[:: 1 if rng.integers(2) else -1])
            prior = float(rng.uniform(0.05, 0.95))
            tasks = [(float(f), f < prior) for f in grid]
            for _, _, (lo, hi) in companion_slices(sigma, prior, tasks):
                assert 0.0 <= lo <= hi <= 1.0, (sigma, prior)

    @pytest.mark.parametrize("fixed, is_low, companion", [(4 / 5, False, 1 / 3), (1 / 3, True, 4 / 5)])
    def test_single_point_slice_at_the_identity_corner(self, fixed, is_low, companion):
        # X = I induces (1/3, 4/5) through SIGMA_STAR: the rays through 1/3
        # and 4/5 meet their squares only at the corners X = I reaches. The
        # interval intersection, in floats, left that slice empty; the square
        # test admits the corner crossing
        point = pytest.approx((companion, companion), abs=1e-12)
        pieces = [rng for _, _, rng in companion_slices(SIGMA_STAR, 0.5, [(fixed, is_low)])]
        assert any(r == point for r in pieces), pieces
        assert not any(r == point for _, _, r in reference_companion_slices(SIGMA_STAR, 0.5, [(fixed, is_low)]))


def reference_ordered_experiments(a, prior, q1, q2):
    """The inverse-garbling membership kernel this library used before the
    square test, kept verbatim as the reference."""
    inv = np.linalg.inv(a)
    lo, hi = np.minimum(q1, q2), np.maximum(q1, q2)
    ok_bayes = (lo <= prior + TOL) & (hi >= prior - TOL)
    deg = (hi - lo) <= TOL
    width = np.where(deg, 1.0, q2 - q1)
    w2 = np.minimum(np.maximum((prior - q1) / width, 0.0), 1.0)
    w1 = 1.0 - w2
    b1a = (1.0 - q1) * w1 / (1.0 - prior)
    b1b = q1 * w1 / prior
    b2a = (1.0 - q2) * w2 / (1.0 - prior)
    b2b = q2 * w2 / prior
    cols = []
    feas = np.ones(np.shape(q1), dtype=bool)
    for top, bot in ((b1a, b2a), (b1b, b2b)):  # columns of the composite
        x_top = inv[0, 0] * top + inv[0, 1] * bot
        x_bot = inv[1, 0] * top + inv[1, 1] * bot
        feas &= (x_top >= -TOL) & (x_bot >= -TOL)
        cols.append((x_top, x_bot))
    feas = (feas | (deg & (np.abs(lo - prior) <= TOL))) & ok_bayes
    return feas, deg, cols


class TestSquareKernel:
    def test_agrees_with_inverse_garbling_reference(self):
        # 8 garblings x 131,072 pairs; some garblings have a 0 or 1 entry. A
        # sixteenth of the pairs has the signal-1 belief at the prior, one the
        # signal-2 belief, and one both beliefs within TOL / 2 of it (the
        # degenerate rule). Pairs that miss Bayes plausibility by at most TOL
        # are left out: their weights are clamped, so the old kernel tested
        # X >= -TOL on a composite whose columns do not sum to 1, where the
        # square test bounds the one experiment row the pair implies
        rng = np.random.default_rng(11)
        n = 1 << 17
        k = n // 16
        total = 0
        for g in range(8):
            sigma = random_garbling(rng, lo=0.0, hi=1.0, min_det=0.01)
            if g % 3 == 0:
                sigma[:, g % 2] = (1.0, 0.0) if g % 2 else (0.0, 1.0)
            prior = rng.uniform(0.05, 0.95)
            q1, q2 = rng.uniform(0.0, 1.0, (2, n))
            q1[:k] = prior
            q2[k : 2 * k] = prior
            q1[2 * k : 3 * k], q2[2 * k : 3 * k] = prior + rng.uniform(-TOL / 2, TOL / 2, (2, k))
            want, _, _ = reference_ordered_experiments(sigma, prior, q1, q2)
            got = ordered_member_many(sigma, prior, q1, q2)
            assert got.dtype == bool and got.shape == q1.shape
            assert np.array_equal(got, want), (sigma, prior)
            total += n
        assert total >= 10**6
