import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mediated_persuasion import (
    BarycenterMismatch,
    BeliefDistribution,
    BlackwellOrder,
    ColumnSumMismatch,
    DimensionMismatch,
    NegativeEntry,
    NonFiniteEntry,
    PriorOutsideSupport,
    TooFewRealizations,
    bayes_plausible_weights,
    blackwell_compare,
    compose,
    garbling_rank,
    induced_tau,
    is_mps,
    posterior_pair,
    validate_stochastic,
)
from mediated_persuasion.info import (
    TOL,
    _bayes,
    _belief_rows,
    _composite,
    _induced_taus,
    _pair_weights,
    _validate_mps_witness,
)

from conftest import RANKED_PAIR, UNRANKED_PAIR, random_experiment, random_garbling
from lp_oracle import garbling_lp, mps_linear_program


class TestValidateStochastic:
    def test_identity_ok(self):
        m = validate_stochastic([[1, 0], [0, 1]])
        assert m.shape == (2, 2)

    def test_worked_garbling_ok(self):
        m = validate_stochastic([[6 / 7, 3 / 7], [1 / 7, 4 / 7]])
        assert_allclose(m.sum(axis=0), 1.0)

    def test_column_sum_mismatch_reports_worst_column(self):
        with pytest.raises(ColumnSumMismatch) as exc:
            validate_stochastic([[0.5, 0.6], [0.5, 0.5]])
        assert exc.value.column == 1
        assert exc.value.deviation == pytest.approx(0.1)

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            validate_stochastic([[1.2, 0], [-0.2, 1]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, bad):
        # each check below is a comparison, which NaN never fails
        with pytest.raises(NonFiniteEntry) as exc:
            validate_stochastic([[0.5, 0.25], [0.5, bad]])
        assert (exc.value.row, exc.value.col) == (1, 1)

    def test_too_few_realizations(self):
        with pytest.raises(TooFewRealizations):
            validate_stochastic([[0.2, 0.5, 0.3], [0.8, 0.5, 0.7]])

    def test_entries_within_tol_are_used_as_given(self):
        raw = [[1.0, -1e-10], [0.0, 1.0 + 1e-10]]
        assert validate_stochastic(raw).tolist() == raw

    def test_input_not_mutated(self):
        raw = [[0.5, 0.25], [0.5, 0.75]]
        validate_stochastic(raw)
        assert raw == [[0.5, 0.25], [0.5, 0.75]]


class TestCompose:
    def test_identity_right_factor(self):
        sigma = [[6 / 7, 3 / 7], [1 / 7, 4 / 7]]
        b = compose(sigma, np.eye(2))
        assert_allclose(b, sigma)

    def test_absorbing_garbling(self):
        b = compose([[0.5, 0.5], [0.5, 0.5]], random_experiment(np.random.default_rng(3)))
        assert_allclose(b[:, 0], b[:, 1])

    def test_noise_channel_product(self):
        eps, p = 1 / 100, 1 / 4
        sigma = np.array([[eps * p - eps + 1, eps * p], [eps - eps * p, 1 - eps * p]])
        x, y = 0.7, 0.2
        X = np.array([[x, y], [1 - x, 1 - y]])
        b = compose(sigma, X)
        expected = np.array(
            [
                [x * (eps * p - eps + 1) - eps * p * (x - 1), y * (eps * p - eps + 1) - eps * p * (y - 1)],
                [(eps * p - 1) * (x - 1) + x * (eps - eps * p), (eps * p - 1) * (y - 1) + y * (eps - eps * p)],
            ]
        )
        assert_allclose(b, expected, atol=1e-12)

    def test_composition_stays_column_stochastic(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            b = compose(random_garbling(rng), random_experiment(rng))
            assert_allclose(b.sum(axis=0), 1.0, atol=1e-12)


class TestPosteriors:
    def test_conviction_structure(self):
        b = [[4 / 7, 0], [3 / 7, 1]]
        assert posterior_pair(b, 0.3) == pytest.approx((0.0, 0.5), abs=1e-12)

    def test_worked_garbling_posteriors(self):
        b = [[6 / 7, 3 / 7], [1 / 7, 4 / 7]]
        assert posterior_pair(b, 0.5) == pytest.approx((1 / 3, 4 / 5), abs=1e-12)

    def test_zero_probability_signal(self):
        # the pair reports a signal without mass at the prior; the outcome drops it
        assert posterior_pair([[0, 0], [1, 1]], 0.3) == (0.3, 0.3)
        tau = induced_tau([[0, 0], [1, 1]], 0.3)
        assert (tau.beliefs.tolist(), tau.probs.tolist()) == ([0.3], [1.0])


class TestBayesKernel:
    def test_composite_inverts_bayes(self):
        rng = np.random.default_rng(3)
        for prior in rng.uniform(0.01, 0.99, 20):
            q, w = rng.uniform(0.01, 0.99, (2, 1000))
            p, back = _bayes(*_composite(q, w, prior), prior)
            assert np.abs(p - w).max() <= 1e-15
            assert np.abs(back - q).max() <= 1e-15

    def test_signal_without_mass_gets_the_prior(self):
        p, q = _bayes(np.array([0.0, TOL / 2, 0.5]), np.array([0.0, TOL / 2, 0.25]), 0.3)
        assert q[:2].tolist() == [0.3, 0.3]
        assert q[2] == 0.3 * 0.25 / p[2]

    def test_broadcasts_grid_shapes(self):
        # broadcast likelihoods give each pair's update, as one pair at a time
        rng = np.random.default_rng(4)
        c = rng.uniform(0.0, 1.0, (3, 5))
        c[0, 0] = 0.0
        p, q = _bayes(c[:, :, None], c[:, None, :], 0.4)
        assert p.shape == q.shape == (3, 5, 5)
        assert q[0, 0, 0] == 0.4
        for r, k, j in np.ndindex(3, 5, 5):
            one_p, one_q = _bayes(c[r, [k]], c[r, [j]], 0.4)
            assert (p[r, k, j], q[r, k, j]) == (one_p[0], one_q[0])

    def test_pair_weights_average_to_the_prior(self):
        rng = np.random.default_rng(5)
        prior = 0.35
        lo, hi = rng.uniform(0.0, prior, 1000), rng.uniform(prior + 0.01, 1.0, 1000)
        for q1, q2 in ((lo, hi), (hi, lo)):
            w1, w2 = _pair_weights(q1, q2, prior)
            assert np.abs(w1 * q1 + w2 * q2 - prior).max() <= 1e-15
            assert ((w1 >= 0.0) & (w2 >= 0.0)).all()
        # a pair of width at most TOL is read as width 1: its true width would
        # put all weight on the second posterior
        _, w2 = _pair_weights(prior - TOL / 2, prior, prior)
        assert w2 == pytest.approx(TOL / 2, rel=1e-6)


class TestInducedTau:
    def test_worked_garbling(self):
        tau = induced_tau([[6 / 7, 3 / 7], [1 / 7, 4 / 7]], 0.5)
        assert_allclose(tau.beliefs, [1 / 3, 4 / 5], atol=1e-12)
        assert_allclose(tau.probs, [9 / 14, 5 / 14], atol=1e-12)

    def test_uninformative_collapses_to_prior(self):
        for prior in (0.1, 0.42, 0.9):
            tau = induced_tau([[0.37, 0.37], [0.63, 0.63]], prior)
            assert tau.beliefs.size == 1
            assert tau.beliefs[0] == pytest.approx(prior, abs=1e-12)
            assert tau.probs.tolist() == [1.0]

    def test_asymmetric_noise_structure(self):
        # columns ordered target-state-first in the source, so swap them here
        b = np.array([[1 / 100, 1 / 2], [99 / 100, 1 / 2]])
        tau = induced_tau(b, 0.3)
        assert_allclose(tau.beliefs, [0.15 / 0.843, 0.15 / 0.157], atol=1e-9)
        assert_allclose(tau.probs, [0.843, 0.157], atol=1e-12)

    def test_zero_probability_signals_dropped(self):
        tau = induced_tau([[0, 0], [0.6, 1], [0.4, 0]], 0.5)
        assert tau.beliefs.size == 2

    def test_bayes_plausible_for_random_composites(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            prior = rng.uniform(0.05, 0.95)
            tau = induced_tau(
                compose(random_garbling(rng), random_experiment(rng)), prior
            )
            assert abs(float(tau.beliefs @ tau.probs) - prior) < 1e-9


    @pytest.mark.parametrize(
        "b, error", [([[np.nan, 0.5], [np.nan, 0.5]], NonFiniteEntry), ([[2, -1], [-1, 2]], NegativeEntry)], ids=["nan", "negative"]
    )
    def test_rejects_a_structure_that_is_not_stochastic(self, b, error):
        # checked as the best responses check their strategies: the NaN
        # columns read as the point mass at the prior, the negative entries
        # as beliefs outside [0, 1]
        with pytest.raises(error):
            induced_tau(b, 0.5)

    def test_single_signal_induces_the_prior(self):
        tau = induced_tau([[1.0, 1.0]], 0.3)
        assert (tau.beliefs.tolist(), tau.probs.tolist()) == ([0.3], [1.0])


def reference_bayes_plausible_weights(b1, b2, prior: float):
    """The weights as ``bayes_plausible_weights`` computed them beside
    ``_pair_weights``, kept verbatim as the oracle."""
    lo, hi = np.asarray(b1, dtype=float), np.asarray(b2, dtype=float)
    outside = ~((lo - TOL <= prior) & (prior <= hi + TOL)) | (lo > hi + TOL)
    if outside.any():
        i = np.unravel_index(int(np.argmax(outside)), outside.shape)
        raise PriorOutsideSupport(f"need b1 <= prior <= b2, got ({lo[i]}, {prior}, {hi[i]})")
    with np.errstate(invalid="ignore", divide="ignore"):
        p1 = (hi - prior) / (hi - lo)
    p1 = np.where(hi - lo <= TOL, 0.5, np.where(p1 < 0.0, 0.0, np.where(p1 > 1.0, 1.0, p1)))  # as min() and max() clamp
    p2 = 1.0 - p1
    if p1.ndim == 0:
        return float(p1), float(p2)
    return p1, p2


class TestBayesPlausibleWeights:
    def test_conviction_weights(self):
        assert bayes_plausible_weights(0.0, 0.5, 0.3) == pytest.approx((0.4, 0.6))

    def test_degenerate_convention(self):
        assert bayes_plausible_weights(0.4, 0.4, 0.4) == (0.5, 0.5)

    def test_worked_weights(self):
        p1, p2 = bayes_plausible_weights(1 / 3, 4 / 5, 0.5)
        assert (p1, p2) == pytest.approx((9 / 14, 5 / 14), abs=1e-12)

    def test_prior_outside_support(self):
        with pytest.raises(PriorOutsideSupport):
            bayes_plausible_weights(0.5, 0.8, 0.3)

    @pytest.mark.parametrize("b1, b2", [(0.2, np.inf), (-np.inf, 0.8), (np.nan, 0.8)], ids=["inf", "minus-inf", "nan"])
    def test_non_finite_belief_raises(self, b1, b2):
        # an infinite high belief passes prior <= b2, and weights built from
        # it read (nan, nan), or (0, 1) for an infinite low one
        with pytest.raises(PriorOutsideSupport, match=r"need finite beliefs, got \((-inf|nan|0\.2), 0\.5, (inf|0\.8)\)"):
            bayes_plausible_weights(b1, b2, 0.5)
        with pytest.raises(PriorOutsideSupport, match="need finite beliefs"):
            bayes_plausible_weights(np.array([0.1, b1]), np.array([0.9, b2]), 0.5)
        with pytest.raises(PriorOutsideSupport, match="need finite beliefs"):
            bayes_plausible_weights(b1, np.array([b2, b2]), 0.5)  # a scalar broadcasts

    def test_arrays_give_each_pair_its_scalar_weights(self):
        rng = np.random.default_rng(5)
        prior = 0.4
        lo, hi = rng.uniform(0.0, prior, 200), rng.uniform(prior, 1.0, 200)
        lo[:20] = hi[:20] = prior  # degenerate support
        p1, p2 = bayes_plausible_weights(lo, hi, prior)
        want = [bayes_plausible_weights(a, b, prior) for a, b in zip(lo.tolist(), hi.tolist())]
        assert all(type(w) is float for pair in want for w in pair)
        assert list(zip(p1.tolist(), p2.tolist())) == want

    def test_arrays_raise_for_the_first_pair_outside(self):
        with pytest.raises(PriorOutsideSupport, match=r"\(0\.5, 0\.3, 0\.8\)"):
            bayes_plausible_weights(np.array([0.1, 0.5, 0.6]), np.array([0.9, 0.8, 0.7]), 0.3)
        # a scalar belief broadcasts against the array, in the message too
        with pytest.raises(PriorOutsideSupport, match=r"\(0\.5, 0\.3, 0\.8\)"):
            bayes_plausible_weights(0.5, np.array([0.8, 0.9]), 0.3)

    def test_weights_equal_the_old_formula_bit_for_bit(self):
        # 400,000 pairs compared as int64 views, so signed zeros count: a
        # sixteenth each on the prior, at 0 or 1, narrower than 1e-6, and
        # within TOL / 2 of the prior (either side), the rest uniform
        rng = np.random.default_rng(29)
        n, k = 50_000, 50_000 // 16
        for _ in range(8):
            prior = rng.uniform(0.05, 0.95)
            lo, hi = rng.uniform(0.0, prior, n), rng.uniform(prior, 1.0, n)
            lo[:k] = prior
            hi[k : 2 * k] = prior
            lo[2 * k : 3 * k], hi[3 * k : 4 * k] = 0.0, 1.0
            hi[4 * k : 5 * k] = np.minimum(lo[4 * k : 5 * k] + rng.uniform(0.0, 1e-6, k), 1.0)
            lo[4 * k : 5 * k] = np.minimum(lo[4 * k : 5 * k], prior)
            hi[4 * k : 5 * k] = np.maximum(hi[4 * k : 5 * k], prior)
            lo[5 * k : 6 * k], hi[5 * k : 6 * k] = prior + rng.uniform(-TOL / 2, TOL / 2, (2, k))
            got, want = bayes_plausible_weights(lo, hi, prior), reference_bayes_plausible_weights(lo, hi, prior)
            for g, w in zip(got, want):
                assert np.array_equal(g.view(np.int64), w.view(np.int64)), prior
            for i in range(0, 6 * k, k):  # the scalar path, once per kind of pair
                assert bayes_plausible_weights(lo[i], hi[i], prior) == reference_bayes_plausible_weights(lo[i], hi[i], prior)

    @given(
        b1=st.floats(0, 1),
        b2=st.floats(0, 1),
        lam=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_weights_recover_prior(self, b1, b2, lam):
        lo, hi = sorted((b1, b2))
        prior = lo + lam * (hi - lo)
        p1, p2 = bayes_plausible_weights(lo, hi, prior)
        assert abs(p1 + p2 - 1.0) < 1e-12
        assert abs(p1 * lo + p2 * hi - prior) < 1e-9


class TestMeanPreservingSpread:
    def test_worked_pair(self):
        mp = BeliefDistribution.from_atoms([(1 / 3, 9 / 14), (4 / 5, 5 / 14)])
        bp = BeliefDistribution.from_atoms([(1 / 3, 0.5), (2 / 3, 0.5)])
        res = is_mps(mp, bp)
        assert res
        assert res.witness.shape == (2, 2)

    def test_reflexive_with_identity_witness(self):
        tau = BeliefDistribution.from_atoms([(0.2, 0.5), (0.6, 0.5)])
        res = is_mps(tau, tau)
        assert res
        assert_allclose(res.witness, np.eye(2), atol=1e-12)

    def test_reverse_direction_fails(self):
        mp = BeliefDistribution.from_atoms([(1 / 3, 9 / 14), (4 / 5, 5 / 14)])
        bp = BeliefDistribution.from_atoms([(1 / 3, 0.5), (2 / 3, 0.5)])
        assert not is_mps(bp, mp)

    def test_barycenter_mismatch(self):
        a = BeliefDistribution.from_atoms([(0.2, 0.5), (0.6, 0.5)])
        b = BeliefDistribution.from_atoms([(0.1, 0.5), (0.3, 0.5)])
        with pytest.raises(BarycenterMismatch):
            is_mps(a, b)

    def test_point_mass_always_dominated(self):
        spread = BeliefDistribution.from_atoms([(0.1, 0.75), (0.9, 0.25)])
        point = BeliefDistribution.from_atoms([(0.3, 1.0)])
        assert is_mps(spread, point)
        assert not is_mps(point, spread)

    def test_garbling_contracts_beliefs(self):
        # composing with any garbling yields a mean-preserving contraction
        rng = np.random.default_rng(23)
        for _ in range(1000):
            prior = rng.uniform(0.05, 0.95)
            sigma = random_garbling(rng, lo=0.0, hi=1.0, min_det=0.0)
            x = random_experiment(rng)
            res = is_mps(induced_tau(x, prior), induced_tau(compose(sigma, x), prior))
            assert res

    def test_three_point_supports_via_linear_program(self):
        spread = BeliefDistribution.from_atoms([(0.0, 0.25), (0.5, 0.5), (1.0, 0.25)])
        mid = BeliefDistribution.from_atoms([(0.2, 0.35), (0.5, 0.3), (0.8, 0.35)])
        res = is_mps(spread, mid)
        assert res
        T = res.witness
        assert T.min() >= -1e-9
        assert_allclose(T.sum(axis=0), 1.0, atol=1e-9)
        assert_allclose(T @ mid.probs, spread.probs, atol=1e-9)
        assert_allclose(spread.beliefs @ T, mid.beliefs, atol=1e-9)
        assert not is_mps(mid, spread)

    def test_curtain_witness_of_a_three_atom_spread(self):
        # each contracted atom, from the left, takes the window of its mean
        # from what the earlier atoms left; dyadic numbers make it exact
        spread = BeliefDistribution.from_atoms([(0.0, 0.25), (0.5, 0.5), (1.0, 0.25)])
        contracted = BeliefDistribution.from_atoms([(0.25, 0.5), (0.75, 0.5)])
        fwd, rev = is_mps(spread, contracted), is_mps(contracted, spread)
        assert fwd and mps_linear_program(spread, contracted)
        T = fwd.witness
        assert np.array_equal(T, [[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        assert np.array_equal(T @ contracted.probs, spread.probs)  # transports the mass
        assert np.array_equal(spread.beliefs @ T, contracted.beliefs)  # keeps each column's mean
        assert not rev and not mps_linear_program(contracted, spread)
        assert rev.witness is None

    def test_verdicts_equal_the_lp_oracle(self):
        # distributions of 1 to 11 atoms; half the pairs are ordered by a garbling
        rng = np.random.default_rng(37)
        verdicts = []
        for _ in range(300):
            prior = rng.uniform(0.05, 0.95)
            x = random_structure(rng, rng.integers(1, 12))
            y = garbled(rng, x, rng.integers(1, 12)) if rng.uniform() < 0.5 else random_structure(rng, rng.integers(1, 12))
            a, b = induced_tau(x, prior), induced_tau(y, prior)
            for spread, contracted in ((a, b), (b, a)):
                res = is_mps(spread, contracted)
                assert res.is_spread == mps_linear_program(spread, contracted).is_spread, (spread, contracted)
                assert res.witness is None or _validate_mps_witness(res.witness, spread, contracted)
                verdicts.append(res.is_spread)
        assert 200 < sum(verdicts) < 500

    def test_witness_satisfies_both_conditions(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            prior = rng.uniform(0.1, 0.9)
            x = random_experiment(rng)
            sigma = random_garbling(rng)
            spread = induced_tau(x, prior)
            contracted = induced_tau(compose(sigma, x), prior)
            res = is_mps(spread, contracted)
            assert res
            T = res.witness
            assert T.min() >= -1e-9
            assert_allclose(T.sum(axis=0), 1.0, atol=1e-9)
            assert_allclose(T @ contracted.probs, spread.probs, atol=1e-9)
            assert_allclose(spread.beliefs @ T, contracted.beliefs, atol=1e-9)


class TestBlackwellCompare:
    def test_ranked_pair(self):
        s1, s2 = RANKED_PAIR
        res = blackwell_compare(s1, s2)
        assert res.order is BlackwellOrder.DOMINATES
        expected = np.array([[0.635, 0.21833], [0.255, 0.67167]]) / 0.89
        assert_allclose(res.to_second, expected, atol=1e-4)
        assert_allclose(res.to_second @ s1, s2, atol=1e-9)
        assert_allclose(res.to_second.sum(axis=0), 1.0, atol=1e-9)

    def test_unranked_pair(self):
        s1, s2 = UNRANKED_PAIR
        assert blackwell_compare(s1, s2).order is BlackwellOrder.UNRANKED

    def test_self_equivalent_with_identity(self):
        s = np.array([[0.7, 0.2], [0.3, 0.8]])
        res = blackwell_compare(s, s)
        assert res.order is BlackwellOrder.EQUIVALENT
        assert_allclose(res.to_second, np.eye(2), atol=1e-9)

    def test_reflexive_on_random_structures(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            s = random_garbling(rng)
            assert blackwell_compare(s, s).order is BlackwellOrder.EQUIVALENT

    def test_transitive_on_garbled_chains(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            top = random_garbling(rng)
            mid = compose(random_garbling(rng), top)
            bot = compose(random_garbling(rng), mid)
            assert blackwell_compare(top, mid).order in (
                BlackwellOrder.DOMINATES,
                BlackwellOrder.EQUIVALENT,
            )
            assert blackwell_compare(mid, bot).order in (
                BlackwellOrder.DOMINATES,
                BlackwellOrder.EQUIVALENT,
            )
            assert blackwell_compare(top, bot).order in (
                BlackwellOrder.DOMINATES,
                BlackwellOrder.EQUIVALENT,
            )

    def test_witness_is_valid_garbling(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            s1 = random_garbling(rng)
            s2 = compose(random_garbling(rng), s1)
            res = blackwell_compare(s1, s2)
            assert res.to_second is not None
            assert np.abs(res.to_second @ s1 - s2).max() < 1e-9
            assert_allclose(res.to_second.sum(axis=0), 1.0, atol=1e-9)
            assert res.to_second.min() >= 0.0

    def test_closed_form_agrees_with_feasibility_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            s1 = random_garbling(rng, lo=0.02, hi=0.98, min_det=0.02)
            s2 = (
                compose(random_garbling(rng), s1)
                if rng.uniform() < 0.5
                else random_garbling(rng, lo=0.02, hi=0.98, min_det=0.02)
            )
            G = blackwell_compare(s1, s2).to_second
            assert (G is None) == (garbling_lp(s1, s2) is None)
            assert G is None or np.abs(G @ s1 - s2).max() <= TOL

    def test_verdicts_equal_the_lp_oracle_on_m_by_2_pairs(self):
        # 2 to 5 signals, with signals of no mass and signals that share a
        # posterior; half the pairs are ordered by a garbling
        rng = np.random.default_rng(41)
        ranked = 0
        for _ in range(200):
            m1, m2 = rng.integers(2, 6, size=2)
            s1 = random_structure(rng, m1)
            s2 = garbled(rng, s1, m2) if rng.uniform() < 0.5 else random_structure(rng, m2)
            res = blackwell_compare(s1, s2)
            for G, a, b in ((res.to_second, s1, s2), (res.to_first, s2, s1)):
                assert (G is None) == (garbling_lp(a, b) is None), (a, b)
                if G is not None:
                    ranked += 1
                    assert G.min() >= 0.0
                    assert np.abs(G.sum(axis=0) - 1.0).max() <= TOL
                    assert np.abs(G @ a - b).max() <= TOL
        assert 100 < ranked < 300

    @pytest.mark.parametrize(
        "bad, error",
        [
            ([[2, 0], [-1, 1]], NegativeEntry),
            ([[np.nan, 0], [1, 1]], NonFiniteEntry),
            ([[0.5, 0.6], [0.5, 0.5]], ColumnSumMismatch),
            (np.eye(3), DimensionMismatch),
        ],
        ids=["negative", "nan", "column-sum", "three-states"],
    )
    def test_rejects_invalid_structures(self, bad, error):
        for s1, s2 in ((bad, np.eye(2)), (np.eye(2), bad)):
            with pytest.raises(error):
                blackwell_compare(s1, s2)


def random_structure(rng, m):
    """Random m x 2 column-stochastic structure. With m > 2, one signal may
    have no mass, and two may share a posterior (one signal split in two)."""
    s = rng.dirichlet(np.ones(m), size=2).T
    if m > 2 and rng.uniform() < 0.3:
        s[rng.integers(m)] = 0.0
        s /= s.sum(axis=0)
    if m > 2 and rng.uniform() < 0.3:
        i, k = rng.choice(m, 2, replace=False)
        total, t = s[i] + s[k], rng.uniform()
        s[i], s[k] = t * total, (1.0 - t) * total
    return s


def garbled(rng, s, m):
    """``G @ s`` for a random garbling G with m rows; one of its columns may
    send all its mass to one signal."""
    G = rng.dirichlet(np.ones(m), size=s.shape[0]).T
    if rng.uniform() < 0.3:
        G[:, rng.integers(s.shape[0])] = np.eye(m)[rng.integers(m)]
    return G @ s


class TestGarblingRank:
    def test_identical_columns_deficient(self):
        assert garbling_rank([[0.5, 0.5], [0.5, 0.5]]) == 1

    def test_worked_garbling_full_rank(self):
        assert garbling_rank([[2 / 3, 1 / 4], [1 / 3, 3 / 4]]) == 2

    def test_identity_full_rank(self):
        assert garbling_rank(np.eye(2)) == 2

    def test_three_signal_structure(self):
        s3 = [[1 / 3, 1 / 9, 2 / 3], [1 / 3, 4 / 9, 1 / 3], [1 / 3, 4 / 9, 0]]
        assert garbling_rank(s3) == 3


class TestBeliefDistribution:
    def test_merges_duplicates(self):
        tau = BeliefDistribution.from_atoms([(0.3, 0.5), (0.3, 0.2), (0.7, 0.3)])
        assert tau.beliefs.size == 2
        assert tau.probs[0] == pytest.approx(0.7)

    def test_rejects_wrong_barycenter(self):
        with pytest.raises(BarycenterMismatch):
            BeliefDistribution(np.array([0.2, 0.8]), np.array([0.5, 0.5]), prior=0.3)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: BeliefDistribution(np.array([np.nan]), np.array([1.0]), 0.5),
            lambda: BeliefDistribution([0.2, np.nan], [0.5, 0.5], 0.3),
            lambda: BeliefDistribution([0.5], [np.nan], 0.5),
            lambda: BeliefDistribution([0.2, np.inf], [0.5, 0.5], 0.3),
            lambda: BeliefDistribution.from_atoms([(np.nan, 1.0)], 0.5),
        ],
        ids=["nan-belief", "nan-second-belief", "nan-prob", "infinite-belief", "from-atoms-nan"],
    )
    def test_rejects_non_finite_atoms(self, build):
        # each other check is a comparison, which NaN never fails
        with pytest.raises(ValueError, match="beliefs and probabilities must be finite"):
            build()

    def test_rejects_nan_prior(self):
        with pytest.raises(BarycenterMismatch, match="prior nan"):
            BeliefDistribution([0.5], [1.0], np.nan)

    def test_drops_zero_probability_atoms(self):
        tau = BeliefDistribution.from_atoms([(0.1, 0.0), (0.4, 1.0)])
        assert tau.beliefs.tolist() == [0.4]

    def test_atom_pair_batch_equals_from_atoms_bit_for_bit(self, monkeypatch):
        # the rules kernel and the builder check their rows themselves: they
        # run no scalar __post_init__
        scalar = []
        post_init = BeliefDistribution.__post_init__
        monkeypatch.setattr(BeliefDistribution, "__post_init__", lambda tau: scalar.append(post_init(tau)))
        rng = np.random.default_rng(7)
        built = 0
        for _ in range(200):
            prior = rng.uniform(0.05, 0.95)
            rows = [atom_pair_row(rng, prior, kind) for kind in range(len(ATOM_PAIR_KINDS))]
            rows += [atom_pair_row(rng, prior, rng.integers(len(ATOM_PAIR_KINDS))) for _ in range(8)]
            beliefs, probs = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
            batch = distributions(beliefs, probs, prior)
            assert not scalar
            for (b, p), got in zip(rows, batch):
                want = scalar_from_atoms(zip(b, p), prior)
                assert as_bytes(got) == as_bytes(want), (b, p, prior)
                built += 1
            scalar.clear()
        assert built == 200 * (len(ATOM_PAIR_KINDS) + 8)

    @pytest.mark.parametrize(
        "beliefs, probs",
        [
            ((0.2, 0.4 / 1.5), (-0.5, 1.5)),  # a negative weight: dropped, so the rest sums to 1.5
            ((0.2, 1.2), (0.8, 0.2)),  # a belief above 1
            ((-0.2, 0.6), (0.25, 0.75)),  # a belief below 0
            ((0.2, 0.8), (0.5, 0.5)),  # barycenter 0.5, off the prior
            ((0.2, 0.6), (0.0, TOL)),  # no atom with mass
            ((0.2, np.nan), (0.5, 0.5)),  # a NaN belief
            ((0.2, np.inf), (0.5, 0.5)),  # an infinite belief
        ],
        ids=["negative-weight", "belief-above-one", "belief-below-zero", "off-prior", "no-mass", "nan-belief", "infinite-belief"],
    )
    def test_atom_pair_batch_rejects_as_from_atoms(self, beliefs, probs):
        # a rejected row raises from the batch what the scalar rules raise,
        # with accepted rows on either side of it; each row but the last two
        # averages to the prior, so it fails one check alone
        with pytest.raises(Exception) as want:
            scalar_from_atoms(zip(beliefs, probs), 0.4)
        batch_b, batch_p = [(0.2, 0.6), beliefs, (0.6, 0.2)], [(0.5, 0.5), probs, (0.5, 0.5)]
        with pytest.raises(Exception) as got:
            distributions(np.array(batch_b), np.array(batch_p), 0.4)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    def test_atom_pair_batch_raises_for_its_first_rejected_row(self):
        # the batch's checks are the scalar constructor's, read row by row
        beliefs = np.array([(0.2, 0.6), (0.2, 0.8), (0.2, 1.2)])
        probs = np.array([(0.5, 0.5), (0.5, 0.5), (0.8, 0.2)])
        with pytest.raises(BarycenterMismatch, match="barycenter 0.5 != prior 0.4"):
            distributions(beliefs, probs, 0.4)
        with pytest.raises(ValueError, match=r"beliefs outside \[0, 1\]"):
            distributions(beliefs[::-1], probs[::-1], 0.4)

    def test_induced_tau_batch_equals_single_calls_bit_for_bit(self):
        # the certificate core builds its outcomes with _induced_taus: each must
        # be what induced_tau builds for the one structure
        rng = np.random.default_rng(11)
        for _ in range(100):
            prior = rng.uniform(0.05, 0.95)
            stack = [random_experiment(rng) for _ in range(20)]
            stack += [np.eye(2), np.eye(2)[::-1], np.array([[0.0, 0.0], [1.0, 1.0]]), np.full((2, 2), 0.5)]
            stack += [np.array([[x, x * (1 + d)], [1 - x, 1 - x * (1 + d)]]) for x, d in ((0.3, 1e-10), (0.7, 1e-12))]
            batch, beliefs, probs, sizes = _induced_taus(np.array(stack), prior)
            for i, (a, got) in enumerate(zip(stack, batch)):
                assert as_bytes(got) == as_bytes(induced_tau(a, prior)), (a, prior)
                # the rows returned with the batch are its distributions'
                k = sizes[i]
                assert (beliefs[i, :k].tobytes(), probs[i, :k].tobytes()) == as_bytes(got)[:2]

    def test_from_atoms_equals_the_scalar_rules(self):
        # 10,000 seeded lists of 0 to 6 atoms: near-duplicates, zero and tiny
        # probabilities, negative and non-finite entries, with and without a
        # prior. from_atoms builds what the scalar rules build, bit for bit,
        # or raises the same error; it warns for none of them, where the
        # scalar rules may (their warnings are ignored here)
        rng = np.random.default_rng(18)
        for _ in range(10_000):
            atoms = random_atoms(rng)
            prior = None if rng.uniform() < 0.5 else float(rng.uniform())
            if prior is not None and rng.uniform() < 0.5:  # the barycenter, where one exists
                prior = sum(b * p for b, p in atoms if np.isfinite(b) and np.isfinite(p))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = built_or_raised(scalar_from_atoms, atoms, prior)
            got = built_or_raised(BeliefDistribution.from_atoms, iter(atoms), prior)  # read once
            assert got == want, (atoms, prior)

    def test_induced_tau_equals_the_scalar_rules(self):
        # m-signal structures, m = 2 to 5, with zero-mass and coincident
        # signals, go through the same rules as two-signal ones
        rng = np.random.default_rng(19)
        for _ in range(2_000):
            m, prior = int(rng.integers(2, 6)), float(rng.uniform(0.01, 0.99))
            a = rng.dirichlet(np.ones(m), size=2).T
            i, j = rng.choice(m, 2, replace=False)
            kind = rng.integers(4)
            if kind == 0:  # a signal of no mass
                a[i] = 0.0
            elif kind == 1:  # two signals with one posterior, or one within TOL
                a[j] = a[i] * rng.uniform(0.1, 2.0) * (1.0 + rng.choice([0.0, 1e-12, 1e-10]))
            elif kind == 2:  # no information
                a = np.ones((m, 2))
            a /= a.sum(axis=0)
            assert built_or_raised(induced_tau, a, prior) == built_or_raised(scalar_induced_tau, a, prior), (a, prior)

    def test_no_atom_raises_for_any_width(self):
        with pytest.raises(ValueError, match="no atoms with positive probability"):
            BeliefDistribution.from_atoms([], 0.5)
        with pytest.raises(ValueError, match="no atoms with positive probability"):
            distributions(np.empty((2, 0)), np.empty((2, 0)), 0.5)
        beliefs, probs, size = _belief_rows(np.empty((2, 0)), np.empty((2, 0)))
        assert beliefs.shape == probs.shape == (2, 0) and size.tolist() == [0, 0]

    @pytest.mark.parametrize("merging", [False, True], ids=["no-atom-merges", "an-atom-merges"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_batch_rules_equal_the_scalar_rules_row_by_row(self, merging, data):
        # _belief_rows and _checked_atoms on a batch build each row as the
        # scalar rules build it alone, bit for bit, or raise what the first
        # row the scalar rules reject raises; on batches where no kept atom
        # merges (the sorted rows are the result) and where one does (the
        # per-column merge loop runs)
        prior, rows = data.draw(atom_batches(merging))
        assert any(map(merges_an_atom, rows)) == merging
        width = max(map(len, rows))
        rows = [row + [(0.5, 0.0)] * (width - len(row)) for row in rows]  # padded with atoms of no mass
        beliefs, probs = (np.array([[atom[i] for atom in row] for row in rows]) for i in (0, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = [built_or_raised(scalar_from_atoms, row, prior) for row in rows]
        rejected = [w for w in want if isinstance(w[0], type)]
        try:
            got = [as_bytes(tau) for tau in distributions(beliefs, probs, prior)]
        except Exception as exc:
            got = (type(exc), str(exc))
        assert got == (rejected[0] if rejected else want), (rows, prior)


def scalar_from_atoms(atoms, prior=None):
    """``BeliefDistribution.from_atoms`` as one loop over Python floats: the
    oracle of the rules kernel ``_belief_rows``."""
    atoms = [(float(b), float(p)) for b, p in atoms]
    atoms = [(b, p) for b, p in atoms if p > TOL]
    if not atoms:
        raise ValueError("no atoms with positive probability")
    atoms.sort()
    merged: list[list[float]] = []
    for b, p in atoms:
        if merged and abs(b - merged[-1][0]) <= TOL:
            q = merged[-1][1] + p
            merged[-1][0] = (merged[-1][0] * merged[-1][1] + b * p) / q
            merged[-1][1] = q
        else:
            merged.append([b, p])
    beliefs = np.array([b for b, _ in merged])
    probs = np.array([p for _, p in merged])
    if prior is None:
        prior = float(beliefs @ probs)
    return BeliefDistribution(beliefs, probs, float(prior))


def scalar_induced_tau(b, prior):
    """``induced_tau`` on the scalar rules of :func:`scalar_from_atoms`."""
    a = np.asarray(b, dtype=float)
    p, q = _bayes(a[:, 0], a[:, 1], prior)
    keep = p > TOL
    if not keep.any():
        return scalar_from_atoms([(prior, 1.0)], prior)
    return scalar_from_atoms(zip(q[keep], p[keep]), prior)


def distributions(beliefs, probs, prior):
    """The distributions the rules kernel and its builder make of the rows."""
    return BeliefDistribution._from_rows(beliefs, probs, prior)[0]


def random_atoms(rng):
    """A list of 0 to 6 (belief, prob) atoms, often summing to 1, with
    near-duplicate beliefs 1e-12 to 2e-9 apart (and beliefs 0, TOL and
    2 TOL), probabilities of 0, -0.0, 1e-10, TOL and 2e-9, and the odd
    negative, NaN or infinite entry."""
    atoms = []
    for _ in range(rng.integers(7)):
        if atoms and rng.uniform() < 0.3:
            b = atoms[rng.integers(len(atoms))][0] + rng.choice([-1, 1]) * rng.choice([0.0, 1e-12, 1e-10, 5e-10, TOL, 2e-9])
        else:
            b = rng.uniform(-0.01, 1.01) if rng.uniform() < 0.2 else rng.uniform()
        p = rng.uniform() if rng.uniform() < 0.6 else rng.choice([1.0, 0.0, -0.0, 1e-10, TOL, 2e-9, -0.1])
        if rng.uniform() < 0.1:  # 0 and TOL are exactly TOL apart
            b = rng.choice([0.0, TOL, 2 * TOL])
        if rng.uniform() < 0.03:
            b = rng.choice([np.nan, np.inf, -np.inf, -0.0])
        if rng.uniform() < 0.03:
            p = rng.choice([np.nan, np.inf, -np.inf])
        atoms.append((float(b), float(p)))
    total = sum(p for _, p in atoms if p > TOL)
    if rng.uniform() < 0.8 and 0.0 < total < np.inf:
        atoms = [(b, p / total if p > TOL else p) for b, p in atoms]
    return atoms


# belief offsets within TOL of an atom and probabilities an atom is dropped for
NEAR = [0.0, 1e-12, -1e-12, 5e-10, -5e-10, 0.9 * TOL]
NO_MASS = [0.0, -0.0, 1e-10, TOL / 2, TOL, -0.1]


@st.composite
def atom_batches(draw, merging):
    """A prior and one to four rows of (belief, prob) atoms: a split of the
    prior between a low and a high belief, which can lie a little off
    [0, 1], atoms of no mass, and now and then an extra atom at 0 (which
    keeps the barycenter but not the total), a moved atom (which keeps the
    total but not the barycenter) or a NaN, infinite or far-off entry. With
    ``merging``, the first row splits the prior's mass evenly between two
    beliefs within ``TOL``, so a kept atom merges; without, no kept atoms of
    a row lie within ``TOL``."""
    prior = draw(st.sampled_from([0.3, 0.5, 0.71]))
    rows = []
    for r in range(draw(st.integers(1, 4))):
        no_mass = [(draw(st.floats(0.0, 1.0)), draw(st.sampled_from(NO_MASS))) for _ in range(draw(st.integers(0, 2)))]
        if merging and r == 0:
            rows.append([(prior, 0.5), (prior + draw(st.sampled_from(NEAR)), 0.5), *no_mass])
            continue
        lo, hi = draw(st.floats(-0.1, prior - 0.01)), draw(st.floats(prior + 0.01, 1.1))
        w = (hi - prior) / (hi - lo)
        row = [(lo, w), (hi, 1.0 - w), *no_mass]
        change = draw(st.integers(0, 9))
        if change == 0:  # keeps the barycenter, not the total
            row.append((0.0, 0.5))
        elif change == 1:  # keeps the total, not the barycenter
            row[1] = (hi + 0.05, 1.0 - w)
        elif change == 2:
            i = draw(st.integers(0, len(row) - 1))
            bad = draw(st.sampled_from([(np.nan, None), (np.inf, None), (-np.inf, None), (None, np.inf), (None, np.nan), (1.2, None)]))
            row[i] = tuple(atom if b is None else b for atom, b in zip(row[i], bad))
        rows.append(row)
    rows = [draw(st.permutations(row)) for row in rows]
    if not merging:
        assume(not any(map(merges_an_atom, rows)))
    return prior, rows


def merges_an_atom(row) -> bool:
    """Whether two kept atoms of the row, in the kernel's order (NaN beliefs
    last), lie within ``TOL``."""
    kept = sorted(((b, p) for b, p in row if p > TOL), key=lambda a: (np.isnan(a[0]), a))
    return any(abs(b1 - b0) <= TOL for (b0, _), (b1, _) in zip(kept, kept[1:]))


def built_or_raised(build, *args):
    try:
        return as_bytes(build(*args))
    except Exception as exc:
        return type(exc), str(exc)


# the kinds of row atom_pair_row draws
ATOM_PAIR_KINDS = ("split", "swapped", "tiny atom", "merged", "equal beliefs", "ends")


def atom_pair_row(rng, prior, kind):
    """One (beliefs, probs) pair of atoms averaging to ``prior`` that
    from_atoms accepts, of the kind ``ATOM_PAIR_KINDS[kind]``; the atoms come
    in either order."""
    lo, hi = rng.uniform(0.0, prior), rng.uniform(prior, 1.0)
    w = (hi - prior) / (hi - lo)
    name = ATOM_PAIR_KINDS[kind]
    if name in ("split", "swapped"):
        row = ((lo, hi), (w, 1.0 - w))
    elif name == "tiny atom":  # dropped: no mass, -0.0, half of TOL or TOL itself
        row = ((prior, rng.uniform()), (1.0, rng.choice([0.0, -0.0, TOL / 2, TOL])))
    elif name == "merged":  # beliefs closer than TOL on either side of the prior
        d = rng.uniform(0.0, TOL / 3, size=2)
        row = ((prior - d[0], prior + d[1]), (w, 1.0 - w))
    elif name == "equal beliefs":  # equal weights too, or not
        row = ((prior, prior), (0.5, 0.5) if rng.integers(2) else (w, 1.0 - w))
    else:
        row = ((0.0, 1.0), (1.0 - prior, prior))
    if name == "swapped" or rng.integers(2):
        row = (row[0][::-1], row[1][::-1])
    return row


def as_bytes(tau):
    return (
        tau.beliefs.tobytes(), tau.probs.tobytes(), tau.beliefs.shape, tau.probs.shape, tau.prior,
        tau.beliefs.flags.writeable, tau.probs.flags.writeable,
    )
