import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mediated_persuasion import BeliefDistribution, GameSpec, PiecewiseUtility, feasible, solver
from mediated_persuasion.feasible import posterior_pair
from mediated_persuasion.errors import ColumnSumMismatch, DimensionMismatch, NegativeEntry, NonFiniteEntry
from mediated_persuasion.info import TOL, induced_tau, is_mps
from mediated_persuasion.payoffs import _SUP, expected_utility
from mediated_persuasion.solver import (
    bp_solve,
    check_equilibrium,
    compare_outcomes,
    mediator_best_response,
    search_equilibria,
    sender_best_response,
)

from conftest import brute_force_pairs, random_experiment, random_game, random_garbling, random_pwl

FIXTURE_GAMES = ["kg_game", "fig19_game", "fig20_game", "fig22_game"]


def has_outcome(certs, support, sender_value=None, tol=1e-6):
    for c in certs:
        s = c.tau.beliefs[c.tau.probs > 1e-12]
        if (
            len(s) == len(support)
            and np.allclose(s, support, atol=tol, rtol=0.0)
            and (sender_value is None or abs(c.sender_value - sender_value) <= tol)
        ):
            return True
    return False


def search_peak(game):
    """Search results and the tracemalloc peak (bytes) of that search."""
    tracemalloc.start()
    try:
        certs = search_equilibria(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return certs, peak


@pytest.fixture(scope="module")
def kg_search(kg_game):
    return search_peak(kg_game)


class TestSearchOutcomes:
    def test_kg_finds_babbling_and_kg_split(self, kg_search):
        certs, _ = kg_search
        assert len(certs) == 2
        assert has_outcome(certs, (0.3,))
        assert has_outcome(certs, (0.0, 0.5))
        assert all(c.verified for c in certs)

    def test_fig19_finds_babbling_and_thirds(self, fig19_game):
        certs = search_equilibria(fig19_game)
        assert len(certs) == 2
        assert has_outcome(certs, (0.5,))
        assert has_outcome(certs, (1 / 3, 2 / 3))
        assert all(c.verified for c in certs)

    def test_fig20_finds_babbling_and_two_splits(self, fig20_game):
        # besides babbling, the benchmark's split and a more informative one
        # that the mediator prefers
        certs = search_equilibria(fig20_game)
        assert len(certs) == 3
        assert has_outcome(certs, (0.3,))
        assert has_outcome(certs, (50 / 281, 150 / 157))
        assert has_outcome(certs, (1 / 5, 1 / 2))
        assert all(c.verified for c in certs)

    def test_fig22_finds_one_third_four_fifths(self, fig22_game):
        certs = search_equilibria(fig22_game)
        assert all(c.verified for c in certs)
        assert has_outcome(certs, (1 / 3, 4 / 5), sender_value=19 / 14)

    @pytest.mark.parametrize("name", FIXTURE_GAMES)
    def test_fixture_certificates_are_exact(self, name, request):
        game = request.getfixturevalue(name)
        for cert in search_equilibria(game):
            assert cert.sender_gap <= game.tol_dev
            assert cert.mediator_gap <= game.tol_dev

    def test_search_finds_split_on_both_players_jumps(self):
        # the informative outcome puts its high belief on the sender's jump
        # to 1 at 0.85 and its low one on the mediator's jump at 0.4
        game = GameSpec(
            prior=0.8,
            u_sender=PiecewiseUtility.step([0.25, 0.85], [0, -1, 1]),
            u_mediator=PiecewiseUtility.step([0.4], [0, 1]),
        )
        certs = search_equilibria(game)
        assert len(certs) == 2
        assert has_outcome(certs, (0.8,))
        assert has_outcome(certs, (2 / 5, 17 / 20), sender_value=7 / 9)
        for cert in certs:
            assert check_equilibrium(game, cert.x, cert.sigma).verified  # at tol_dev
        two_point = [c for c in certs if c.tau.beliefs.size == 2]
        assert len(two_point) == 1
        assert two_point[0].tau.beliefs[1] == pytest.approx(0.85, abs=1e-12, rel=0)

    @pytest.mark.parametrize("name", FIXTURE_GAMES)
    def test_search_peak_memory_below_1mb(self, name, request):
        _, peak = search_peak(request.getfixturevalue(name))
        assert peak < 1e6


def test_search_certificates_hold_on_random_games():
    # every certificate re-verifies at tol_dev, leaves the sender no more
    # than the unmediated benchmark and is a garbling of the sender's experiment
    for seed in range(80):
        u_s, u_m, prior = random_game(seed)
        game = GameSpec(prior=float(prior), u_sender=u_s, u_mediator=u_m)
        bound = bp_solve(u_s, game.prior).value + 1e-9
        for cert in search_equilibria(game):
            assert check_equilibrium(game, cert.x, cert.sigma, tol=game.tol_dev).verified, (seed, cert.tau)
            assert cert.sender_value <= bound, (seed, cert.tau)
            assert is_mps(induced_tau(cert.x, game.prior), cert.tau), (seed, cert.tau)


# Welfare deltas (mediated minus benchmark) worked out by hand in fractions:
# (fixture, mediated outcome, benchmark outcome, Blackwell rank, deltas of
# sender, mediator and receiver, whether the receiver benefits)
COMPARISONS = [
    # fig20 at prior 3/10: {50/281 w.p. 843/1000, 150/157 w.p. 157/1000}
    # against bp_solve's {1/5 w.p. 2/3, 1/2 w.p. 1/3}.
    # sender: both mediated posteriors pay 0; both benchmark ones pay 1.
    # mediator: 3 at both mediated posteriors; 2529/905 at 1/5 and 0 at 1/2,
    #   so 3 - (2/3)(2529/905) = 1029/905.
    # receiver: 181/281 and 143/157 against 3/5 and 0, so
    #   (3 * 181 + 143)/1000 - 2/5 = 143/500.
    (
        "fig20",
        ((Fraction(50, 281), Fraction(843, 1000)), (Fraction(150, 157), Fraction(157, 1000))),
        ((Fraction(1, 5), Fraction(2, 3)), (Fraction(1, 2), Fraction(1, 3))),
        "mp_more_informative",
        (Fraction(-1), Fraction(1029, 905), Fraction(143, 500)),
        True,
    ),
    # fig19 at prior 1/2: {1/3, 2/3} against {1/4, 3/4}, each half and half.
    # sender 3/4 against 1; mediator 1 against 3/4; receiver 1/3 against 1/2.
    (
        "fig19",
        ((Fraction(1, 3), Fraction(1, 2)), (Fraction(2, 3), Fraction(1, 2))),
        ((Fraction(1, 4), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 2))),
        "bp_more_informative",
        (Fraction(-1, 4), Fraction(1, 4), Fraction(-1, 6)),
        False,
    ),
]


def tau_of(atoms):
    """The outcome with the given (belief, probability) fractions."""
    prior = sum(b * p for b, p in atoms)
    return BeliefDistribution.from_atoms([(float(b), float(p)) for b, p in atoms], float(prior))


@pytest.mark.parametrize("name, mp, bp, rank, deltas, benefits", COMPARISONS)
def test_compare_outcomes_values(name, mp, bp, rank, deltas, benefits, request):
    game = request.getfixturevalue(f"{name}_game")
    tau_mp, tau_bp = tau_of(mp), tau_of(bp)
    assert has_outcome(search_equilibria(game), tau_mp.beliefs)
    assert tau_bp.allclose(bp_solve(game.u_sender, game.prior).tau)
    report = compare_outcomes(game, tau_mp, tau_bp)
    assert report.blackwell == rank
    for player, delta in zip(("sender", "mediator", "receiver"), deltas):
        assert report.welfare[player]["delta"] == pytest.approx(float(delta), abs=1e-12, rel=0)
    assert report.receiver_benefits is benefits


@pytest.mark.parametrize(
    "name, support, value",
    [
        ("kg", (0.0, 1 / 2), 0.6),
        ("fig19", (1 / 4, 3 / 4), 1.0),
        ("fig20", (1 / 5, 1 / 2), 1.0),
        ("fig22", (1 / 3, 4 / 5), 19 / 14),
    ],
)
def test_bp_solve_outcomes(name, support, value, request):
    game = request.getfixturevalue(f"{name}_game")
    sol = bp_solve(game.u_sender, game.prior)
    assert sol.tau.beliefs == pytest.approx(support, abs=1e-12, rel=0)
    assert sol.value == pytest.approx(value, abs=1e-12, rel=0)
    # the returned experiment induces the reported outcome
    induced = induced_tau(sol.strategy, game.prior)
    assert induced.beliefs == pytest.approx(sol.tau.beliefs, abs=1e-12, rel=0)
    assert induced.probs == pytest.approx(sol.tau.probs, abs=1e-12, rel=0)


RANDOM_GAMES = range(50)
DRAWS_PER_GAME = 25


def test_sender_never_benefits_from_mediation():
    # the paper's first claim: no garbling lets the sender beat the
    # unmediated benchmark
    for seed in RANDOM_GAMES:
        u_s, _, prior = random_game(seed)
        bound = bp_solve(u_s, prior).value + 1e-12
        rng = np.random.default_rng(seed)
        for _ in range(DRAWS_PER_GAME):
            sigma = random_garbling(rng)
            assert sender_best_response(u_s, sigma, prior).value <= bound, (seed, sigma)


def test_mediator_best_response_garbles_the_experiment():
    # seed 10 puts the prior on a kink of the mediator's concave envelope
    for seed in RANDOM_GAMES:
        _, u_m, prior = random_game(seed)
        rng = np.random.default_rng(seed)
        for _ in range(DRAWS_PER_GAME):
            x = random_experiment(rng)
            sigma = mediator_best_response(u_m, x, prior).strategy
            assert sigma.shape == (2, 2), (seed, x)
            assert (sigma >= 0.0).all() and np.abs(sigma.sum(axis=0) - 1.0).max() <= 1e-12
            assert is_mps(induced_tau(x, prior), induced_tau(sigma @ x, prior)), (seed, x)


def garbling(first_row):
    s1, s2 = first_row
    return np.array([[s1, s2], [1 - s1, 1 - s2]])


def earned(game, sigma, x):
    """The sender's expected utility of experiment x through sigma."""
    return float(expected_utility(game.u_sender, induced_tau(sigma @ x, game.prior)))


def kg_sender_br(game, sigma):
    return sender_best_response(game.u_sender, sigma, game.prior)


class TestSenderBestResponse:
    def test_kg_narrow_slice_beats_grid_experiment(self, kg_game):
        # the slice through the jump at 1/2 is [0.25681, 0.25758], narrower
        # than the step of a 257-point scan over [0, 0.3]; a scan missed it and
        # the best response fell to 0.1774857, below this experiment's 0.177497
        sigma = garbling((0.296, 0.125))
        reference = earned(kg_game, sigma, np.array([[0.01, 1.0], [0.99, 0.0]]))
        assert reference == pytest.approx(0.177497, abs=1e-9)
        br = kg_sender_br(kg_game, sigma)
        assert br.value >= reference
        assert br.value == pytest.approx(0.1776, abs=1e-9)

    def test_kg_strategy_earns_reported_value(self, kg_game):
        # a slice end bisected onto the tolerance band gave a strategy that
        # induced 0.49999999984, below the jump at 1/2, and earned 0
        sigma = garbling((0.296, 0.795))
        br = kg_sender_br(kg_game, sigma)
        assert br.value == pytest.approx(0.477, abs=1e-9)
        assert earned(kg_game, sigma, br.strategy) == pytest.approx(br.value, abs=1e-9)

    @pytest.mark.parametrize(
        "name, first_row, value",
        [("fig22", (0.08, 0.32), 1.2), ("fig22", (0.92, 0.68), 1.2), ("fig22", (0.04, 0.16), 1.1), ("kg", (6 / 7, 2 / 3), 0.2)],
    )
    def test_single_point_slice_at_a_square_corner(self, name, first_row, value, request):
        # the ray through a breakpoint meets the square only at a corner: on
        # fig22 with (0.08, 0.32), X = I's 0.32 / 0.40 is exactly 4/5, read
        # as 0.7999999999999999. The interval intersection, in floats, left
        # the slice empty and the reply at 1.0; the square test admits it
        game = request.getfixturevalue(f"{name}_game")
        br = kg_sender_br(game, garbling(first_row))
        assert br.value == pytest.approx(value, abs=1e-12)
        assert br.attained


class TestSupremum:
    """Both best responses report the supremum and whether their outcome earns it."""

    def test_split_collapsing_onto_the_prior_is_not_attained(self):
        # u drops from 2 to 0 at the prior. A signal's weight is its composite
        # row's average, which lies in [m, M] = the range of sigma's first row;
        # only one signal can sit below the prior, so the supremum is M * 2
        # (or (1 - m) * 2 with the labels swapped), approached as both
        # posteriors collapse onto the prior and never earned
        u = PiecewiseUtility.step([0.1, 0.2], [1, 2, 0])
        for first_row, value in (((0.5, 0.6), 1.2), ((0.9, 0.2), 1.8)):
            br = sender_best_response(u, garbling(first_row), 0.2)
            assert br.value == pytest.approx(value, abs=1e-12, rel=0)
            assert br.attained is False
            assert br.tau.beliefs.tolist() == [0.2]

    def test_unattained_supremum_is_approached(self):
        # X's first row (1, 1 - d) puts the composite row at (0.9, 0.9 - 0.7 d):
        # signal 1 carries weight 0.9 - 0.14 d just below the prior
        u = PiecewiseUtility.step([0.1, 0.2], [1, 2, 0])
        sigma = garbling((0.9, 0.2))
        for d in (1e-2, 1e-3, 1e-4):
            x = garbling((1.0, 1.0 - d))
            got = float(expected_utility(u, induced_tau(sigma @ x, 0.2)))
            assert got == pytest.approx(1.8 - 0.28 * d, abs=1e-9)

    def test_jump_at_the_lowest_feasible_posterior_counts_from_above(self):
        # every feasible posterior is at least the natural corner's low one, b,
        # so u's value 5 below b is out of reach and the supremum is 0, earned
        sigma = garbling((0.5, 0.6))
        b = min(posterior_pair(sigma, 0.2) + posterior_pair(sigma[:, ::-1], 0.2))
        br = sender_best_response(PiecewiseUtility.step([b], [5, 0]), sigma, 0.2)
        assert br.value == 0.0
        assert br.attained is True

    @pytest.mark.parametrize("cut", [0.3, np.nextafter(0.3, 0.0)])
    def test_prior_on_a_jump_takes_the_best_diagonal_weight(self, cut):
        # near (m, m) with the labels swapped the signal below the prior carries
        # weight 1 - m = 0.8, and it is worth 1 there; a jump an ulp off the
        # prior counts as at it
        u = PiecewiseUtility.step([cut], [1, 0])
        br = sender_best_response(u, garbling((0.2, 0.7)), 0.3)
        assert br.value == pytest.approx(0.8, abs=1e-12, rel=0)
        assert br.attained is False

    @pytest.mark.parametrize("prior, value", [(0.7, 0.6), (0.6, 0.8)])
    def test_mediator_and_benchmark_report_the_envelope(self, prior, value):
        # u is 1 up to 0.5, where it drops to 0: the envelope runs from the
        # limit (0.5, 1) to (1, 0), and the outcome {0.5, 1} only approaches it
        u = PiecewiseUtility.from_points([(0, 1), (0.5, 1), (0.5, 0), (1, 0)])
        br = mediator_best_response(u, np.eye(2), prior)
        sol = bp_solve(u, prior)
        for got in (br, sol):
            assert got.value == pytest.approx(value, abs=1e-12, rel=0)
            assert got.attained is False
            assert got.tau.beliefs == pytest.approx([0.5, 1.0], abs=1e-12, rel=0)

    @pytest.mark.parametrize("name", ["kg", "fig19", "fig20", "fig22"])
    def test_fixture_optima_are_attained(self, name, request):
        game = request.getfixturevalue(f"{name}_game")
        assert bp_solve(game.u_sender, game.prior).attained
        for first_row in ((0.3, 0.8), (0.9, 0.1), (0.0, 0.22)):
            assert sender_best_response(game.u_sender, garbling(first_row), game.prior).attained
            assert mediator_best_response(game.u_mediator, garbling(first_row), game.prior).attained


@pytest.mark.parametrize("seed, first_row", [(43, (0.48, 0.68)), (46, (0.36, 0.16)), (46, (0.72, 0.32))])
def test_corner_posterior_on_a_jump_takes_its_inward_limit(seed, first_row):
    # each posterior of the natural corner ends its range, so only the limit
    # from inside the range is approached; each utility jumps at one of them.
    # Reading the other corner's range ends there once reported the
    # suprema 1.2, 1.32 and 1.64, which no feasible pair approaches
    u, _, prior = random_game(seed)
    sigma = garbling(first_row)
    br = sender_best_response(u, sigma, prior)
    brute = brute_force_value(u, brute_force_pairs(sigma, prior, step=0.002), prior)
    assert brute - 1e-9 <= br.value <= brute + 5e-3


GRID20 = st.integers(1, 19).map(lambda k: k / 20)
BELIEF = st.one_of(GRID20, st.floats(0.05, 0.95))
ENTRY = st.one_of(st.integers(0, 20).map(lambda k: k / 20), st.floats(0, 1))


@st.composite
def utilities(draw):
    """Step, piecewise-linear (with or without jumps) and singleton utilities,
    breakpoints on a 1/20 grid or anywhere."""
    cuts = sorted(set(draw(st.lists(BELIEF, min_size=1, max_size=3))))
    kind = draw(st.sampled_from(["step", "pwl", "singleton"]))
    values = st.integers(-2, 3).map(float)
    if kind == "step":
        return PiecewiseUtility.step(cuts, draw(st.lists(values, min_size=len(cuts) + 1, max_size=len(cuts) + 1)))
    xs = [0.0] + [c for c in cuts for _ in range(draw(st.integers(1, 2)))] + [1.0]
    ys = draw(st.lists(values, min_size=len(xs), max_size=len(xs)))
    singletons = [(draw(BELIEF), draw(values))] if kind == "singleton" else []
    return PiecewiseUtility.from_points(list(zip(xs, ys)), singletons=singletons)


def sup_within_tol(u, belief):
    edges = u.breakpoints[np.abs(u.breakpoints - belief) <= TOL]
    window = np.clip([belief - TOL, belief, belief + TOL], 0.0, 1.0)
    return float(u._read(u._locate(np.concatenate([window, edges])), _SUP).max())


def brute_force_value(u, pairs, prior):
    """The best expected utility over the ordered posterior pairs of a grid."""
    w2 = np.clip((prior - pairs[:, 0]) / np.where(pairs[:, 1] == pairs[:, 0], 1.0, pairs[:, 1] - pairs[:, 0]), 0, 1)
    return ((1 - w2) * u.eval_many(np.clip(pairs[:, 0], 0, 1)) + w2 * u.eval_many(np.clip(pairs[:, 1], 0, 1))).max()


def test_brute_force_oracle_pays_nothing_for_an_ulp_off_a_jump_at_the_prior():
    # an uninformative grid experiment (x = y) once landed an ulp below the
    # prior, where u is 0, and the oracle paid 0.0 against a supremum of -0.05
    prior = 0.05078125
    u = PiecewiseUtility.step([prior], [0.0, -1.0])
    sigma = garbling((0.05, 0.625))
    pairs = brute_force_pairs(sigma, prior, step=0.02)
    g = np.linspace(0.0, 1.0, 51)
    uninformative = (g[:, None] == g[None, :]).ravel()
    assert (pairs[uninformative] == prior).all()
    br = sender_best_response(u, sigma, prior)
    assert br.value == pytest.approx(-0.05, abs=1e-12)
    assert br.value >= brute_force_value(u, pairs, prior) - 1e-9


@given(
    u=utilities(),
    prior=BELIEF,
    first_row=st.tuples(ENTRY, ENTRY),
)
@settings(max_examples=150, deadline=None)
def test_sender_supremum_against_brute_force(u, prior, first_row):
    assume(abs(first_row[0] - first_row[1]) > 0.01)
    sigma = garbling(first_row)
    br = sender_best_response(u, sigma, prior)
    # an uninformative grid experiment induces the prior, which floats put an
    # ulp off it; on a jump at the prior that ulp would pay what nothing earns
    pairs = brute_force_pairs(sigma, prior, step=0.02)
    pairs[np.abs(pairs - prior) <= 1e-12] = prior
    assert br.value >= brute_force_value(u, pairs, prior) - 1e-9
    # no limit at the outcome's beliefs, within the TOL that merges a belief
    # with the prior, exceeds the supremum table there, so that bounds the value
    near = [sup_within_tol(u, b) for b in br.tau.beliefs]
    assert br.value <= float(np.dot(near, br.tau.probs)) + 1e-9
    if br.attained:
        assert br.value == pytest.approx(expected_utility(u, br.tau), abs=1e-9)


def test_kg_search_peak_memory_below_100mb(kg_search):
    _, peak = kg_search
    assert peak < 100e6


def test_fine_game_search_peak_memory_below_20mb():
    # 32 nodes per utility give 62 candidate beliefs and a sender batch of
    # 1,410 garblings with about 2,900 candidates each, which one pass over
    # all of them holds in about 200 MB; chunks of at most
    # _CANDIDATE_BUDGET candidates bound that
    rng = np.random.default_rng(0)
    u_s, u_m = random_pwl(rng, 32), random_pwl(rng, 32)
    _, peak = search_peak(GameSpec(0.37, u_s, u_m))
    assert peak < 20e6


@pytest.mark.parametrize("name", ["kg", "fig19", "fig20", "fig22"])
def test_sender_chunks_equal_one_pass_bit_for_bit(name, request, monkeypatch):
    # each row's arithmetic is its own, so replies solved one garbling per
    # chunk equal those of one pass over the 26 x 26 garbling grid; a
    # fixture's search fits in one chunk
    game = request.getfixturevalue(f"{name}_game")
    g = np.linspace(0.0, 1.0, 26)
    grid = np.array([garbling((a, b)) for a in g for b in g])
    one_pass = solver._sender_batch(game.u_sender, grid, game.prior)
    chunks = []
    candidates = solver._sender_candidates

    def counted(a, *args):
        chunks.append(len(a))
        return candidates(a, *args)

    monkeypatch.setattr(solver, "_sender_candidates", counted)
    search_equilibria(game)
    assert len(chunks) == 1
    monkeypatch.setattr(solver, "_CANDIDATE_BUDGET", 1)
    chunked = solver._sender_batch(game.u_sender, grid, game.prior)
    assert chunks[1:] == [1] * int(np.sum(np.abs(grid[:, 0, 0] - grid[:, 0, 1]) > TOL))
    for got, want in zip(chunked, one_pass):
        assert (as_pinned(got), got.attained) == (as_pinned(want), want.attained)


# Best responses pinned bit for bit, as recorded before the sender's candidates
# were assembled as numpy blocks: (fixture, first row of the fixed strategy,
# (value, strategy, tau beliefs, tau probs)). The strategies are draws of a
# seeded generator rounded to 3 digits; the sender cases cover inducing-experiment
# and corner winners. One case is re-recorded since the sender's candidates are
# the exact vertices alone: kg (0.88, 0.58) keeps its value and tau, and its
# experiment is built from the winning pair instead of a boundary family, which
# had rounded 0.2 to 0.19999999999999996.
SENDER_BR = [
    ('kg', (0.049, 0.999), (0.5993999999999999, [[0.6009022556390978, 7.80337746174528e-17], [0.3990977443609021, 0.9999999999999999]], [0.0007488766849725972, 0.5], [0.40060000000000007, 0.5993999999999999])),
    ('kg', (0.679, 0.87), (0.1925999999999999, [[0.03964098728496598, 0.9999999999999994], [0.960359012715034, 5.571901288236044e-16]], [0.2522913054248204, 0.5], [0.8074000000000001, 0.19259999999999988])),
    ('kg', (0.515, 0.286), (0.0, [[1.0, 0.0], [0.0, 1.0]], [0.1922473672417656, 0.38685208596713017], [0.44629999999999986, 0.5537000000000001])),
    ('fig19', (0.697, 0.006), (0.9470000000000001, [[0.9999999999999998, 0.3275446213217558], [2.1923643154957564e-16, 0.6724553786782442]], [0.25, 0.7169987546699874], [0.4646666666666665, 0.5353333333333334])),
    ('fig19', (0.039, 0.149), (0.39900000000000013, [[7.785408681374148e-16, 0.9030303030303034], [0.9999999999999992, 0.09696969696969669]], [0.25, 0.5275721687638786], [0.09933333333333325, 0.9006666666666667])),
    ('fig19', (0.859, 0.337), (0.9130000000000001, [[3.072425243128369e-17, 0.8467432950191571], [1.0, 0.15325670498084282]], [0.25, 0.6980286738351255], [0.442, 0.558])),
    ('fig20', (0.919, 0.134), (1.0, [[0.799878677585684, 0.3954706298655344], [0.20012132241431596, 0.6045293701344656]], [0.2, 0.5], [0.6666666666666667, 0.33333333333333326])),
    ('fig20', (0.373, 0.951), (1.0, [[0.32715439116823186, 0.876393694732795], [0.6728456088317681, 0.12360630526720506]], [0.2, 0.5], [0.6666666666666667, 0.33333333333333326])),
    ('fig20', (0.892, 0.95), (-90.45549999999997, [[1.0, 0.22413793103448465], [0.0, 0.7758620689655154]], [0.2, 0.31043622308117064], [0.09450000000000022, 0.9054999999999997])),
    ('fig22', (0.255, 0.072), (1.0, [[0.39344262295082216, 1.26788197427291e-15], [0.6065573770491778, 0.9999999999999988]], [0.3333333333333333, 0.5201793721973095], [0.10800000000000026, 0.8919999999999997])),
    ('fig22', (0.039, 0.289), (1.1806249999999998, [[0.8670000000000004, 1.1296883428713045e-15], [0.13299999999999965, 0.9999999999999989]], [0.4338672768878719, 0.8], [0.8193750000000002, 0.1806249999999998])),
    ('fig22', (0.312, 0.561), (1.0, [[0.0, 1.0], [1.0, 0.0]], [0.35738831615120276, 0.6104702750665484], [0.43650000000000005, 0.5634999999999999])),
    # tied optima: several candidates share the winning posterior pair, so the
    # candidate order decides between a corner and an inducing experiment, and
    # which signal carries the low belief
    ('kg', (0.88, 0.58), (0.252, [[0.8, 0.0], [0.2, 1.0]], [0.23262032085561496, 0.5], [0.748, 0.252])),
    ('kg', (0.1, 0.9), (0.54, [[0.3571428571428572, 1.0], [0.6428571428571428, 0.0]], [0.06521739130434777, 0.5], [0.45999999999999996, 0.54])),
    ('fig19', (0.8200000000000001, 0.16), (1.0, [[0.8939393939393938, 0.13636363636363635], [0.1060606060606061, 0.8636363636363636]], [0.25, 0.75], [0.5, 0.5])),
    ('fig19', (0.36, 0.12), (0.6100000000000001, [[1.0, 0.0], [0.0, 1.0]], [0.25, 0.5789473684210527], [0.24000000000000005, 0.76])),
    ('fig20', (0.66, 0.34), (-41.67250000000001, [[0.9999999999999996, 0.14062499999999975], [5.083433674002436e-16, 0.8593750000000003]], [0.2, 0.43668639053254427], [0.5774999999999999, 0.4225000000000001])),
    ('fig20', (0.88, 0.08), (1.0, [[0.8523809523809525, 0.45555555555555577], [0.14761904761904748, 0.5444444444444443]], [0.2, 0.5], [0.6666666666666667, 0.33333333333333326])),
    ('fig22', (0.96, 0.98), (1.0, [[1.0, 0.0], [0.0, 1.0]], [0.3333333333333333, 0.5051546391752577], [0.029999999999999895, 0.9700000000000001])),
    ('fig22', (0.8, 0.12), (1.3571428571428572, [[0.03361344537815116, 0.6638655462184874], [0.9663865546218487, 0.33613445378151263]], [0.3333333333333333, 0.8], [0.6428571428571429, 0.3571428571428571])),
]
MEDIATOR_BR = [
    ('kg', (0.129, 0.499), (0.3382673051806704, [[2.3051154305262324e-16, 0.87070091423596], [0.9999999999999997, 0.12929908576404006]], [0.19776315789473686, 0.5], [0.6617326948193296, 0.3382673051806704])),
    ('kg', (0.601, 0.029), (0.5831067961165048, [[0.9708737864077671, 0.0], [0.029126213592232855, 1.0]], [0.02026082906380997, 0.5], [0.4168932038834952, 0.5831067961165048])),
    ('kg', (0.148, 0.928), (0.569937369519833, [[9.924167192580367e-19, 0.6958942240779402], [1.0, 0.30410577592205984]], [0.03495145631067959, 0.5], [0.430062630480167, 0.569937369519833])),
    ('fig19', (0.07, 0.13), (0.5899999999999997, [[1.5920598173124788e-15, 1.0], [0.9999999999999984, 0.0]], [0.4833333333333334, 0.65], [0.9000000000000004, 0.09999999999999964])),
    ('fig19', (0.948, 0.622), (0.8838304552590266, [[0.7849293563579278, 3.2348313282145856e-17], [0.21507064364207223, 1.0]], [0.3961783439490446, 0.6666666666666666], [0.6161695447409733, 0.3838304552590267])),
    ('fig19', (0.369, 0.511), (0.7130000000000002, [[0.0, 1.0], [1.0, 0.0]], [0.4366071428571428, 0.5806818181818182], [0.5599999999999998, 0.44000000000000017])),
    ('fig20', (0.663, 0.275), (1.8629834254143647, [[1.0, 0.10787437414656346], [0.0, 0.8921256258534366]], [0.17793594306049823, 0.4797088663431849], [0.595510241238052, 0.40448975876194804])),
    ('fig20', (0.138, 0.788), (2.6289170161596753, [[0.3109461131735853, 1.0], [0.6890538868264148, 0.0]], [0.17793594306049823, 0.7099099099099099], [0.7705450556868039, 0.22945494431319613])),
    ('fig20', (0.67, 0.512), (1.8629834254143645, [[1.0, 1.7675874828513114e-16], [0.0, 0.9999999999999998]], [0.2467073562479923, 0.3879173290937997], [0.6226000000000003, 0.37739999999999974])),
    ('fig22', (0.817, 0.549), (0.7394363636363634, [[1.0, 0.0], [1.3350846133440124e-17, 1.0]], [0.4019033674963397, 0.7113564668769715], [0.6829999999999999, 0.31700000000000006])),
    ('fig22', (0.981, 0.205), (1.0, [[0.867636229749632, 0.3153534609720177], [0.1323637702503681, 0.6846465390279822]], [0.3333333333333333, 0.8], [0.6428571428571429, 0.3571428571428571])),
    ('fig22', (0.554, 0.484), (0.39999999999999986, [[1.0, 7.401825184518068e-16], [0.0, 0.9999999999999993]], [0.466281310211946, 0.5363825363825364], [0.519, 0.481])),
]


def as_pinned(br):
    return (
        br.value,
        br.strategy.tolist(),
        br.tau.beliefs.tolist(),
        br.tau.probs.tolist(),
    )


@pytest.mark.parametrize("name, first_row, want", SENDER_BR)
def test_sender_best_response_is_bit_exact(name, first_row, want, request):
    game = request.getfixturevalue(f"{name}_game")
    br = sender_best_response(game.u_sender, garbling(first_row), game.prior)
    assert as_pinned(br) == want


@pytest.mark.parametrize("name, first_row, want", MEDIATOR_BR)
def test_mediator_best_response_is_bit_exact(name, first_row, want, request):
    game = request.getfixturevalue(f"{name}_game")
    br = mediator_best_response(game.u_mediator, garbling(first_row), game.prior)
    assert as_pinned(br) == want


def mixed_batch(rng):
    """Strategies for one batch: two random full-rank ones, the row-swapped
    (relabelled) twin of the first, a rank-deficient one, the uninformative
    one, the identity and a repeat of the first."""
    s = random_garbling(rng)
    x = random_experiment(rng)
    return np.array([s, x, s[::-1], garbling((0.3, 0.3)), np.full((2, 2), 0.5), np.eye(2), s])


@pytest.mark.parametrize("player", ["sender", "mediator"])
def test_batch_equals_single_calls_bit_for_bit(player):
    # each reply of a batched core equals the single-strategy best response,
    # which is a batch of one: no row of a batch leaks into another
    core, single = {
        "sender": (solver._sender_batch, sender_best_response),
        "mediator": (solver._mediator_batch, mediator_best_response),
    }[player]
    for seed in RANDOM_GAMES:
        u_s, u_m, prior = random_game(seed)
        u = u_s if player == "sender" else u_m
        batch = mixed_batch(np.random.default_rng(seed))
        replies = core(u, batch, prior)
        assert len(replies) == len(batch)
        for strategy, got in zip(batch, replies):
            want = single(u, strategy.copy(), prior)
            assert (as_pinned(got), got.attained) == (as_pinned(want), want.attained), (seed, strategy)


def as_certificate(cert):
    """Every field of a certificate, the witness's included, with arrays as lists."""
    w = cert.witness
    return (
        cert.x.tolist(), cert.sigma.tolist(), cert.tau.beliefs.tolist(), cert.tau.probs.tolist(),
        cert.sender_value, cert.mediator_value, cert.sender_gap, cert.mediator_gap, cert.verified, cert.tol,
        None if w is None else (w.player, w.strategy.tolist(), w.tau.beliefs.tolist(), w.tau.probs.tolist(), w.value, w.gain),
    )


def test_certificate_batch_equals_single_checks_bit_for_bit():
    # each certificate of one call to the certificate core equals the single
    # check of its profile, which is a batch of one, and each value is the
    # profile's own dot product: no row of a batch leaks into another
    verdicts = set()
    for seed in RANDOM_GAMES:
        u_s, u_m, prior = random_game(seed)
        game = GameSpec(prior, u_s, u_m)
        rng = np.random.default_rng(seed)
        xs, sigmas = list(mixed_batch(rng)), list(mixed_batch(rng))[::-1]
        for cert in search_equilibria(game):  # verified profiles
            xs.append(cert.x)
            sigmas.append(cert.sigma)
        xs, sigmas = np.array(xs), np.array(sigmas)
        br_s, br_m = solver._sender_batch(u_s, sigmas, prior), solver._mediator_batch(u_m, xs, prior)
        certs = solver._certificates(game, xs, sigmas, br_s, br_m, game.tol_dev)
        assert len(certs) == len(xs)
        for x, sigma, got in zip(xs, sigmas, certs):
            want = check_equilibrium(game, x.copy(), sigma.copy())
            assert as_certificate(got) == as_certificate(want), (seed, x, sigma)
            for u, value in ((u_s, got.sender_value), (u_m, got.mediator_value)):
                assert value == float(u.eval_many(got.tau.beliefs) @ got.tau.probs), seed
            verdicts.add(got.verified)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "x, sigma",
    [
        ([[0.2, 0.1], [0.3, 0.6], [0.5, 0.3]], np.eye(2)),  # an experiment of three signals
        (np.eye(2), [[0.2, 0.2], [0.3, 0.3], [0.5, 0.5]]),  # a rank-deficient garbling of three signals
        (np.eye(2), [[0.2, 0.1], [0.3, 0.6], [0.5, 0.3]]),  # a full-rank garbling of three signals
    ],
    ids=["3x2-experiment", "rank-deficient-3x2-garbling", "3x2-garbling"],
)
def test_check_rejects_profiles_that_are_not_2x2(kg_game, x, sigma):
    # the best responses are solved for two signals only, so a profile of
    # any other shape is refused, not read through its first two rows
    with pytest.raises(DimensionMismatch, match="profiles are pairs of 2x2"):
        check_equilibrium(kg_game, np.array(x), np.array(sigma))


def test_sender_reply_to_the_identity_garbling_is_the_benchmark(request):
    # bp_solve is the mediator core's reply to X = I; through sigma = I the
    # sender reaches every posterior pair, so its own best response, an
    # independent algorithm over the square's arrangement, earns the same
    # value: on the fixtures' senders and both utilities of each random game
    games = [request.getfixturevalue(name) for name in FIXTURE_GAMES]
    cases = [(game.u_sender, game.prior) for game in games]
    cases += [(u, prior) for seed in range(80) for *utilities, prior in [random_game(seed)] for u in utilities]
    for u, prior in cases:
        sol, br = bp_solve(u, prior), sender_best_response(u, np.eye(2), prior)
        assert abs(br.value - sol.value) <= 1e-12, (u, prior)
        assert induced_tau(sol.strategy, prior).allclose(sol.tau, tol=1e-12), (u, prior)
    assert len(cases) == 164
    # a concave sender gains nothing from information: the benchmark is the
    # uninformative experiment, which attains the utility at the prior
    u = PiecewiseUtility.from_points([(0, 0), (0.5, 1), (1, 0)])
    sol = bp_solve(u, 0.3)
    assert sol.strategy.tolist() == [[0.5, 0.5], [0.5, 0.5]]
    assert (sol.tau.beliefs.tolist(), sol.tau.probs.tolist()) == ([0.3], [1.0])
    assert sol.value == u(0.3) and sol.attained is True


# candidates per full-rank garbling: babbling, 2 corners, 2 l h breakpoint
# pairs and 4 slice ends per fixed belief, for l low and h high beliefs
CANDIDATES = {"kg": 19, "fig19": 27, "fig20": 35, "fig22": 27}


@pytest.mark.parametrize("name", sorted(CANDIDATES))
def test_sender_candidates_are_the_arrangement_vertices_once(name, request):
    # each fixed belief's ray enters and leaves the square in each of its two
    # orientations, so it has 4 slice-end candidates, each in the order its
    # end was computed for; every one the square test admits on the 26 x 26
    # garbling grid pairs its fixed belief with an end of one of
    # companion_slices' slices for that belief
    game = request.getfixturevalue(f"{name}_game")
    u, prior = game.u_sender, game.prior
    shared = solver._shared_candidates(u, prior)
    _, fixed, is_low, kind = shared
    assert kind.size == CANDIDATES[name]
    assert (kind == solver._SLICE_END).sum() == 4 * fixed.size
    g = np.linspace(0.0, 1.0, 26)
    grid = np.array([garbling((a, b)) for a in g for b in g if abs(a - b) > TOL])
    q1, q2 = solver._sender_candidates(grid, prior, shared)
    ends = kind == solver._SLICE_END
    q1, q2 = q1[:, ends], q2[:, ends]
    admitted = feasible._square_test(grid[:, None], prior, q1, q2)
    f = np.repeat(fixed, 4)
    checked = 0
    for sigma, row, a1, a2 in zip(grid, admitted, q1, q2):
        slices = {(b, low): [] for b, low in zip(fixed.tolist(), is_low.tolist())}
        for b, low, span in feasible.companion_slices(sigma, prior, list(slices)):
            slices[(b, low)].extend(span)
        for k in np.flatnonzero(row).tolist():
            companion = a2[k] if a1[k] == f[k] else a1[k]
            assert companion in slices[(f[k], bool(f[k] < prior))], (sigma.tolist(), f[k], a1[k], a2[k])
            checked += 1
    assert checked > 0


def counted_search(game, monkeypatch):
    """Run one search; return, per player, the strategies of each batch its
    batched best-response core was handed."""
    batches = {"sender": [], "mediator": []}

    def counting(player, fn):
        def wrapped(u, strategies, prior):
            batches[player].append([s.tobytes() for s in strategies])
            return fn(u, strategies, prior)

        return wrapped

    with monkeypatch.context() as m:
        m.setattr(solver, "_sender_batch", counting("sender", solver._sender_batch))
        m.setattr(solver, "_mediator_batch", counting("mediator", solver._mediator_batch))
        search_equilibria(game)
    return batches


# strategies per batch of each player's core, (sender, mediator): the
# mediator's replies to babbling and the breakpoint-pair experiments; then one
# sender batch of babbling, the experiments as garblings and the mediator's
# replies; then the mediator's replies to the sender's experiments
SEARCH_BATCHES = {
    "kg": ([5], [3, 2]),
    "fig19": ([19], [10, 9]),
    "fig20": ([25], [13, 12]),
    "fig22": ([13], [7, 6]),
}


class TestSearchBatches:
    @pytest.mark.parametrize("name, profiles", [("kg", 5), ("fig19", 19), ("fig20", 25), ("fig22", 13)])
    def test_search_work_per_fixture(self, name, profiles, request, monkeypatch):
        # profiles handed to the certificate core (in one call), and the
        # sizes of the three batches handed to the best-response cores, by
        # one search
        certified = []

        def counted_certificates(game, xs, sigmas, br_s, br_m, tol, **kwargs):
            certified.append(len(xs))
            return certificates(game, xs, sigmas, br_s, br_m, tol, **kwargs)

        certificates = solver._certificates
        monkeypatch.setattr(solver, "_certificates", counted_certificates)
        batches = counted_search(request.getfixturevalue(f"{name}_game"), monkeypatch)
        assert certified == [profiles]
        sizes = tuple([len(b) for b in batches[player]] for player in ("sender", "mediator"))
        assert sizes == SEARCH_BATCHES[name]

    @pytest.mark.parametrize("name", ["kg", "fig19", "fig20", "fig22"])
    def test_search_checks_its_distributions_in_batches(self, name, request, monkeypatch):
        # the distributions of a search, babbling ones included, are built and
        # checked in batches: none runs __post_init__ on its own. Every
        # returned one passes those checks when built again on its own
        game = request.getfixturevalue(f"{name}_game")
        scalar = []
        post_init = BeliefDistribution.__post_init__

        def counted(tau):
            scalar.append(tau)
            post_init(tau)

        with monkeypatch.context() as m:
            m.setattr(BeliefDistribution, "__post_init__", counted)
            certs = search_equilibria(game)
        assert scalar == []
        for cert in certs:
            BeliefDistribution(cert.tau.beliefs, cert.tau.probs, cert.tau.prior)

    def test_two_searches_hand_the_cores_the_same_batches(self, fig22_game, monkeypatch):
        # a search keeps no state between calls: a second search in the same
        # process solves the same strategies, batch for batch
        first = counted_search(fig22_game, monkeypatch)
        assert [len(first[player]) for player in ("sender", "mediator")] == [1, 2]
        assert counted_search(fig22_game, monkeypatch) == first


class TestPublicInputs:
    """The public best responses and check validate their strategies; the
    batched cores that search feeds do not."""

    def test_mediator_reply_rejects_a_non_finite_experiment(self, fig22_game):
        with pytest.raises(NonFiniteEntry):
            solver.mediator_best_response(fig22_game.u_mediator, [[np.nan, 0.2], [0.5, 0.8]], 0.5)

    def test_sender_reply_rejects_a_column_that_does_not_sum_to_one(self, fig22_game):
        with pytest.raises(ColumnSumMismatch, match="column 0 sums to 1"):
            solver.sender_best_response(fig22_game.u_sender, [[0.9, 0.2], [0.5, 0.8]], 0.5)

    def test_check_rejects_a_column_that_does_not_sum_to_one(self, fig22_game):
        with pytest.raises(ColumnSumMismatch, match="column 0 sums to 1"):
            solver.check_equilibrium(fig22_game, [[0.9, 0.2], [0.5, 0.8]], np.eye(2))

    def test_check_rejects_a_negative_garbling(self, fig22_game):
        with pytest.raises(NegativeEntry):
            solver.check_equilibrium(fig22_game, np.eye(2), [[1.2, 0.0], [-0.2, 1.0]])

    @pytest.mark.parametrize("prior", [0.0, TOL / 2, 1.0 - TOL / 2, 1.0])
    def test_sender_reply_at_a_certain_state_is_babbling(self, fig22_game, prior):
        # no posterior can differ from a prior of 0 or 1 (and _composite would
        # divide by it); warnings are errors under this suite's settings
        br = solver.sender_best_response(fig22_game.u_sender, np.eye(2), prior)
        assert br.tau.beliefs.tolist() == [prior] and br.attained
        assert br.value == fig22_game.u_sender(prior)
        np.testing.assert_array_equal(br.strategy, np.full((2, 2), 0.5))
