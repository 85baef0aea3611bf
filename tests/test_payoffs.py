import numpy as np
import pytest

from mediated_persuasion import (
    ActionGame,
    BeliefDistribution,
    EmptyDomain,
    PiecewiseUtility,
    concavify,
    expected_utility,
    induce_belief_utilities,
)
from mediated_persuasion.scenarios import FIXTURE_NAMES, load_fixture

from conftest import random_game, random_pwl


def kg_tables() -> ActionGame:
    return ActionGame(
        actions=("acquit", "convict"),
        sender=np.array([[0, 0], [1, 1]]),
        mediator=np.array([[0, 0], [1, 1]]),
        receiver=np.array([[1, 0], [0, 1]]),
    )


def fig20_sender() -> PiecewiseUtility:
    return PiecewiseUtility.from_points(
        [(0, 0), (0.2, 0), (0.2, -100), (0.955, -100), (0.955, 0), (1, 0)],
        singletons=[(0.2, 1), (0.5, 1)],
    )


class TestEvalUtility:
    def test_step_closed_side_wins(self):
        u = PiecewiseUtility.step([0.5], [0, 1])
        assert u(0.5) == 1.0
        assert u(0.5 - 1e-12) == 0.0

    def test_singletons_take_precedence(self):
        u = fig20_sender()
        assert u(0.2) == 1.0
        assert u(0.35) == -100.0
        assert u(0.5) == 1.0
        assert u(0.955) == 0.0
        assert u(0.1) == 0.0

    def test_vectorized_matches_scalar(self):
        u = fig20_sender()
        betas = np.concatenate([[0.1, 0.35, 0.7, 0.99], edge_probes(u)])
        assert same_bits(u.eval_many(betas), [u(b) for b in betas])

    def test_pieces_partition_strictly(self):
        with pytest.raises(ValueError):
            PiecewiseUtility.from_points([(0, 0), (0.5, 1), (0.4, 0), (1, 0)])


def edge_probes(u: PiecewiseUtility) -> np.ndarray:
    """Every edge of ``u`` and both float neighbours of each."""
    e = u.breakpoints
    return np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)])


def eval_many_reference(u: PiecewiseUtility, betas) -> np.ndarray:
    """``PiecewiseUtility.eval_many`` before the shared lookup tables: its
    table construction and its body, kept verbatim."""
    edges = sorted({p.lo for p in u.pieces} | {p.hi for p in u.pieces})
    seg_slope = np.zeros(len(edges) - 1)
    seg_inter = np.zeros(len(edges) - 1)
    for k in range(len(edges) - 1):
        mid = 0.5 * (edges[k] + edges[k + 1])
        p = u._covering_piece(mid)
        seg_slope[k], seg_inter[k] = p.slope, p.intercept
    edge_vals = np.array([u._covering_piece(e).value_at(e) for e in edges])
    u_edges = np.array(edges)

    b = np.asarray(betas, dtype=float)
    lo, hi = u.domain
    if b.size and (b.min() < lo - 1e-12 or b.max() > hi + 1e-12):
        raise ValueError("belief outside utility domain")
    b = np.minimum(np.maximum(b, lo), hi)
    idx = np.searchsorted(u_edges, b, side="left")
    idx = np.minimum(idx, len(u_edges) - 1)
    exact = u_edges[idx] == b
    seg = np.minimum(np.maximum(idx - 1, 0), len(seg_slope) - 1)
    out = seg_slope[seg] * b + seg_inter[seg]
    out[exact] = edge_vals[idx[exact]]
    return out


def fixture_utilities() -> dict:
    """Every utility of the packaged games, the concavify envelope of each,
    and a 300-point utility with a jump and a singleton."""
    out = {}
    for name in FIXTURE_NAMES:
        game = load_fixture(name).game
        if game is None:
            continue
        for player in ("sender", "mediator", "receiver"):
            u = getattr(game, f"u_{player}")
            if u is not None:
                out[f"{name}-{player}"] = u
                out[f"{name}-{player}-envelope"] = concavify(u).envelope
    rng = np.random.default_rng(11)
    xs = np.sort(rng.uniform(0.0, 1.0, 298))
    xs = np.concatenate([[0.0], xs[:150], [xs[149]], xs[150:], [1.0]])  # repeated abscissa: a jump
    ys = rng.uniform(-1.0, 1.0, xs.size)
    out["pwl300"] = PiecewiseUtility.from_points(list(zip(xs, ys)), singletons=[(xs[60], 5.0)])
    return out


UTILITIES = fixture_utilities()


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestEvalManyPinned:
    """``eval_many`` returns the old body's bits."""

    @pytest.mark.parametrize("name", sorted(UTILITIES))
    def test_bit_equal_to_reference(self, name):
        u = UTILITIES[name]
        uniform = np.random.default_rng(12).uniform(0.0, 1.0, 100_000)
        betas = np.concatenate([edge_probes(u), [0.0, 1.0], uniform])
        assert same_bits(u.eval_many(betas), eval_many_reference(u, betas))

    @pytest.mark.parametrize("name", sorted(UTILITIES))
    def test_zero_d_input(self, name):
        u = UTILITIES[name]
        for beta in edge_probes(u)[:3].tolist() + [0.37]:
            for got in (u.eval_many(np.float64(beta)), np.asarray(u(beta))):
                assert got.shape == ()
                assert same_bits(got, eval_many_reference(u, [beta])[0])

    @pytest.mark.parametrize("beta", [-1e-9, 1.0 + 1e-9, 2.0])
    def test_out_of_domain_belief_raises(self, beta):
        u = UTILITIES["pwl300"]
        with pytest.raises(ValueError, match="outside utility domain"):
            eval_many_reference(u, [0.5, beta])
        for evaluate in (u.eval_many, u.sup_many, lambda b: u.limits_many(b, [True, False]), lambda b: u(b[1])):
            with pytest.raises(ValueError, match="outside utility domain"):
                evaluate([0.5, beta])


class TestInducedUtilities:
    def test_conviction_game(self):
        u_s, u_m, u_r = induce_belief_utilities(kg_tables())
        assert u_s(0.49) == 0.0
        assert u_s(0.5) == 1.0  # indifferent receiver sides with the sender
        assert u_s(0.51) == 1.0
        assert u_m(0.3) == u_s(0.3)
        for b in (0.0, 0.2, 0.5, 0.8, 1.0):
            assert u_r(b) == pytest.approx(max(1 - b, b))

    def test_dominant_action_gives_affine_utilities(self):
        game = ActionGame(
            actions=("l", "r"),
            sender=np.array([[1, 0], [0, 1]]),
            mediator=np.array([[0.5, 0.5], [0, 0]]),
            receiver=np.array([[2, 3], [0, 1]]),  # first action dominates
        )
        u_s, u_m, u_r = induce_belief_utilities(game)
        for u in (u_s, u_m, u_r):
            assert len(u.pieces) == 1

    def test_three_action_monotone_steps(self):
        # receiver indifferent at 1/3 and 2/3; sender payoffs increase with action
        game = ActionGame(
            actions=("a1", "a2", "a3"),
            sender=np.array([[0, 0], [1, 1], [5, 5]]),
            mediator=np.array([[0, 0], [0, 0], [0, 0]]),
            receiver=np.array([[1, 0], [0.75, 0.75], [0, 1]]),
        )
        u_s, _, u_r = induce_belief_utilities(game)
        assert u_s(0.0) == 0 and u_s(0.25 - 1e-9) == 0
        assert u_s(0.25) == 1 and u_s(0.75 - 1e-9) == 1
        assert u_s(0.75) == 5 and u_s(1.0) == 5
        # receiver's induced utility is the upper envelope of her action lines
        for b in np.linspace(0, 1, 9):
            assert u_r(b) == pytest.approx(max(1 - b, 0.75, b), abs=1e-12)

    def test_argmax_and_tiebreak_by_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            nA = int(rng.integers(2, 5))
            game = ActionGame(
                actions=tuple(f"a{k}" for k in range(nA)),
                sender=rng.uniform(-1, 1, (nA, 2)),
                mediator=rng.uniform(-1, 1, (nA, 2)),
                receiver=rng.uniform(-1, 1, (nA, 2)),
            )
            u_s, u_m, u_r = induce_belief_utilities(game)
            for beta in rng.uniform(0, 1, 40):
                vals = [(1 - beta) * game.receiver[a, 0] + beta * game.receiver[a, 1] for a in range(nA)]
                top = max(vals)
                best = [a for a in range(nA) if vals[a] >= top - 1e-12]
                sv = [(1 - beta) * game.sender[a, 0] + beta * game.sender[a, 1] for a in best]
                a_star = best[int(np.argmax(sv))]
                assert u_r(beta) == pytest.approx(top, abs=1e-9)
                assert u_s(beta) == pytest.approx(
                    (1 - beta) * game.sender[a_star, 0] + beta * game.sender[a_star, 1],
                    abs=1e-9,
                )


class TestConcavify:
    def test_affine_is_its_own_envelope(self):
        u = PiecewiseUtility.affine(0.5, 0.1)
        conc = concavify(u)
        assert conc.value(0.37) == pytest.approx(u(0.37), abs=1e-12)
        (lo, hi), = conc.coincident
        assert (lo, hi) == (0.0, 1.0)

    def test_v_shape_concavifies_to_chord(self):
        u = PiecewiseUtility.from_points([(0, 1), (0.5, 0.5), (1, 1)])
        conc = concavify(u)
        assert conc.value(0.3) == pytest.approx(1.0, abs=1e-12)
        pts = [c for c in conc.coincident]
        assert pts[0] == (0.0, 0.0) and pts[-1] == (1.0, 1.0)

    def test_v_shape_restricted_domain_is_linear(self):
        u = PiecewiseUtility.from_points([(0, 1), (0.5, 0.5), (1, 1)])
        conc = concavify(u, domain=(0.0, 0.5))
        assert conc.value(0.3) == pytest.approx(0.7, abs=1e-12)
        (lo, hi), = conc.coincident
        assert (lo, hi) == (0.0, 0.5)

    def test_empty_domain(self):
        u = PiecewiseUtility.affine(0.0, 1.0)
        with pytest.raises(EmptyDomain):
            concavify(u, domain=(0.5, 0.5))

    def test_envelope_dominates_on_grid(self):
        rng = np.random.default_rng(6)
        grid = np.linspace(0, 1, 10_000)
        for _ in range(10):
            u = random_pwl(rng)
            conc = concavify(u)
            assert np.all(conc.envelope.eval_many(grid) >= u.eval_many(grid) - 1e-9)

    def test_envelope_concavity_midpoints(self):
        rng = np.random.default_rng(8)
        u = random_pwl(rng, n_nodes=7)
        env = concavify(u).envelope
        for _ in range(1000):
            a, b = np.sort(rng.uniform(0, 1, 2))
            mid = 0.5 * (a + b)
            assert env(mid) >= 0.5 * (env(a) + env(b)) - 1e-9

    def test_exact_value_at_prior(self):
        # the hull of the breakpoint values, with no sampling in between
        cases = [
            (PiecewiseUtility.step([0.5], [0, 1]), {0.3: 0.6, 0.5: 1.0}),
            (fig20_sender(), {0.3: 1.0, 0.5: 1.0}),
            (
                PiecewiseUtility.from_points([(0, 0.5), (0.25, 1), (0.5, 0.25), (0.75, 1), (1, 0.5)]),
                {0.3: 1.0, 0.5: 1.0},
            ),
            (PiecewiseUtility.step([1 / 3, 4 / 5], [0, 1, 2]), {0.3: 0.9, 0.5: 19 / 14}),
        ]
        for u, want in cases:
            conc = concavify(u)
            for prior, value in want.items():
                assert conc.value(prior) == pytest.approx(value, abs=1e-12, rel=0)
            assert not conc.unattained

    def test_unattained_open_endpoint_is_flagged(self):
        u = PiecewiseUtility.from_points([(0, 1), (0.5, 1), (0.5, 0), (1, 0)])
        conc = concavify(u)
        assert any(abs(b - 0.5) < 1e-9 for b, _ in conc.unattained)

    @pytest.mark.parametrize("u, want", [
        # random game 2's mediator is 3 on [0, 0.1): the envelope meets that
        # half-open piece, and its closure is reported
        (random_game(2)[1], ((0.0, 0.1), (1.0, 1.0))),
        # random game 3's mediator has a breakpoint at 0.75 between two pieces
        # of equal value, and the run on the envelope goes through it
        (random_game(3)[1], ((0.0, 0.0), (0.6, 0.95), (1.0, 1.0))),
        # a singleton below the envelope splits the run
        (PiecewiseUtility.affine(1.0, 0.0).with_singleton(0.5, 0.0), ((0.0, 0.5), (0.5, 1.0))),
    ])
    def test_coincident_is_exact(self, u, want):
        assert concavify(u).coincident == want


class TestExpectedUtility:
    def test_conviction_benchmark_value(self):
        u = PiecewiseUtility.step([0.5], [0, 1])
        tau = BeliefDistribution.from_atoms([(0.0, 0.4), (0.5, 0.6)])
        assert expected_utility(u, tau) == pytest.approx(0.6, abs=1e-12)

    def test_point_mass(self):
        u = fig20_sender()
        tau = BeliefDistribution.from_atoms([(0.3, 1.0)])
        assert expected_utility(u, tau) == u(0.3)

    def test_three_step_arithmetic(self):
        u = PiecewiseUtility.step([1 / 3, 2 / 3], [0, 1, 5])
        tau = BeliefDistribution.from_atoms([(1 / 3, 9 / 14), (4 / 5, 5 / 14)])
        assert expected_utility(u, tau) == pytest.approx(34 / 14, abs=1e-12)

    def test_linear_in_probabilities(self):
        rng = np.random.default_rng(9)
        u = random_pwl(rng)
        a = BeliefDistribution.from_atoms([(0.1, 0.5), (0.7, 0.5)])
        b = BeliefDistribution.from_atoms([(0.2, 0.5), (0.6, 0.5)])
        for lam in rng.uniform(0, 1, 20):
            mix = BeliefDistribution.from_atoms(
                [(0.1, 0.5 * lam), (0.7, 0.5 * lam), (0.2, 0.5 * (1 - lam)), (0.6, 0.5 * (1 - lam))]
            )
            direct = lam * expected_utility(u, a) + (1 - lam) * expected_utility(u, b)
            assert expected_utility(u, mix) == pytest.approx(direct, abs=1e-9)
