import json

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
from mediated_persuasion.payoffs import _ABOVE, _BELOW, _SUP, _VALUE, Piece, _with_singleton
from mediated_persuasion.scenarios import FIXTURE_NAMES, fixture_path, load_fixture, parse_number

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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PiecewiseUtility.from_points([(0, np.nan), (1, 0)]),
            lambda: PiecewiseUtility.from_points([(0, 0), (0.5, np.inf), (1, 0)]),
            lambda: PiecewiseUtility.step([0.5], [0, np.nan]),
        ],
        ids=["nan-value", "infinite-value", "nan-step"],
    )
    def test_rejects_non_finite_pieces(self, build):
        # each other piece check is a comparison, which NaN never fails
        with pytest.raises(ValueError, match="is not finite"):
            build()


def edge_probes(u: PiecewiseUtility) -> np.ndarray:
    """Every edge of ``u`` and both float neighbours of each."""
    e = u.breakpoints
    return np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)])


def covering_piece(u: PiecewiseUtility, beta: float):
    """The piece of ``u`` that holds ``beta``, by a scan of its pieces: the
    lookup ``PiecewiseUtility`` built its tables with before it swept its
    sorted pieces once, kept verbatim."""
    for p in u.pieces:
        if p.is_singleton:
            if p.lo == beta:
                return p
        else:
            lo_ok = beta > p.lo or (p.lo_closed and beta == p.lo)
            hi_ok = beta < p.hi or (p.hi_closed and beta == p.hi)
            if lo_ok and hi_ok:
                return p
    raise ValueError(f"{beta} outside domain [{u.domain[0]}, {u.domain[1]}]")


def eval_many_reference(u: PiecewiseUtility, betas) -> np.ndarray:
    """``PiecewiseUtility.eval_many`` before the shared lookup tables: its
    table construction and its body, kept verbatim."""
    edges = sorted({p.lo for p in u.pieces} | {p.hi for p in u.pieces})
    seg_slope = np.zeros(len(edges) - 1)
    seg_inter = np.zeros(len(edges) - 1)
    for k in range(len(edges) - 1):
        mid = 0.5 * (edges[k] + edges[k + 1])
        p = covering_piece(u, mid)
        seg_slope[k], seg_inter[k] = p.slope, p.intercept
    edge_vals = np.array([covering_piece(u, e).value_at(e) for e in edges])
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


def envelope(conc) -> PiecewiseUtility:
    """The concave envelope as a utility, through the hull vertices."""
    return PiecewiseUtility.from_points(list(zip(conc.xs, conc.ys)))


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
                out[f"{name}-{player}-envelope"] = envelope(concavify(u))
    points, singletons = pwl300_graph()
    out["pwl300"] = PiecewiseUtility.from_points(points, singletons=singletons)
    return out


def pwl300_graph():
    """Points and singletons of a 300-point utility with a jump and a singleton."""
    rng = np.random.default_rng(11)
    xs = np.sort(rng.uniform(0.0, 1.0, 298))
    xs = np.concatenate([[0.0], xs[:150], [xs[149]], xs[150:], [1.0]])  # repeated abscissa: a jump
    ys = rng.uniform(-1.0, 1.0, xs.size)
    return list(zip(xs, ys)), [(xs[60], 5.0)]


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
        for evaluate in (u.eval_many, u._locate, lambda b: u(b[1])):
            with pytest.raises(ValueError, match="outside utility domain"):
                evaluate([0.5, beta])

    def test_nan_belief_raises(self):
        # the domain check is written so that NaN fails it, not passes as NaN
        u = UTILITIES["pwl300"]
        for evaluate in (u.eval_many, u._locate, lambda b: u(b[1])):
            with pytest.raises(ValueError, match="outside utility domain"):
                evaluate([0.5, np.nan])


def pwl_graphs() -> dict:
    """Points and singletons of every pwl utility of the packaged games, and of pwl300."""
    out = {"pwl300": pwl300_graph()}
    for name in FIXTURE_NAMES:
        utilities = json.loads(fixture_path(name).read_text()).get("utilities", {})
        for player, obj in utilities.items():
            if obj["type"] == "pwl":
                graph = ([[parse_number(v) for v in xy] for xy in obj.get(key, [])] for key in ("points", "singletons"))
                out[f"{name}-{player}"] = tuple(graph)
    return out


PWL_GRAPHS = pwl_graphs()


class TestSingletons:
    @pytest.mark.parametrize("name", sorted(PWL_GRAPHS))
    def test_equal_to_one_utility_per_singleton_bit_for_bit(self, name):
        # the singletons join the piece list and the utility is built once;
        # the reference builds a whole utility, then one more per singleton
        points, singletons = PWL_GRAPHS[name]
        u, ref = PiecewiseUtility.from_points(points, singletons), PiecewiseUtility.from_points(points)
        for x, v in singletons:
            ref = PiecewiseUtility(tuple(_with_singleton(ref.pieces, float(x), float(v))))
        assert u.pieces == ref.pieces
        for table in ("_edges", "_slope_at", "_inter_at", "_at"):
            assert same_bits(getattr(u, table), getattr(ref, table))

    def test_fig20_load_builds_each_utility_once(self, monkeypatch):
        # its sender's two singletons cost no build of their own
        built = []
        post_init = PiecewiseUtility.__post_init__
        monkeypatch.setattr(PiecewiseUtility, "__post_init__", lambda u: built.append(u) or post_init(u))
        load_fixture("fig20")
        assert len(built) == 3


def tables_reference(u: PiecewiseUtility):
    """The edges, the segment coefficients and the attained values at the
    edges as ``PiecewiseUtility`` built them before its one sweep over the
    sorted pieces: a scan of the pieces per edge and per segment, kept
    verbatim."""
    edges = sorted({p.lo for p in u.pieces} | {p.hi for p in u.pieces})
    slope_at = np.zeros(len(edges))
    inter_at = np.zeros(len(edges))
    for k in range(1, len(edges)):
        p = covering_piece(u, 0.5 * (edges[k - 1] + edges[k]))
        slope_at[k], inter_at[k] = p.slope, p.intercept
    if len(edges) > 1:
        slope_at[0], inter_at[0] = slope_at[1], inter_at[1]
    value_at = np.array([covering_piece(u, e).value_at(e) for e in edges])
    return np.array(edges), slope_at, inter_at, value_at


SWEEP_CASES = {
    **UTILITIES,
    "singletons-at-both-ends": PiecewiseUtility.from_points([(0, 1), (0.5, 0), (1, 1)], singletons=[(0, 3), (1, -2)]),
    "singleton-on-a-jump": PiecewiseUtility.from_points([(0, 0), (0.4, 1), (0.4, 2), (1, 0)], singletons=[(0.4, 5)]),
    "closed-left-steps": PiecewiseUtility(
        (Piece(0.0, 0.3, True, True, 1.0, 0.0), Piece(0.3, 0.6, False, False, -1.0, 2.0), Piece(0.6, 1.0, True, True, 0.0, 1.0))
    ),
    "negative-zero-start": PiecewiseUtility.from_points([(-0.0, -0.0), (0.5, 1.0), (1.0, 0.0)]),
    "jump-from-negative-zero": PiecewiseUtility.from_points([(-1.0, 0.0), (-0.0, 1.0), (0.0, 2.0), (1.0, 0.0)]),
    "inner-domain": PiecewiseUtility.affine(2.0, -1.0, (0.2, 0.8)),
    "one-point": PiecewiseUtility((Piece(0.5, 0.5, True, True, 0.0, 3.0),)),
}


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_table_sweep_equals_the_scan_of_pieces(name):
    u = SWEEP_CASES[name]
    edges, slope_at, inter_at, value_at = tables_reference(u)
    assert same_bits(u._edges, edges)
    assert same_bits(u._slope_at, slope_at)
    assert same_bits(u._inter_at, inter_at)
    assert same_bits(u._at[_VALUE], value_at)


def lookup_reference(u: PiecewiseUtility, betas, table) -> np.ndarray:
    """The per-edge ``table`` at the beliefs as each lookup read it before
    one location served every table: the old body, kept verbatim."""
    b = np.asarray(betas, dtype=float)
    lo, hi = u.domain
    shape = b.shape
    b = np.minimum(np.maximum(b.reshape(-1), lo), hi)
    edges = u._edges
    idx = np.minimum(np.searchsorted(edges, b, side="left"), len(edges) - 1)
    exact = edges[idx] == b
    v = u._slope_at[idx] * b + u._inter_at[idx]
    v[exact] = table[idx[exact]]
    return v.reshape(shape)


class TestOneLocate:
    """Every read of one ``_locate`` is the lookup of its own table."""

    @pytest.mark.parametrize("name", sorted(UTILITIES))
    def test_reads_equal_the_lookups_bit_for_bit(self, name):
        # each edge, one ulp either side of it, the domain ends, and beliefs
        # between, in a 2-d stack as the best responses locate them
        u = UTILITIES[name]
        uniform = np.random.default_rng(13).uniform(0.0, 1.0, 1_000)
        betas = np.concatenate([edge_probes(u), [0.0, 1.0], uniform])
        betas = betas[: betas.size // 2 * 2].reshape(-1, 2)
        above = np.random.default_rng(14).integers(0, 2, betas.shape).astype(bool)
        ref = {row: lookup_reference(u, betas, u._at[row]) for row in (_VALUE, _SUP, _ABOVE, _BELOW)}
        loc = u._locate(betas)
        for row, want in ref.items():
            assert same_bits(u._read(loc, row), want)
        assert same_bits(u._read(loc, np.where(above, _ABOVE, _BELOW)), np.where(above, ref[_ABOVE], ref[_BELOW]))
        assert same_bits(u.eval_many(betas), ref[_VALUE])
        # the concavifications read the tables at their own edges
        assert same_bits(u._at[_VALUE], u.eval_many(u.breakpoints))
        assert same_bits(u._at[_SUP], u._read(u._locate(u.breakpoints), _SUP))


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

    def test_three_lines_tied_at_one_belief_give_a_singleton(self):
        # all receiver lines meet at 1/2, where the sender's favourite (5)
        # wins; neither neighbouring interval plays it, so it is a singleton
        game = ActionGame(
            actions=("l", "m", "r"),
            sender=np.array([[0, 0], [5, 5], [1, 1]]),
            mediator=np.zeros((3, 2)),
            receiver=np.array([[1, 0], [0.5, 0.5], [0, 1]]),
        )
        u_s = induce_belief_utilities(game)[0]
        assert u_s.pieces == (
            Piece(0.0, 0.5, True, False, 0.0, 0.0),
            Piece(0.5, 0.5, True, True, 0.0, 5.0),
            Piece(0.5, 1.0, False, True, 0.0, 1.0),
        )
        assert [u_s(b) for b in (0.0, 0.49, 0.5, 0.51, 1.0)] == [0, 0, 5, 1, 1]

    def test_tie_only_at_belief_one_gives_a_last_singleton(self):
        # the receiver's lines b and 2b - 1 tie only at 1, where the
        # sender-preferred action (3) takes the last point from the interval
        game = ActionGame(
            actions=("a", "b"),
            sender=np.array([[0, 0], [0, 3]]),
            mediator=np.zeros((2, 2)),
            receiver=np.array([[0, 1], [-1, 1]]),
        )
        u_s = induce_belief_utilities(game)[0]
        assert u_s.pieces == (
            Piece(0.0, 1.0, True, False, 0.0, 0.0),
            Piece(1.0, 1.0, True, True, 0.0, 3.0),
        )
        assert [u_s(b) for b in (0.0, 0.5, 1.0 - 1e-9, 1.0)] == [0, 0, 0, 3]

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
            assert np.all(envelope(conc).eval_many(grid) >= u.eval_many(grid) - 1e-9)

    def test_envelope_concavity_midpoints(self):
        rng = np.random.default_rng(8)
        u = random_pwl(rng, n_nodes=7)
        env = envelope(concavify(u))
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
        (PiecewiseUtility.from_points([(0, 0), (1, 1)], singletons=[(0.5, 0.0)]), ((0.0, 0.5), (0.5, 1.0))),
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
