import dataclasses
import tracemalloc

import numpy as np
import pytest

from mediated_persuasion.info import TOL
from mediated_persuasion.solver import (
    CLUSTER_RADIUS,
    _coarse_representatives,
    _grid_tables,
    search_equilibria,
)

# 21 grid values: 441 sigma rows, so the streamed sweep spans several blocks
COARSE_GRID = 0.05


def whole_array_tables(game, vals):
    """Whole-array grid tables (E_s, E_m, T_lo, T_hi): the reference formula."""
    n = len(vals)
    s1, s2 = np.meshgrid(vals, vals, indexing="ij")
    s1, s2 = s1.ravel(), s2.ravel()
    x1, y1 = np.meshgrid(vals, vals, indexing="ij")
    x1, y1 = x1.ravel(), y1.ravel()
    pi = game.prior
    E_s = np.empty((n * n, n * n), dtype=np.float32)
    E_m = np.empty((n * n, n * n), dtype=np.float32)
    T_lo = np.empty((n * n, n * n), dtype=np.float32)
    T_hi = np.empty((n * n, n * n), dtype=np.float32)
    chunk = max(1, int(2_000_000 // max(len(x1), 1)))
    for start in range(0, n * n, chunk):
        sl = slice(start, min(start + chunk, n * n))
        a = s1[sl][:, None]
        b = s2[sl][:, None]
        x = x1[None, :]
        y = y1[None, :]
        b11 = a * x + b * (1 - x)
        b12 = a * y + b * (1 - y)
        b21 = (1 - a) * x + (1 - b) * (1 - x)
        b22 = (1 - a) * y + (1 - b) * (1 - y)
        p1 = (1 - pi) * b11 + pi * b12
        p2 = (1 - pi) * b21 + pi * b22
        with np.errstate(invalid="ignore", divide="ignore"):
            q1 = np.where(p1 > TOL, pi * b12 / np.where(p1 > 0, p1, 1.0), pi)
            q2 = np.where(p2 > TOL, pi * b22 / np.where(p2 > 0, p2, 1.0), pi)
        for u, out in ((game.u_sender, E_s), (game.u_mediator, E_m)):
            v1 = u.eval_many(q1.ravel()).reshape(q1.shape)
            v2 = u.eval_many(q2.ravel()).reshape(q2.shape)
            out[sl] = p1 * v1 + p2 * v2
        T_lo[sl] = np.minimum(q1, q2)
        T_hi[sl] = np.maximum(q1, q2)
    return E_s, E_m, T_lo, T_hi


def whole_array_representatives(game, E_s, E_m, T_lo, T_hi, radius):
    """Grid-game filter and one global lexsort over every kept profile."""
    v_s = E_s.max(axis=1, keepdims=True)
    v_m = E_m.max(axis=0, keepdims=True)
    slope = max(game.u_sender.max_abs_slope, game.u_mediator.max_abs_slope)
    eps_coarse = game.tol_search + 2.0 * slope * game.grid
    sig_idx, x_idx = np.nonzero((v_s - E_s <= eps_coarse) & (v_m - E_m <= eps_coarse))
    gaps = np.maximum(
        (v_s[sig_idx, 0] - E_s[sig_idx, x_idx]).astype(np.float64),
        (v_m[0, x_idx] - E_m[sig_idx, x_idx]).astype(np.float64),
    )
    k_lo = np.rint(T_lo[sig_idx, x_idx].astype(np.float64) / radius).astype(np.int64)
    k_hi = np.rint(T_hi[sig_idx, x_idx].astype(np.float64) / radius).astype(np.int64)
    keys = k_lo * 100000 + k_hi
    order = np.lexsort((x_idx, sig_idx, gaps, keys))
    first = np.ones(len(order), dtype=bool)
    first[1:] = keys[order][1:] != keys[order][:-1]
    r = order[first]
    return gaps[r], sig_idx[r], x_idx[r], k_lo[r], k_hi[r]


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


@pytest.fixture(scope="module")
def kg_search(kg_game):
    """kg search results and the tracemalloc peak (bytes) of that search."""
    tracemalloc.start()
    try:
        certs = search_equilibria(kg_game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return certs, peak


@pytest.mark.parametrize("name", ["kg_game", "fig22_game"])
class TestStreamedGrid:
    def test_tables_match_whole_array_formula(self, name, request):
        # fig22's step utilities turn a one-ulp posterior drift into a jump
        game = dataclasses.replace(request.getfixturevalue(name), grid=COARSE_GRID)
        vals = np.linspace(0.0, 1.0, int(round(1.0 / game.grid)) + 1)
        E_s, E_m = _grid_tables(game, vals)
        ref_s, ref_m, _, _ = whole_array_tables(game, vals)
        assert E_s.shape == ref_s.shape == (vals.size**2, vals.size**2)
        assert E_s.dtype == E_m.dtype == np.float32
        assert np.array_equal(E_s, ref_s)
        assert np.array_equal(E_m, ref_m)

    def test_bin_representatives_match_global_sort(self, name, request):
        game = dataclasses.replace(request.getfixturevalue(name), grid=COARSE_GRID)
        vals = np.linspace(0.0, 1.0, int(round(1.0 / game.grid)) + 1)
        tables = whole_array_tables(game, vals)
        got = _coarse_representatives(game, vals, *tables[:2], CLUSTER_RADIUS)
        want = whole_array_representatives(game, *tables, CLUSTER_RADIUS)
        assert want[0].size > 1
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestSearchOutcomes:
    def test_kg_finds_babbling_and_kg_split(self, kg_search):
        certs, _ = kg_search
        assert len(certs) == 2
        assert has_outcome(certs, (0.3,))
        assert has_outcome(certs, (0.0, 0.5))
        assert all(c.verified for c in certs)

    def test_fig20_finds_only_babbling(self, fig20_game):
        certs = search_equilibria(fig20_game)
        assert len(certs) == 1
        assert has_outcome(certs, (0.3,))
        assert all(c.verified for c in certs)

    @pytest.mark.xfail(
        strict=True,
        reason="sigma* = (6/7, 3/7) is off the grid, and no cluster "
        "representative polishes to this equilibrium",
    )
    def test_fig22_finds_one_third_four_fifths(self, fig22_game):
        certs = search_equilibria(fig22_game)
        assert all(c.verified for c in certs)
        assert has_outcome(certs, (1 / 3, 4 / 5), sender_value=19 / 14)


def test_kg_search_peak_memory_below_100mb(kg_search):
    # two float32 tables over 51^4 profiles take 54 MB; whole-array posterior
    # tables or chunk-sized temporaries push the peak far past 100 MB
    _, peak = kg_search
    assert peak < 100e6
