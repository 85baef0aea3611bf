import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mediated_persuasion
from mediated_persuasion import GameSpec, PiecewiseUtility, load_fixture
from mediated_persuasion.info import TOL, _as_array

RANKED_PAIR = (
    np.array([[9 / 10, 1 / 100], [1 / 10, 99 / 100]]),
    np.array([[2 / 3, 1 / 4], [1 / 3, 3 / 4]]),
)
UNRANKED_PAIR = (
    np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]]),
    np.array([[4 / 5, 1 / 2], [1 / 5, 1 / 2]]),
)

# the edge of the two-signal parallelogram each experiment family runs
# along, as (vertex row at parameter 0, vertex row at 1), row 2 i + j for
# X = (e_i, e_j): X1 and X2 pin the state-1 column x0 to e_0 and e_1, X3
# and X4 pin x1
FAMILY_EDGES = {"X1": (1, 0), "X2": (3, 2), "X3": (2, 0), "X4": (3, 1)}

# the source tree the tests import, handed to fresh interpreters
SRC = str(Path(mediated_persuasion.__file__).resolve().parent.parent)


def run_fresh(code: str, *args: str, env=None) -> str:
    """Run ``code`` with ``args`` in a fresh interpreter that imports the
    same library as the tests; returns its standard output. ``env`` replaces
    the inherited environment."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def random_garbling(rng, lo=0.05, hi=0.95, min_det=0.05):
    """Full-rank 2x2 garbling with entries away from the simplex corners."""
    while True:
        s1, s2 = rng.uniform(lo, hi, size=2)
        if abs(s1 - s2) >= min_det:
            return np.array([[s1, s2], [1.0 - s1, 1.0 - s2]])


def random_experiment(rng):
    x, y = rng.uniform(0.0, 1.0, size=2)
    return np.array([[x, y], [1.0 - x, 1.0 - y]])


@pytest.fixture(scope="session")
def kg_game() -> GameSpec:
    return load_fixture("kg").game


@pytest.fixture(scope="session")
def fig19_game() -> GameSpec:
    return load_fixture("fig19").game


@pytest.fixture(scope="session")
def fig20_game() -> GameSpec:
    return load_fixture("fig20").game


@pytest.fixture(scope="session")
def fig22_game() -> GameSpec:
    return load_fixture("fig22").game


def concave_pwl(rng, curvature=(4.0, 12.0), nodes=64) -> PiecewiseUtility:
    """Fine piecewise-linear sample of a strictly concave function."""
    a = rng.uniform(*curvature)
    c = rng.uniform(0.25, 0.75)
    d = rng.uniform(0.0, 1.0)
    xs = np.linspace(0.0, 1.0, nodes)
    ys = d - a * (xs - c) ** 2
    return PiecewiseUtility.from_points(list(zip(xs, ys)))


def convex_pwl(rng, curvature=(4.0, 12.0), nodes=64) -> PiecewiseUtility:
    a = rng.uniform(*curvature)
    c = rng.uniform(0.25, 0.75)
    xs = np.linspace(0.0, 1.0, nodes)
    ys = a * (xs - c) ** 2
    return PiecewiseUtility.from_points(list(zip(xs, ys)))


def random_game(seed: int):
    """(sender, mediator, prior) of the seeded random game ``seed``.

    Each utility has one to three cuts on the 1/20 grid and integer values in
    [-2, 3]: a step function between the cuts, or piecewise linear through 0,
    the cuts and 1. The prior is on the 1/10 grid in [0.2, 0.8].
    """
    rng = np.random.default_rng(1000 + seed)

    def utility():
        k = rng.integers(1, 4)
        cuts = np.sort(rng.choice(np.arange(1, 20), k, replace=False)) / 20
        if rng.integers(2) == 0:
            return PiecewiseUtility.step(cuts, rng.integers(-2, 4, size=k + 1))
        xs = np.concatenate([[0.0], cuts, [1.0]])
        return PiecewiseUtility.from_points(list(zip(xs, rng.integers(-2, 4, size=k + 2))))

    u_s, u_m = utility(), utility()
    return u_s, u_m, rng.integers(2, 9) / 10


def random_pwl(rng, n_nodes=5, lo=0.0, hi=1.0) -> PiecewiseUtility:
    xs = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, n_nodes - 2)), [1.0]])
    ys = rng.uniform(lo, hi, size=xs.size)
    return PiecewiseUtility.from_points(list(zip(xs, ys)))


def brute_force_pairs(sigma, prior: float, step: float = 0.01) -> np.ndarray:
    """(N, 2) ordered posterior pairs from the full 2x2 experiment grid.

    A test reference, so it does not use ``info._bayes``. An uninformative
    experiment (x = y) gets the prior exactly, not a float update an ulp off it.
    """
    a = _as_array(sigma)
    g = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    x, y = xx.ravel(), yy.ravel()
    b11 = a[0, 0] * x + a[0, 1] * (1 - x)
    b12 = a[0, 0] * y + a[0, 1] * (1 - y)
    b21 = a[1, 0] * x + a[1, 1] * (1 - x)
    b22 = a[1, 0] * y + a[1, 1] * (1 - y)
    p1 = (1 - prior) * b11 + prior * b12
    p2 = (1 - prior) * b21 + prior * b22
    with np.errstate(invalid="ignore", divide="ignore"):
        q1 = np.where(p1 > TOL, prior * b12 / np.where(p1 > 0, p1, 1.0), prior)
        q2 = np.where(p2 > TOL, prior * b22 / np.where(p2 > 0, p2, 1.0), prior)
    pairs = np.column_stack([q1, q2])
    pairs[x == y] = prior
    return pairs
