import pytest

from mediated_persuasion import ScenarioError
from mediated_persuasion.scenarios import FIXTURE_NAMES, load_fixture, load_scenario


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_listed_fixture_loads(name):
    scenario = load_fixture(name)
    assert scenario.sigma.shape[0] == scenario.sigma.shape[1] >= 2


@pytest.mark.parametrize("seed", ["0", 1.5, True])
def test_non_integer_seed_rejected(seed):
    # no key takes a seed: search is deterministic
    with pytest.raises(ScenarioError, match=r"unknown key\(s\) \['seed'\] in scenario"):
        load_scenario({"prior": 0.3, "sigma": [[1, 0], [0, 1]], "seed": seed})


PWL = {"type": "pwl", "points": [[0, 0], [1, 1]]}


def scenario(**changes):
    doc = {"prior": "3/10", "sigma": [[1, 0], [0, 1]], "utilities": {"sender": PWL, "mediator": PWL}}
    doc.update(changes)
    return doc


def test_valid_search_parameters_reach_the_game():
    game = load_scenario(scenario(search={"tol_dev": "1/1000"})).game
    assert game.tol_dev == 0.001


@pytest.mark.parametrize(
    "search, match",
    [
        ({"grid": 0}, r"unknown key\(s\) \['grid'\] in search"),
        ({"grid": -0.1}, r"unknown key\(s\) \['grid'\] in search"),
        ({"grid": 1.5}, r"unknown key\(s\) \['grid'\] in search"),
        ({"tol_dev": 0}, "search.tol_dev 0.0 must be positive"),
        ({"tol_search": "-1/1000"}, r"unknown key\(s\) \['tol_search'\] in search"),
        ({"step": 0.02}, r"unknown key\(s\) \['step'\] in search"),
    ],
)
def test_bad_search_rejected(search, match):
    with pytest.raises(ScenarioError, match=match):
        load_scenario(scenario(search=search))


@pytest.mark.parametrize(
    "sigma, match",
    [
        ([[2, 0], [-1, 1]], r"entry \(1, 0\) = -1.0 is negative"),
        ([["1/2", 0], ["1/3", 1]], "column 0 sums to 1-0.167"),
    ],
)
def test_non_stochastic_sigma_rejected(sigma, match):
    with pytest.raises(ScenarioError, match="sigma is not column-stochastic: " + match):
        load_scenario(scenario(sigma=sigma))


@pytest.mark.parametrize(
    "utilities, match",
    [
        ({"sender": PWL, "mediator": PWL, "sneaky": PWL}, r"unknown key\(s\) \['sneaky'\] in utilities"),
        ({"sender": {**PWL, "slope": 1}, "mediator": PWL}, r"unknown key\(s\) \['slope'\] in utilities.sender"),
        ({"sender": PWL, "mediator": {"type": "spline", "points": []}}, "utilities.mediator: unknown utility type 'spline'"),
        ({"sender": {"type": "pwl"}, "mediator": PWL}, "utilities.sender: pwl utility needs 'points'"),
        ({"sender": PWL}, "utilities missing 'mediator'"),
    ],
)
def test_bad_utilities_rejected(utilities, match):
    with pytest.raises(ScenarioError, match=match):
        load_scenario(scenario(utilities=utilities))
