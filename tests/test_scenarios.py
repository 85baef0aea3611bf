import pytest

from mediated_persuasion import ScenarioError
from mediated_persuasion.scenarios import FIXTURE_NAMES, load_fixture, load_scenario


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_listed_fixture_loads(name):
    scenario = load_fixture(name)
    assert scenario.sigma.shape[0] == scenario.sigma.shape[1] >= 2


@pytest.mark.parametrize("seed", ["0", 1.5, True])
def test_non_integer_seed_rejected(seed):
    with pytest.raises(ScenarioError, match="'seed' must be an integer"):
        load_scenario({"prior": 0.3, "sigma": [[1, 0], [0, 1]], "seed": seed})
