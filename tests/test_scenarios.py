import pytest

from mediated_persuasion.scenarios import FIXTURE_NAMES, load_fixture


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_listed_fixture_loads(name):
    scenario = load_fixture(name)
    assert scenario.sigma.shape[0] == scenario.sigma.shape[1] >= 2
