import pytest

from mediated_persuasion import ScenarioError
from mediated_persuasion.scenarios import FIXTURE_NAMES, fixture_path, load_fixture, load_scenario


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


def actions(names, table, receiver=None):
    """The same action game for every player: ``table`` for the sender and
    the mediator, ``receiver`` (default ``table``) for the receiver."""
    game = {"type": "actions", "actions": names, "payoffs": {"sender": table, "mediator": table, "receiver": receiver or table}}
    return {"sender": game, "mediator": game}


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
        ({"sender": {"type": "pwl", "points": [[0], [1, 1]]}, "mediator": PWL}, "utilities.sender: not enough values to unpack"),
        ({"sender": {"type": "pwl", "points": 5}, "mediator": PWL}, "utilities.sender: 'int' object is not iterable"),
        ({"sender": {"type": "pwl", "points": [[1, 0], [0, 1]]}, "mediator": PWL}, "utilities.sender: points must have nondecreasing abscissas"),
        ({"sender": PWL, "mediator": {"type": "pwl", "points": [[0, 0], [0.5, 1]]}}, "scenario: the mediator utility must cover the whole belief space"),
        ({"sender": PWL, "mediator": {**PWL, "singletons": [[2, 1]]}}, "utilities.mediator: singleton 2.0 outside domain"),
        (actions(["stay"], [[0, 1]]), "utilities: need at least two actions"),
        (actions(["stay", "go"], [[0, 1], [1, 0]], receiver=[[0, 1, 2], [1, 0, 2]]), r"utilities: receiver table must be \(n_actions, 2\)"),
        ({"sender": {**actions(["stay", "go"], [[0, 1], [1, 0]])["sender"], "payoffs": 5}, "mediator": PWL}, "utilities.sender.payoffs must be an object"),
    ],
)
def test_bad_utilities_rejected(utilities, match):
    with pytest.raises(ScenarioError, match=match):
        load_scenario(scenario(utilities=utilities))


def test_prior_on_the_boundary_of_a_game_rejected():
    # a prior of 0 or 1 makes no game, so it is a schema error once there are utilities
    assert load_scenario({"prior": 0, "sigma": [[1, 0], [0, 1]]}).game is None
    with pytest.raises(ScenarioError, match=r"scenario: prior must be interior to \(0, 1\)"):
        load_scenario(scenario(prior=0))


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
def test_unreadable_scenario_rejected(tmp_path, kind):
    path = tmp_path / "scenario.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf-8":
        path.write_bytes(b'\xff{"prior": 0.5}')
    with pytest.raises(ScenarioError, match=f"cannot read scenario '{path}'"):
        load_scenario(path)


@pytest.mark.parametrize("how", ["relative", "absolute", "path"])
def test_file_whose_name_starts_with_a_brace_is_read_as_a_file(tmp_path, monkeypatch, how):
    # only a string that names no file and starts with "{" is JSON text
    target = tmp_path / "{kg}.json"
    target.write_text(fixture_path("kg").read_text("utf-8"), "utf-8")
    monkeypatch.chdir(tmp_path)
    source = {"relative": "{kg}.json", "absolute": str(target), "path": target}[how]
    assert load_scenario(source).sigma.tolist() == load_fixture("kg").sigma.tolist()
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario("{kg}.jsn")
