"""Scenario files: strict JSON schema for games, with exact fractions.

A scenario pins a prior, a garbling, optional utilities (piecewise-linear
graphs or a finite action game), search parameters and a seed. Numbers may
be given as JSON numbers or as fraction strings ("6/7"); fractions are
parsed exactly before conversion so the worked constants enter the library
unrounded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ScenarioError
from .payoffs import ActionGame, PiecewiseUtility, induce_belief_utilities
from .solver import GameSpec

_TOP_KEYS = {"prior", "sigma", "utilities", "search", "seed"}
_SEARCH_KEYS = {"grid", "tol_dev", "tol_search"}
_PLAYERS = ("sender", "mediator", "receiver")
_PWL_KEYS = {"type", "points", "singletons"}
_ACTION_KEYS = {"type", "actions", "payoffs"}

FIXTURE_NAMES = (
    "kg",
    "fig14",
    "fig18",
    "fig19",
    "fig20",
    "fig22",
)


def parse_number(value) -> float:
    """Accept ints, floats, and exact fraction strings like '6/7'."""
    if isinstance(value, bool):
        raise ScenarioError(f"expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"bad number {value!r}: {exc}") from None
    raise ScenarioError(f"expected a number, got {value!r}")


def parse_matrix(rows) -> np.ndarray:
    if not isinstance(rows, (list, tuple)) or not rows:
        raise ScenarioError("matrix must be a non-empty list of rows")
    parsed = []
    width = None
    for row in rows:
        if not isinstance(row, (list, tuple)) or (width is not None and len(row) != width):
            raise ScenarioError("matrix rows must be equal-length lists")
        width = len(row)
        parsed.append([parse_number(v) for v in row])
    return np.array(parsed, dtype=float)


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in {where}")


def parse_utility(obj: dict, where: str) -> dict:
    """Validate a single utility object; returns it unchanged."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ScenarioError(f"{where} must be an object with a 'type'")
    if obj["type"] == "pwl":
        _reject_unknown(obj, _PWL_KEYS, where)
        if "points" not in obj:
            raise ScenarioError(f"{where}: pwl utility needs 'points'")
    elif obj["type"] == "actions":
        _reject_unknown(obj, _ACTION_KEYS, where)
        for key in ("actions", "payoffs"):
            if key not in obj:
                raise ScenarioError(f"{where}: actions utility needs {key!r}")
        _reject_unknown(obj["payoffs"], set(_PLAYERS), f"{where}.payoffs")
    else:
        raise ScenarioError(f"{where}: unknown utility type {obj['type']!r}")
    return obj


def _build_pwl(obj: dict) -> PiecewiseUtility:
    points = [(parse_number(x), parse_number(y)) for x, y in obj["points"]]
    singles = [(parse_number(x), parse_number(y)) for x, y in obj.get("singletons", [])]
    return PiecewiseUtility.from_points(points, singletons=singles)


def _build_action_game(obj: dict) -> ActionGame:
    actions = tuple(obj["actions"])
    tables = {}
    for player in _PLAYERS:
        if player not in obj["payoffs"]:
            raise ScenarioError(f"actions payoffs missing {player!r}")
        tables[player] = parse_matrix(obj["payoffs"][player])
    return ActionGame(
        actions=actions,
        sender=tables["sender"],
        mediator=tables["mediator"],
        receiver=tables["receiver"],
    )


@dataclass(frozen=True, eq=False)
class Scenario:
    prior: float
    sigma: np.ndarray
    sigma_fractions: Optional[list]
    game: Optional[GameSpec]
    seed: int
    raw: dict

    @property
    def has_utilities(self) -> bool:
        return self.game is not None


def load_scenario(source) -> Scenario:
    """Parse a scenario from a dict, JSON string, or file path."""
    if isinstance(source, dict):
        doc = source
    else:
        text = Path(source).read_text() if not str(source).lstrip().startswith("{") else str(source)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "scenario")
    for key in ("prior", "sigma"):
        if key not in doc:
            raise ScenarioError(f"scenario missing required key {key!r}")
    prior = parse_number(doc["prior"])
    if not 0.0 <= prior <= 1.0:
        raise ScenarioError(f"prior {prior} outside [0, 1]")
    sigma = parse_matrix(doc["sigma"])
    if sigma.shape[0] != sigma.shape[1] or sigma.shape[0] < 2:
        raise ScenarioError(f"sigma must be square (m >= 2), got {sigma.shape}")
    search = doc.get("search", {})
    if not isinstance(search, dict):
        raise ScenarioError("'search' must be an object")
    _reject_unknown(search, _SEARCH_KEYS, "search")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScenarioError("'seed' must be an integer")

    game = None
    if "utilities" in doc:
        utils = doc["utilities"]
        if not isinstance(utils, dict):
            raise ScenarioError("'utilities' must be an object")
        _reject_unknown(utils, set(_PLAYERS), "utilities")
        for player in ("sender", "mediator"):
            if player not in utils:
                raise ScenarioError(f"utilities missing {player!r}")
        parsed = {p: parse_utility(utils[p], f"utilities.{p}") for p in utils}
        if any(u["type"] == "actions" for u in parsed.values()):
            bodies = [json.dumps(u, sort_keys=True) for u in parsed.values()]
            if any(u["type"] != "actions" for u in parsed.values()) or len(set(bodies)) != 1:
                raise ScenarioError(
                    "an 'actions' utility describes the whole game; give the "
                    "identical object for every player"
                )
            u_s, u_m, u_r = induce_belief_utilities(
                _build_action_game(next(iter(parsed.values())))
            )
        else:
            u_s = _build_pwl(parsed["sender"])
            u_m = _build_pwl(parsed["mediator"])
            u_r = _build_pwl(parsed["receiver"]) if "receiver" in parsed else None
        kwargs = {}
        if "grid" in search:
            kwargs["grid"] = parse_number(search["grid"])
        if "tol_dev" in search:
            kwargs["tol_dev"] = parse_number(search["tol_dev"])
        if "tol_search" in search:
            kwargs["tol_search"] = parse_number(search["tol_search"])
        game = GameSpec(
            prior=prior, u_sender=u_s, u_mediator=u_m, u_receiver=u_r,
            seed=seed, **kwargs,
        )

    fracs = None
    try:
        fracs = [[Fraction(str(v)) for v in row] for row in doc["sigma"]]
    except (ValueError, ZeroDivisionError):
        pass
    return Scenario(
        prior=prior, sigma=sigma, sigma_fractions=fracs, game=game,
        seed=seed, raw=doc,
    )


def fixture_path(name: str) -> Path:
    """Path of a packaged scenario (name without the .json suffix)."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; have {FIXTURE_NAMES}")
    return Path(str(resources.files("mediated_persuasion").joinpath("fixtures", f"{name}.json")))


def load_fixture(name: str) -> Scenario:
    return load_scenario(fixture_path(name))
