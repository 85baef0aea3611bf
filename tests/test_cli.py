import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mediated_persuasion
from mediated_persuasion import check_equilibrium, load_scenario, vertex_profiles
from mediated_persuasion.cli import main

from conftest import FAMILY_EDGES, SRC, run_fresh

FIXTURES = Path(mediated_persuasion.__file__).parent / "fixtures"


def test_feasible_kg_prints_closed_rectangle_without_negative_zero(capsys):
    # kg's garbling is the identity, so the wings are the closed Bayes
    # rectangles on either side of the diagonal, with corners at the babbling
    # rows, full revelation (row 1) and its swap (row 2)
    assert main(["feasible", str(FIXTURES / "kg.json")]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert [r[:2] for r in rows] == [["vertex", ""]] * 4
    assert [tuple(float(c) for c in r[2:]) for r in rows] == [
        (0.3, 0.3, 1.0, 0.0), (0.0, 1.0, 0.7, 0.3), (1.0, 0.0, 0.3, 0.7), (0.3, 0.3, 0.0, 1.0)
    ]
    assert not any(cell.startswith("-0") for r in rows for cell in r[2:])


def write_scenario(tmp_path, **changes):
    doc = json.loads((FIXTURES / "kg.json").read_text())
    doc.update(changes)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_parser_is_built_once_and_carries_no_state(capsys):
    # main reuses one parser; a flag given to one call must not reach the next
    from mediated_persuasion import cli

    fig22 = str(FIXTURES / "fig22.json")
    argv = ["solve", fig22, "--mode", "check", "--x", "identity", "--sigma", "6/7,3/7;1/7,4/7"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True
    assert main(["solve", fig22, "--mode", "mediator-br"]) == 2
    assert "--mode mediator-br needs --x" in capsys.readouterr().err
    assert cli.build_parser() is cli.build_parser()


def test_exit_schema_on_sender_reply_to_three_signal_garbling(tmp_path, capsys):
    # the sender's best response is defined for 2x2 garblings only
    sigma = [["1/3", "1/9", "2/3"], ["1/3", "4/9", "1/3"], ["1/3", "4/9", "0"]]
    assert main(["solve", write_scenario(tmp_path, sigma=sigma), "--mode", "sender-br"]) == 2
    assert "expected a 2x2 garbling" in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"sigma": [[float("nan"), 0], [1, 1]]}, "bad number nan: not finite"),  # the JSON literal NaN
        ({"prior": float("inf")}, "bad number inf: not finite"),  # the JSON literal Infinity
        ({"prior": "1e400"}, "bad number '1e400'"),
        ({"prior": 10**400}, "bad number 1000"),
    ],
    ids=["nan-sigma", "infinite-prior", "fraction-too-large-for-a-float", "integer-too-large-for-a-float"],
)
def test_exit_schema_on_numbers_a_float_cannot_hold(tmp_path, capsys, changes, message):
    # a scenario number must be a finite float: NaN would otherwise reach the
    # report as the invalid JSON token NaN, and an overflow would escape as a
    # traceback
    assert main(["solve", write_scenario(tmp_path, **changes), "--mode", "sender-br"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_exit_ok_on_feasible(capsys):
    assert main(["feasible", str(FIXTURES / "kg.json")]) == 0


def test_exit_schema_on_unknown_top_level_key(tmp_path, capsys):
    assert main(["feasible", write_scenario(tmp_path, colour="red")]) == 2
    assert "unknown key(s) ['colour']" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", [[[0.9, 0.2], [0.1, 0.8]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]], ids=["2x2", "3x3"])
def test_exit_schema_on_feasible_at_a_degenerate_prior(sigma, tmp_path, capsys):
    # at a prior of 0 no belief can move, so the export writes no row at all
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"prior": 0, "sigma": sigma}))
    assert main(["feasible", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot spread beliefs" in captured.err


def test_exit_singular_on_rank_deficient_garbling(tmp_path, capsys):
    # one rank check for every number of signals: profile_member_many would
    # reject the vertex rows of a rank-deficient 3x3 as well
    singular = [
        ([["1/2", "1/2"], ["1/2", "1/2"]], "rank 1 < 2"),
        ([["1/2", "1/2", 0], ["1/2", "1/2", 0], [0, 0, 1]], "rank 2 < 3"),
    ]
    for sigma, rank in singular:
        assert main(["feasible", write_scenario(tmp_path, sigma=sigma)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and f"rank-deficient garbling: {rank}" in captured.err


def test_exit_refuted_on_failed_check(capsys):
    # full revelation through the identity is no equilibrium of kg: the
    # sender gains by pooling to the (0, 1/2) split
    argv = ["solve", str(FIXTURES / "kg.json"), "--mode", "check", "--x", "identity", "--sigma", "identity"]
    assert main(argv) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["verified"] is False
    assert report["witness"]["player"] == "sender"


# entries within TOL of the identity's, one of them below 0
EDGE_X = "1,-1e-10;0,1.0000000001"


@pytest.mark.parametrize("name", ["kg", "fig19", "fig20", "fig22"])
def test_experiment_with_an_entry_just_below_zero_is_solved(name, capsys):
    # the stochastic check admits the entry and the experiment is used as
    # given, so signal 1's posterior is clamped to 0 rather than falling just
    # below it, where no utility is defined: the mediator's reply is the
    # identity's, and the check refutes the profile with the identity's gaps
    # up to the entries' 1e-10 offset
    path = str(FIXTURES / f"{name}.json")
    reports = []
    for x in (EDGE_X, "identity"):
        assert main(["solve", path, "--mode", "mediator-br", "--x", x]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert main(["solve", path, "--mode", "check", "--x", x, "--sigma", "identity"]) == 4
        reports.append((reply, json.loads(capsys.readouterr().out)))
    (reply, check), (want_reply, want_check) = reports
    keys = ("tau", "value", "attained")
    assert [reply[k] for k in keys] == [want_reply[k] for k in keys]
    for gap in ("sender_gap", "mediator_gap"):
        assert abs(check[gap] - want_check[gap]) <= 2e-10


# Prior 2/5 sits on a kink of each mediator's concave envelope: the envelope's
# linear span through the prior starts at the prior, so its far end has no mass.
KINK_PRIOR = "2/5"
KINK_MEDIATOR = {"type": "pwl", "points": [[0, 0], ["2/5", 1], [1, 0]]}
KINK_SEARCH_SENDER = {"type": "pwl", "points": [[0, 3], ["13/20", 3], ["13/20", 0], [1, 0]]}
KINK_SEARCH_MEDIATOR = {
    "type": "pwl",
    "points": [[0, -2], ["2/5", -2], ["2/5", 1], ["1/2", 1], ["1/2", -2],
               ["4/5", -2], ["4/5", -1], [1, -1]],
}


def assert_garbling(matrix):
    m = np.array(matrix)
    assert m.shape == (2, 2)
    assert (m >= 0.0).all()
    assert np.abs(m.sum(axis=0) - 1.0).max() <= 1e-12


def test_mediator_reply_at_a_kink_of_its_envelope_is_a_garbling(tmp_path, capsys):
    flat = {"type": "pwl", "points": [[0, 0], [1, 0]]}
    path = write_scenario(tmp_path, prior=KINK_PRIOR, utilities={"sender": flat, "mediator": KINK_MEDIATOR})
    assert main(["solve", path, "--mode", "mediator-br", "--x", "identity"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert_garbling(report["sigma"])
    assert report["tau"] == [[0.4, 1.0]]
    # the flat sender never deviates, so the mediator's reply is the witness
    argv = ["solve", path, "--mode", "check", "--x", "identity", "--sigma", "identity"]
    assert main(argv) == 4
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness["player"] == "mediator"
    assert_garbling(witness["strategy"])


def test_search_with_the_prior_on_a_kink_of_the_mediator_envelope(tmp_path, capsys):
    utilities = {"sender": KINK_SEARCH_SENDER, "mediator": KINK_SEARCH_MEDIATOR}
    path = write_scenario(tmp_path, prior=KINK_PRIOR, utilities=utilities)
    assert main(["solve", path, "--mode", "search"]) == 0
    clusters = json.loads(capsys.readouterr().out)["clusters"]
    assert clusters
    game = load_scenario(path).game
    for cert in clusters:
        assert_garbling(cert["sigma"])
        assert check_equilibrium(game, cert["x"], cert["sigma"], tol=cert["tol"]).verified


def test_exit_tolerance_on_internal_assertion(monkeypatch, capsys):
    # a mean-preserving-spread witness that fails its own validation raises
    # AssertionError, which the CLI reports as exit code 5
    from mediated_persuasion import cli

    def fail(game):
        raise AssertionError("internal: MPS witness failed validation")

    monkeypatch.setattr(cli, "search_equilibria", fail)
    assert main(["solve", str(FIXTURES / "kg.json"), "--mode", "search"]) == cli.EXIT_TOLERANCE == 5
    assert "internal tolerance failure" in capsys.readouterr().err


def test_exit_schema_on_bad_search_grid_and_non_stochastic_sigma(tmp_path, capsys):
    # the loader rejects both, so neither reaches the solver and raises there
    for key in ("grid", "tol_search"):
        argv = ["solve", write_scenario(tmp_path, search={key: 0}), "--mode", "search"]
        assert main(argv) == 2
        assert f"unknown key(s) ['{key}'] in search" in capsys.readouterr().err
    argv = ["solve", write_scenario(tmp_path, sigma=[[2, 0], [-1, 1]]), "--mode", "sender-br"]
    assert main(argv) == 2
    assert "sigma is not column-stochastic" in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes",
    [
        {"utilities": {"sender": {"type": "pwl", "points": [[0], [1, 1]]}, "mediator": {"type": "pwl", "points": [[0, 0], [1, 1]]}}},
        {"utilities": {"sender": {"type": "pwl", "points": 5}, "mediator": {"type": "pwl", "points": [[0, 0], [1, 1]]}}},
        {"utilities": {"sender": {"type": "pwl", "points": [[1, 0], [0, 1]]}, "mediator": {"type": "pwl", "points": [[0, 0], [1, 1]]}}},
        {"utilities": {"sender": {"type": "pwl", "points": [[0, 0], [0.5, 1]]}, "mediator": {"type": "pwl", "points": [[0, 0], [1, 1]]}}},
        {"prior": 0},
        {"utilities": {"sender": {"type": "pwl", "points": [[0, 0], [1, 1]], "singletons": [[2, 1]]}, "mediator": {"type": "pwl", "points": [[0, 0], [1, 1]]}}},
        {"utilities": {p: {"type": "actions", "actions": ["a"], "payoffs": {q: [[0, 1]] for q in ("sender", "mediator", "receiver")}} for p in ("sender", "mediator")}},
        {"utilities": {p: {"type": "actions", "actions": ["a", "b"], "payoffs": {"sender": [[0, 1], [1, 0]], "mediator": [[0, 1], [1, 0]], "receiver": [[0, 1, 2], [1, 0, 2]]}} for p in ("sender", "mediator")}},
        "missing",
        "directory",
        "not-utf-8",
    ],
    ids=[
        "point-of-one-coordinate", "points-not-a-list", "decreasing-abscissas", "utility-short-of-one", "prior-zero-with-utilities",
        "singleton-at-two", "one-action", "receiver-table-of-three-columns", "missing-file", "directory", "not-utf-8",
    ],
)
def test_exit_schema_on_scenarios_the_loader_rejects(tmp_path, capsys, changes):
    # exit 1 is kept for a closed standard output: a scenario that cannot be
    # read or makes no game is a schema error, reported in one line
    if isinstance(changes, dict):
        path = write_scenario(tmp_path, **changes)
    else:
        path = tmp_path / "scenario.json"
        if changes == "directory":
            path.mkdir()
        elif changes == "not-utf-8":
            path.write_bytes(b"\xff{}")
    assert main(["solve", str(path), "--mode", "bp"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


KG = str(FIXTURES / "kg.json")
FIG18 = str(FIXTURES / "fig18.json")
FIG14 = str(FIXTURES / "fig14.json")


def test_feasible_csv_file_holds_the_bytes_printed(tmp_path, capsysbinary):
    # the rows are streamed to the file or to standard output, with the
    # same line endings
    out = tmp_path / "f18.csv"
    assert main(["feasible", FIG18, "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main(["feasible", FIG18]) == 0
    printed = capsysbinary.readouterr().out
    assert printed.count(b"\r\n") == printed.count(b"\n") > 1
    assert out.read_bytes() == printed


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", KG, "--mode", "sender-br", "--sigma", "2,0;-1,1"], "bad --sigma matrix"),
        (["solve", KG, "--mode", "check", "--x", "identity", "--sigma", "2,0;-1,1"], "bad --sigma matrix"),
        (["solve", KG, "--mode", "mediator-br", "--x", "1,0,0;0,1,1"], "bad --x matrix"),
        (["solve", KG, "--mode", "mediator-br", "--x", "1,0;0,1;0,0"], "--x must be 2x2, got 3x2"),
        (["solve", KG, "--mode", "mediator-br", "--x", "1e400,0;0,1"], "bad --x matrix"),
        (["order", "--a", "identity", "--b", "2,0;-1,1"], "bad --b matrix"),
        (["order", "--a", "1,0,0;0,1,0;0,0,1", "--b", "identity"], "Blackwell order needs two-state structures"),
        (["feasible", KG, "--out", "{tmp}/missing/x.csv"], "cannot write --out"),
        (["solve", KG, "--mode", "bp", "--out", "{tmp}"], "cannot write --out"),
        (["solve", KG, "--mode", "mediator-br", "--x", "1,0;0"], "ragged matrix"),
        (["solve", KG, "--mode", "mediator-br", "--x", "a,0;1,1"], "bad matrix entry"),
        (["solve", KG, "--mode", "mediator-br", "--x", "1/0,0;0,1"], "bad matrix entry"),
        (["solve", KG, "--mode", "check", "--x", "identity"], "needs --x and --sigma"),
        (["solve", KG, "--mode", "compare", "--sigma", "identity"], "needs --x and --sigma"),
        (["solve", FIG14, "--mode", "bp"], "needs a scenario with utilities"),
        (["order", "--a", "1,0;0", "--b", "identity"], "ragged matrix"),
    ],
    ids=[
        "sender-br-non-stochastic-sigma",
        "check-non-stochastic-sigma",
        "mediator-br-2x3-x",
        "mediator-br-3x2-x",
        "mediator-br-x-too-large-for-a-float",
        "order-non-stochastic-b",
        "order-three-states",
        "feasible-out-in-a-missing-directory",
        "solve-out-is-a-directory",
        "mediator-br-ragged-x",
        "mediator-br-x-entry-not-a-number",
        "mediator-br-x-entry-divides-by-zero",
        "check-without-sigma",
        "compare-without-x",
        "bp-without-utilities",
        "order-ragged-a",
    ],
)
def test_exit_schema_on_bad_command_line_input(argv, message, tmp_path, capsys):
    # "{tmp}" is a fresh directory; an --out path that cannot be opened is a
    # schema error, not exit 1, which is kept for a closed standard output
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flag, value",
    [("--resolution", "0"), ("--resolution", "-0.1"), ("--points", "1"), ("--points", "32")],
    ids=["feasible-zero-resolution", "feasible-negative-resolution", "feasible-one-point", "feasible-32-points"],
)
def test_feasible_sampling_flags_are_gone(flag, value, capsys):
    # the export is the exact vertex rows, so neither the sampling step
    # that --resolution set for m signals nor the parameters per boundary
    # curve that --points set for two have a meaning: argparse rejects
    # either flag (exit 2) whatever its value
    with pytest.raises(SystemExit) as exc:
        main(["feasible", KG if flag == "--points" else FIG18, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag} {value}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", ["kg", "fig14", "fig18", "fig19", "fig20", "fig22"])
def test_feasible_prints_the_vertex_rows(name, fmt, capsys):
    # every garbling size takes the one exact export: m^2 rows of m beliefs
    # and m probabilities, printed as vertex_profiles computes them
    path = str(FIXTURES / f"{name}.json")
    assert main(["feasible", path, "--format", fmt]) == 0
    out = capsys.readouterr().out
    rows = json.loads(out)["rows"] if fmt == "json" else _csv_cells(out)[1:]
    scenario = load_scenario(path)
    m = len(scenario.sigma)
    assert len(rows) == m * m and all(r[:2] == ["vertex", ""] and len(r) == 2 + 2 * m for r in rows)
    posteriors, probs = vertex_profiles(scenario.sigma, scenario.prior)
    assert [r[2:] for r in rows] == np.hstack([posteriors, probs]).tolist()


GOLDEN = Path(__file__).parent / "golden"


def assert_same_report(got, want, path="$"):
    """Equal structure and strings; floats within 1e-12."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_same_report(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_report(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12, path
    else:
        assert got == want, path


@pytest.mark.parametrize("name", ["kg", "fig19", "fig20", "fig22"])
def test_search_matches_golden_output(name, capsys):
    # search output recorded from the breakpoint-pair sweep
    assert main(["solve", str(FIXTURES / f"{name}.json"), "--mode", "search"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / f"search_{name}.json").read_text())
    assert_same_report(got, want)


def _csv_cells(text):
    """CSV rows with every cell that reads as a number turned into a float."""
    def cell(c):
        try:
            return float(c)
        except ValueError:
            return c
    return [[cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


@pytest.mark.parametrize("name", ["kg", "fig14", "fig19", "fig20", "fig22", "fig18"])
def test_feasible_matches_golden_output(name, capsys):
    # feasible CSV recorded before every Bayes update went through info._bayes;
    # fig18's file was re-recorded when its sampled cloud gave way to the nine
    # vertex rows, the others when the 2x2 export did the same with four (the
    # sampled export is kept as arcs_<name>.csv); fig14's and fig20's babbling
    # rows were re-recorded when a signal with equal likelihoods stopped
    # going through Bayes' rule, and read the prior and sigma's column exactly
    assert main(["feasible", str(FIXTURES / f"{name}.json")]) == 0
    got = _csv_cells(capsys.readouterr().out)
    want = _csv_cells((GOLDEN / f"feasible_{name}.csv").read_text())
    assert_same_report(got, want)


@pytest.mark.parametrize("family", sorted(FAMILY_EDGES))
@pytest.mark.parametrize("name", ["kg", "fig14", "fig19", "fig20", "fig22"])
def test_sampled_arcs_lie_on_the_parallelogram_edges(name, family):
    # arcs_<name>.csv is the 2x2 export before it became the vertex rows:
    # the families X1 to X4 at 32 parameters p, then the wing vertices. In
    # (prob, prob x belief) coordinates each family row away from the
    # uninformative point, whose probs that export split evenly, lies on its
    # edge of the vertex rows' parallelogram, at its own p up to the 10
    # digits printed
    scenario = load_scenario(str(FIXTURES / f"{name}.json"))
    posteriors, probs = vertex_profiles(scenario.sigma, scenario.prior)
    start, end = np.hstack([probs, probs * posteriors])[list(FAMILY_EDGES[family])]
    rows = [r for r in _csv_cells((GOLDEN / f"arcs_{name}.csv").read_text())[1:] if r[0] == family]
    assert len(rows) == 32
    on_edge = 0
    for _, p, b1, b2, prob1, prob2 in rows:
        if abs(b2 - b1) <= 1e-12:
            continue
        point = np.array([prob1, prob2, prob1 * b1, prob2 * b2])
        t = (point - start) @ (end - start) / ((end - start) @ (end - start))
        assert np.abs(start + t * (end - start) - point).max() <= 1e-12
        assert abs(t - p) <= 1e-10
        on_edge += 1
    assert on_edge >= 31


# Runs one command line through cli.main in a fresh interpreter and reports
# whether scipy was loaded after the imports and after the call.
SCIPY_PROBE = """
import json
import sys
from contextlib import redirect_stdout
from io import StringIO

import mediated_persuasion
import mediated_persuasion.cli as cli

loaded = ["scipy" in sys.modules]
with redirect_stdout(StringIO()) as out:
    rc = cli.main(sys.argv[1:])
loaded.append("scipy" in sys.modules)
print(json.dumps({"rc": rc, "loaded": loaded, "out": out.getvalue()}))
"""

FIG19 = str(FIXTURES / "fig19.json")
FIG22 = str(FIXTURES / "fig22.json")
FIG22_PROFILE = ["--x", "identity", "--sigma", "6/7,3/7;1/7,4/7"]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", FIG22, "--mode", "search"],
        ["solve", FIG22, "--mode", "check", *FIG22_PROFILE],
        ["solve", FIG22, "--mode", "bp"],
        ["solve", FIG22, "--mode", "sender-br"],
        ["solve", FIG22, "--mode", "mediator-br", "--x", "identity"],
        ["solve", FIG22, "--mode", "compare", *FIG22_PROFILE],
        ["feasible", FIG19],
        ["feasible", FIG18],
        ["order", "--a", "1/2,0;1/2,0;0,1", "--b", "1,0;0,1"],
    ],
    ids=[
        "search", "check", "bp", "sender-br", "mediator-br", "compare", "feasible-2x2", "feasible-3-signals",
        "order",
    ],
)
def test_modes_without_a_linear_program_never_import_scipy_optimize(argv):
    # no mode imports scipy, which would take most of a bare process's
    # start-up time and memory; the library needs only numpy
    report = json.loads(run_fresh(SCIPY_PROBE, *argv))
    assert report["rc"] == 0
    assert report["loaded"] == [False, False]


def test_order_of_a_three_signal_structure_needs_no_scipy():
    # a 3x2 structure and its 2x2 merge are equivalent: the curtain coupling
    # of their posteriors gives both garblings, without a linear program
    report = json.loads(run_fresh(SCIPY_PROBE, "order", "--a", "1/2,0;1/2,0;0,1", "--b", "1,0;0,1"))
    assert report["rc"] == 0
    assert report["loaded"] == [False, False]
    assert report["out"].splitlines() == [
        "a = 1/2,0;1/2,0;0,1",
        "b = 1,0;0,1",
        "equivalent",
        "gamma (gamma @ a = b):",
        "  1,1,0",
        "  0,0,1",
        "gamma_reverse (gamma @ b = a):",
        "  0.5,0",
        "  0.5,0",
        "  0,1",
    ]


def test_mp_threads_sizes_numpy_pools_on_package_import():
    # the thread pools are sized when numpy loads, which importing the
    # package does before the CLI module runs
    code = "import os, mediated_persuasion; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "MP_THREADS")}
    assert run_fresh(code, env=dict(env, MP_THREADS="3")).strip() == "3"


@pytest.mark.parametrize(
    "argv",
    [["solve", str(FIXTURES / "kg.json"), "--mode", "search"], ["feasible", "{large}", "--format", "json"]],
    ids=["search", "feasible-json"],
)
def test_closed_stdout_ends_quietly_after_writing_the_out_file(argv, tmp_path):
    # the reader closes its end before anything is written: the report still
    # reaches --out, and the CLI exits 1 without a traceback, for a short
    # report (search) and one larger than a pipe's buffer (feasible). "{large}"
    # is a seeded 12x12 garbling, whose 144 vertex rows exceed 64 KiB
    if "{large}" in argv:
        sigma = np.random.default_rng(0).dirichlet(np.ones(12), size=12).T
        argv = [a.replace("{large}", write_scenario(tmp_path, sigma=sigma.tolist())) for a in argv]
    out = tmp_path / "report.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mediated_persuasion.cli", *argv, "--out", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))),
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 1
    report = json.loads(out.read_text())
    assert report["spec_version"] == "1"
    if argv[0] == "feasible":
        assert len(report["rows"]) == 144 and out.stat().st_size > 64 * 1024
