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

from conftest import SRC, run_fresh

FIXTURES = Path(mediated_persuasion.__file__).parent / "fixtures"


def test_feasible_kg_prints_closed_rectangle_without_negative_zero(capsys):
    # kg's garbling is the identity, so the wings are the closed Bayes
    # rectangles on either side of the diagonal
    assert main(["feasible", str(FIXTURES / "kg.json"), "--points", "32"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    vertices = {
        name: {(float(r[2]), float(r[3])) for r in rows if r[0] == name}
        for name in ("vertex_left", "vertex_right")
    }
    assert vertices["vertex_left"] == {(0.0, 0.3), (0.3, 0.3), (0.3, 1.0), (0.0, 1.0)}
    assert vertices["vertex_right"] == {(0.3, 0.0), (1.0, 0.0), (1.0, 0.3), (0.3, 0.3)}
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
    assert main(["feasible", str(FIXTURES / "kg.json"), "--points", "8"]) == 0


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
    path = write_scenario(tmp_path, sigma=[["1/2", "1/2"], ["1/2", "1/2"]])
    assert main(["feasible", path]) == 3
    assert "rank-deficient" in capsys.readouterr().err


def test_exit_refuted_on_failed_check(capsys):
    # full revelation through the identity is no equilibrium of kg: the
    # sender gains by pooling to the (0, 1/2) split
    argv = ["solve", str(FIXTURES / "kg.json"), "--mode", "check", "--x", "identity", "--sigma", "identity"]
    assert main(argv) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["verified"] is False
    assert report["witness"]["player"] == "sender"


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
        (["feasible", KG, "--points", "1"], "--points 1 must be at least 2"),
        (["feasible", KG, "--out", "{tmp}/missing/x.csv"], "cannot write --out"),
        (["solve", KG, "--mode", "bp", "--out", "{tmp}"], "cannot write --out"),
    ],
    ids=[
        "sender-br-non-stochastic-sigma",
        "check-non-stochastic-sigma",
        "mediator-br-2x3-x",
        "mediator-br-3x2-x",
        "mediator-br-x-too-large-for-a-float",
        "order-non-stochastic-b",
        "order-three-states",
        "feasible-one-point",
        "feasible-out-in-a-missing-directory",
        "solve-out-is-a-directory",
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
    "value", ["0", "-0.1"], ids=["feasible-zero-resolution", "feasible-negative-resolution"]
)
def test_feasible_resolution_flag_is_gone(value, capsys):
    # the m-signal export is the exact vertex rows, so the sampling step
    # that --resolution set has no meaning: argparse rejects the flag
    # (exit 2) whatever its value, once out of range as before
    with pytest.raises(SystemExit) as exc:
        main(["feasible", FIG18, "--resolution", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: --resolution {value}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_feasible_m_signals_prints_the_vertex_rows(fmt, capsys):
    assert main(["feasible", FIG18, "--format", fmt]) == 0
    out = capsys.readouterr().out
    rows = json.loads(out)["rows"] if fmt == "json" else _csv_cells(out)[1:]
    assert len(rows) == 9 and all(r[:2] == ["vertex", ""] and len(r) == 8 for r in rows)
    posteriors, probs = vertex_profiles(load_scenario(FIG18).sigma, 0.3)
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


@pytest.mark.parametrize(
    "name, flags",
    [(name, ["--points", "32"]) for name in ("kg", "fig14", "fig19", "fig20", "fig22")]
    + [("fig18", [])],
    ids=["kg", "fig14", "fig19", "fig20", "fig22", "fig18"],
)
def test_feasible_matches_golden_output(name, flags, capsys):
    # feasible CSV recorded before every Bayes update went through info._bayes;
    # the vertex rows of fig14, fig19, fig20 and fig22 were re-recorded when
    # the wings became their two boundary arcs; fig18's file was re-recorded
    # when its sampled cloud gave way to the nine vertex rows
    assert main(["feasible", str(FIXTURES / f"{name}.json"), *flags]) == 0
    got = _csv_cells(capsys.readouterr().out)
    want = _csv_cells((GOLDEN / f"feasible_{name}.csv").read_text())
    assert_same_report(got, want)


@pytest.mark.parametrize("points", [2, 3, 32, 100])
@pytest.mark.parametrize("name", ["kg", "fig14", "fig19", "fig20", "fig22"])
def test_feasible_wing_vertices_are_family_points(name, points, capsys):
    assert main(["feasible", str(FIXTURES / f"{name}.json"), "--points", str(points)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    family = {(r[2], r[3]) for r in rows if r[0].startswith("X")}
    assert len(family) <= 4 * points
    prior = load_scenario(str(FIXTURES / f"{name}.json")).prior
    for wing in ("vertex_left", "vertex_right"):
        vertices = [(r[2], r[3]) for r in rows if r[0] == wing]
        assert 0 < len(vertices) <= 2 * points
        assert any(float(b1) == float(b2) == prior for b1, b2 in vertices)
        for b1, b2 in vertices:
            assert (b1, b2) in family or float(b1) == float(b2) == prior


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
        ["feasible", FIG19, "--points", "32"],
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
    [["solve", str(FIXTURES / "kg.json"), "--mode", "search"], ["feasible", str(FIXTURES / "fig19.json"), "--format", "json"]],
    ids=["search", "feasible-json"],
)
def test_closed_stdout_ends_quietly_after_writing_the_out_file(argv, tmp_path):
    # the reader closes its end before anything is written: the report still
    # reaches --out, and the CLI exits 1 without a traceback, for a short
    # report (search) and one larger than a pipe's buffer (feasible)
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
    assert json.loads(out.read_text())["spec_version"] == "1"
