"""Command-line surface: feasible-set export, solving, Blackwell ordering.

Exit codes: 0 success, 1 standard output closed before the output was
written (the ``--out`` file, written first, is complete), 2 schema/parse
error, an unreadable scenario file or an ``--out`` path that cannot be
opened for writing, 3 rank-deficient garbling, 4
equilibrium check refuted, 5 internal tolerance failure. Reports are JSON
with a ``spec_version`` field; CSV rows are written as they are made, with
columns fixed as (family, p, b1, ..., bm, prob1, ..., probm). The
``feasible`` rows are the m^2 ``vertex`` rows of
``feasible.vertex_profiles``, with ``p`` empty, for two signals too: their
hull in (prob, prob x belief) coordinates is the feasible set, exactly.
``MP_THREADS``, when set, becomes the default of ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS``, which size numpy's
thread pools (applied on package import, see ``mediated_persuasion``); the
library starts no threads of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .errors import PersuasionError, ScenarioError, SingularGarbling
from .feasible import _require_full_rank, vertex_profiles
from .info import blackwell_compare, compose, induced_tau, validate_stochastic
from .scenarios import load_scenario
from .solver import (
    bp_solve,
    check_equilibrium,
    compare_outcomes,
    mediator_best_response,
    search_equilibria,
    sender_best_response,
)

SPEC_VERSION = "1"

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_SCHEMA = 2
EXIT_SINGULAR = 3
EXIT_REFUTED = 4
EXIT_TOLERANCE = 5


def parse_matrix_flag(text: str):
    """Parse 'a,b;c,d' with exact fractions; also: identity, uninformative."""
    if text == "identity":
        return [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    if text == "uninformative":
        return [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
    rows = []
    for row_text in text.strip().split(";"):
        row = []
        for cell in row_text.strip().split(","):
            try:
                row.append(Fraction(cell.strip()))
            except (ValueError, ZeroDivisionError) as exc:
                raise ScenarioError(f"bad matrix entry {cell!r}: {exc}") from None
        rows.append(row)
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ScenarioError(f"ragged matrix {text!r}")
    return rows


def format_matrix_flag(rows) -> str:
    """Inverse of :func:`parse_matrix_flag`; exact for fraction input."""
    return ";".join(",".join(str(c) for c in row) for row in rows)


def _checked_matrix(rows, flag: str, shape=None) -> np.ndarray:
    """Floats of a parsed matrix flag, checked to be column-stochastic.

    A bad matrix, an entry too large for a float, or a matrix of another
    ``shape`` than asked for, raises ``ScenarioError`` (exit code 2).
    """
    try:
        a = validate_stochastic([[float(c) for c in row] for row in rows])
    except (PersuasionError, OverflowError) as exc:
        raise ScenarioError(f"bad {flag} matrix: {exc}") from None
    if shape is not None and a.shape != shape:
        raise ScenarioError(f"{flag} must be {shape[0]}x{shape[1]}, got {a.shape[0]}x{a.shape[1]}")
    return a


def _tau_list(tau) -> list:
    return [[float(b), float(p)] for b, p in zip(tau.beliefs, tau.probs)]


def _mat_list(a) -> list:
    return [[float(v) for v in row] for row in np.asarray(a)]


def _open_out(path: str, **kwargs):
    """The ``--out`` file, opened for writing; a path that cannot be opened
    raises ``ScenarioError`` (exit code 2). Only the ``open`` is guarded: a
    closed standard output is an ``OSError`` too, and exits 1."""
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise ScenarioError(f"cannot write --out: {exc}") from None


def _emit(report: dict, out_path) -> None:
    text = json.dumps({"spec_version": SPEC_VERSION, **report}, sort_keys=True, indent=2)
    if out_path:
        with _open_out(out_path) as fh:
            fh.write(text + "\n")
    print(text)


def _certificate_report(cert) -> dict:
    rep = {
        "spec_version": SPEC_VERSION,
        "x": _mat_list(cert.x),
        "sigma": _mat_list(cert.sigma),
        "tau": _tau_list(cert.tau),
        "sender_value": cert.sender_value,
        "mediator_value": cert.mediator_value,
        "sender_gap": cert.sender_gap,
        "mediator_gap": cert.mediator_gap,
        "verified": cert.verified,
        "tol": cert.tol,
    }
    if cert.witness is not None:
        rep["witness"] = {
            "player": cert.witness.player,
            "strategy": _mat_list(cert.witness.strategy),
            "tau": _tau_list(cert.witness.tau),
            "value": cert.witness.value,
            "gain": cert.witness.gain,
        }
    return rep


def cmd_feasible(args) -> int:
    scenario = load_scenario(args.scenario)
    rows = _feasible_rows(scenario)
    if args.format == "json":
        report = {
            "prior": scenario.prior,
            "sigma": _mat_list(scenario.sigma),
            "rows": [list(r) for r in rows],
        }
        _emit(report, args.out)
        return EXIT_OK
    m = scenario.sigma.shape[0]
    with _open_out(args.out, newline="") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        w = csv.writer(fh)
        w.writerow(["family", "p", *(f"b{i + 1}" for i in range(m)), *(f"prob{i + 1}" for i in range(m))])
        w.writerows(rows)
    return EXIT_OK


def _feasible_rows(scenario):
    """The ``vertex`` rows of the ``feasible`` export, made one at a time.
    The rank check and the vertex profiles run here, so a garbling or prior
    they reject raises before any row is written."""
    _require_full_rank(scenario.sigma, square=True)
    posteriors, probs = vertex_profiles(scenario.sigma, scenario.prior)
    return (("vertex", "", *post, *prob) for post, prob in zip(posteriors.tolist(), probs.tolist()))


def _require_game(scenario):
    if scenario.game is None:
        raise ScenarioError("this mode needs a scenario with utilities")
    return scenario.game


def _outcome(res) -> dict:
    """The induced distribution, value and attainment of a best response."""
    return {"tau": _tau_list(res.tau), "value": res.value, "attained": res.attained}


def _profile_flags(args):
    """The (--x, --sigma) matrices of a check or a comparison."""
    if not args.x or not args.sigma:
        raise ScenarioError(f"--mode {args.mode} needs --x and --sigma")
    flags = ((args.x, "--x"), (args.sigma, "--sigma"))
    return tuple(_checked_matrix(parse_matrix_flag(text), flag, (2, 2)) for text, flag in flags)


def cmd_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    game = _require_game(scenario)
    mode, code = args.mode, EXIT_OK
    if mode == "bp":
        sol = bp_solve(game.u_sender, game.prior)
        rep = {"x": _mat_list(sol.strategy), **_outcome(sol)}
    elif mode == "sender-br":
        sigma = scenario.sigma
        if args.sigma:
            sigma = _checked_matrix(parse_matrix_flag(args.sigma), "--sigma", (2, 2))
        br = sender_best_response(game.u_sender, sigma, game.prior)
        rep = {"sigma": _mat_list(sigma), "x": _mat_list(br.strategy), **_outcome(br)}
    elif mode == "mediator-br":
        if not args.x:
            raise ScenarioError("--mode mediator-br needs --x")
        x = _checked_matrix(parse_matrix_flag(args.x), "--x", (2, 2))
        br = mediator_best_response(game.u_mediator, x, game.prior)
        rep = {"x": _mat_list(x), "sigma": _mat_list(br.strategy), **_outcome(br)}
    elif mode == "check":
        cert = check_equilibrium(game, *_profile_flags(args))
        rep, code = _certificate_report(cert), EXIT_OK if cert.verified else EXIT_REFUTED
    elif mode == "search":
        rep = {"clusters": [_certificate_report(c) for c in search_equilibria(game)]}
    elif mode == "compare":
        x, sigma = _profile_flags(args)
        tau_mp = induced_tau(compose(sigma, x), game.prior)
        tau_bp = bp_solve(game.u_sender, game.prior).tau
        cmp = compare_outcomes(game, tau_mp, tau_bp)
        rep = {
            "tau_mp": _tau_list(tau_mp),
            "tau_bp": _tau_list(tau_bp),
            "blackwell": cmp.blackwell,
            "welfare": cmp.welfare,
            "receiver_benefits": cmp.receiver_benefits,
        }
    else:
        raise ScenarioError(f"unknown mode {mode!r}")
    _emit({"mode": mode, **rep}, args.out)
    return code


def cmd_order(args) -> int:
    a = parse_matrix_flag(args.a)
    b = parse_matrix_flag(args.b)
    res = blackwell_compare(_checked_matrix(a, "--a"), _checked_matrix(b, "--b"))
    print(f"a = {format_matrix_flag(a)}")
    print(f"b = {format_matrix_flag(b)}")
    print(res.order.value)
    if res.to_second is not None:
        print("gamma (gamma @ a = b):")
        for row in res.to_second:
            print("  " + ",".join(f"{v:.12g}" for v in row))
    if res.to_first is not None:
        print("gamma_reverse (gamma @ b = a):")
        for row in res.to_first:
            print("  " + ",".join(f"{v:.12g}" for v in row))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``mpgame`` parser, built on first use and shared by later calls;
    each ``parse_args`` returns a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="mpgame",
        description="Feasible posteriors and equilibria for persuasion through a garbling mediator",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_f = sub.add_parser("feasible", help="export the vertex profiles whose hull is the feasible set")
    p_f.add_argument("scenario", help="scenario JSON file")
    p_f.add_argument("--out", default=None)
    p_f.add_argument("--format", choices=("csv", "json"), default="csv")
    p_f.set_defaults(func=cmd_feasible)

    p_s = sub.add_parser("solve", help="benchmark, best responses, check, search, compare")
    p_s.add_argument("scenario", help="scenario JSON file")
    p_s.add_argument(
        "--mode",
        required=True,
        choices=("bp", "sender-br", "mediator-br", "check", "search", "compare"),
    )
    p_s.add_argument("--x", default=None, help="experiment matrix 'a,b;c,d' (fractions ok)")
    p_s.add_argument("--sigma", default=None, help="garbling matrix 'a,b;c,d' (fractions ok)")
    p_s.add_argument("--out", default=None)
    p_s.set_defaults(func=cmd_solve)

    p_o = sub.add_parser("order", help="Blackwell-rank two two-state structures")
    p_o.add_argument("--a", required=True)
    p_o.add_argument("--b", required=True)
    p_o.set_defaults(func=cmd_order)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so the flush at exit
        # writes nowhere instead of failing again (the SIGPIPE note in the
        # Python docs of the signal module)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except SingularGarbling as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except AssertionError as exc:
        print(f"internal tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except PersuasionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    raise SystemExit(main())
