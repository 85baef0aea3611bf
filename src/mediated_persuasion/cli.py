"""Command-line surface: feasible-set export, solving, Blackwell ordering.

Exit codes: 0 success, 2 schema/parse error, 3 rank-deficient garbling,
4 equilibrium check refuted, 5 internal tolerance failure. Reports are
JSON with a ``spec_version`` field; CSV columns are fixed as
(family, p, b1, b2, prob1, prob2). ``MP_THREADS`` caps worker threads.
"""

from __future__ import annotations

import os

if os.environ.get("MP_THREADS"):  # must land before numpy spins up its pools
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["MP_THREADS"])

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

import numpy as np

from .errors import PersuasionError, ScenarioError, SingularGarbling
from .feasible import boundary_curves, sample_feasible_general, wing_polygons
from .info import blackwell_compare, BlackwellOrder, induced_tau, validate_stochastic
from .scenarios import load_scenario, parse_number
from .solver import (
    CLUSTER_RADIUS,
    bp_solve,
    check_equilibrium,
    compare_outcomes,
    mediator_best_response,
    search_equilibria,
    sender_best_response,
)

SPEC_VERSION = "1"

EXIT_OK = 0
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


def _matrix_floats(rows) -> np.ndarray:
    return np.array([[float(c) for c in row] for row in rows])


def _tau_list(tau) -> list:
    return [[float(b), float(p)] for b, p in zip(tau.beliefs, tau.probs)]


def _mat_list(a) -> list:
    return [[float(v) for v in row] for row in np.asarray(a)]


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


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
    rows = []
    if scenario.sigma.shape == (2, 2):
        fs = wing_polygons(scenario.sigma, scenario.prior, args.points)
        curves = boundary_curves(scenario.sigma, scenario.prior, args.points)
        for fam in sorted(curves):
            c = curves[fam]
            for p, (b1, b2) in zip(c.params, c.points):
                p1, p2 = _pair_probs(b1, b2, scenario.prior)
                rows.append((fam, f"{p:.10g}", b1, b2, p1, p2))
        for name, wing in (("vertex_left", fs.left), ("vertex_right", fs.right)):
            for b1, b2 in wing:
                p1, p2 = _pair_probs(b1, b2, scenario.prior)
                rows.append((name, "", b1, b2, p1, p2))
    else:
        cloud = sample_feasible_general(scenario.sigma, scenario.prior, args.resolution)
        for post, prob in zip(cloud.posteriors, cloud.probs):
            rows.append(
                ("sample", "")
                + tuple(float(v) for v in post)
                + tuple(float(v) for v in prob)
            )
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        if scenario.sigma.shape == (2, 2):
            w.writerow(["family", "p", "b1", "b2", "prob1", "prob2"])
        else:
            m = scenario.sigma.shape[0]
            w.writerow(
                ["family", "p"]
                + [f"b{i+1}" for i in range(m)]
                + [f"prob{i+1}" for i in range(m)]
            )
        w.writerows(rows)
        text = buf.getvalue()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        report = {
            "spec_version": SPEC_VERSION,
            "prior": scenario.prior,
            "sigma": _mat_list(scenario.sigma),
            "rows": [list(r) for r in rows],
        }
        _emit(report, args.out)
    return EXIT_OK


def _pair_probs(b1: float, b2: float, prior: float):
    lo, hi = min(b1, b2), max(b1, b2)
    if hi - lo <= 1e-12:
        return 0.5, 0.5
    w2 = (prior - b1) / (b2 - b1)
    w2 = min(max(w2, 0.0), 1.0) + 0.0  # 0 / negative width gives -0.0
    return 1.0 - w2, w2


def _require_game(scenario):
    if scenario.game is None:
        raise ScenarioError("this mode needs a scenario with utilities")
    return scenario.game


def cmd_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    game = _require_game(scenario)
    mode = args.mode
    if mode == "bp":
        sol = bp_solve(game.u_sender, game.prior)
        _emit(
            {
                "spec_version": SPEC_VERSION,
                "mode": "bp",
                "tau": _tau_list(sol.tau),
                "value": sol.value,
                "x": _mat_list(sol.x),
            },
            args.out,
        )
        return EXIT_OK
    if mode == "sender-br":
        sigma = _matrix_floats(parse_matrix_flag(args.sigma)) if args.sigma else scenario.sigma
        br = sender_best_response(
            game.u_sender, sigma, game.prior, game.br_points, game.interior_step
        )
        _emit(
            {
                "spec_version": SPEC_VERSION,
                "mode": "sender-br",
                "sigma": _mat_list(sigma),
                "x": _mat_list(br.strategy),
                "tau": _tau_list(br.tau),
                "value": br.value,
            },
            args.out,
        )
        return EXIT_OK
    if mode == "mediator-br":
        if not args.x:
            raise ScenarioError("--mode mediator-br needs --x")
        x = _matrix_floats(parse_matrix_flag(args.x))
        br = mediator_best_response(game.u_mediator, x, game.prior)
        _emit(
            {
                "spec_version": SPEC_VERSION,
                "mode": "mediator-br",
                "x": _mat_list(x),
                "sigma": _mat_list(br.strategy),
                "tau": _tau_list(br.tau),
                "value": br.value,
            },
            args.out,
        )
        return EXIT_OK
    if mode == "check":
        if not args.x or not args.sigma:
            raise ScenarioError("--mode check needs --x and --sigma")
        x = _matrix_floats(parse_matrix_flag(args.x))
        sigma = _matrix_floats(parse_matrix_flag(args.sigma))
        cert = check_equilibrium(game, x, sigma)
        rep = _certificate_report(cert)
        rep["mode"] = "check"
        _emit(rep, args.out)
        return EXIT_OK if cert.verified else EXIT_REFUTED
    if mode == "search":
        certs = search_equilibria(game)
        rep = {
            "spec_version": SPEC_VERSION,
            "mode": "search",
            "grid": game.grid,
            "tol_search": game.tol_search,
            "cluster_tolerance": CLUSTER_RADIUS,
            "clusters": [_certificate_report(c) for c in certs],
        }
        _emit(rep, args.out)
        return EXIT_OK
    if mode == "compare":
        if not args.x or not args.sigma:
            raise ScenarioError("--mode compare needs --x and --sigma")
        x = _matrix_floats(parse_matrix_flag(args.x))
        sigma = _matrix_floats(parse_matrix_flag(args.sigma))
        tau_mp = induced_tau(validate_stochastic(sigma @ x), game.prior)
        sol = bp_solve(game.u_sender, game.prior)
        rep = compare_outcomes(game, tau_mp, sol.tau)
        _emit(
            {
                "spec_version": SPEC_VERSION,
                "mode": "compare",
                "tau_mp": _tau_list(tau_mp),
                "tau_bp": _tau_list(sol.tau),
                "blackwell": rep.blackwell,
                "welfare": rep.welfare,
                "receiver_benefits": rep.receiver_benefits,
            },
            args.out,
        )
        return EXIT_OK
    raise ScenarioError(f"unknown mode {mode!r}")


def cmd_order(args) -> int:
    a = parse_matrix_flag(args.a)
    b = parse_matrix_flag(args.b)
    res = blackwell_compare(_matrix_floats(a), _matrix_floats(b))
    verdict = {
        BlackwellOrder.DOMINATES: "dominates",
        BlackwellOrder.DOMINATED_BY: "dominated",
        BlackwellOrder.EQUIVALENT: "equivalent",
        BlackwellOrder.UNRANKED: "unranked",
    }[res.order]
    print(f"a = {format_matrix_flag(a)}")
    print(f"b = {format_matrix_flag(b)}")
    print(verdict)
    if res.to_second is not None:
        print("gamma (gamma @ a = b):")
        for row in res.to_second:
            print("  " + ",".join(f"{v:.12g}" for v in row))
    if res.to_first is not None:
        print("gamma_reverse (gamma @ b = a):")
        for row in res.to_first:
            print("  " + ",".join(f"{v:.12g}" for v in row))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mpgame",
        description="Feasible posteriors and equilibria for persuasion through a garbling mediator",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_f = sub.add_parser("feasible", help="export boundary curves and wing polygons")
    p_f.add_argument("scenario", help="scenario JSON file")
    p_f.add_argument("--points", type=int, default=256)
    p_f.add_argument("--resolution", type=float, default=0.05, help="simplex grid step for 3+ signals")
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

    p_o = sub.add_parser("order", help="Blackwell-rank two structures")
    p_o.add_argument("--a", required=True)
    p_o.add_argument("--b", required=True)
    p_o.set_defaults(func=cmd_order)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
