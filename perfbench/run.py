"""Benchmark of the mediated_persuasion library through its ``mpgame`` CLI.

Run from the repository root, for example:

    python3 perfbench/run.py --workload search-polish --seed 1 --seconds 45 --trace 0

Each workload is a closed loop: one client in this process sends the next
``mpgame`` command line to ``mediated_persuasion.cli.main`` once the last one
has returned, and the workload's oracle checks the captured output. Passes
over the workload's operations repeat until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics: set-up time (median over fresh
processes), median pass latency, peak RSS and the share of operations that
passed their oracle. ``--trace 1`` is a separate run that alternates
untraced passes with passes traced by ``spans.Tracer`` and reports the
per-layer metrics. The last line of standard output is the JSON result;
``--out FILE`` also appends a full record for ``perfbench/diff.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = SRC / "mediated_persuasion" / "fixtures"
# One client and 2x2 linear algebra: extra BLAS threads only add noise.
THREADS = "1"
SETUP_PROBES = 9
# functions whose calls the traced run also counts per operation
PER_OP_CALLS = ("solver.check_equilibrium", "solver.sender_best_response", "solver.mediator_best_response")

SETUP_PROBE = """
import sys
from time import perf_counter
t0 = perf_counter()
import mediated_persuasion.cli
from mediated_persuasion.scenarios import load_scenario
for path in sys.argv[1:]:
    load_scenario(path)
print(perf_counter() - t0)
"""


def setup_seconds(scenarios) -> list[float]:
    """Import the CLI and load the workload's scenarios in fresh processes."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, *map(str, scenarios)],
            cwd=ROOT, env=dict(os.environ, MP_THREADS=THREADS, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_op(cli, op, tracer=None):
    """Time one CLI call, then run its oracle. Returns (seconds, verdict)."""
    from workloads import verdict

    buf = StringIO()
    if tracer is not None:
        tracer.install()
    try:
        start = perf_counter()
        try:
            with redirect_stdout(buf), redirect_stderr(StringIO()):
                rc = cli.main(op.argv)
        except (Exception, SystemExit) as exc:  # the CLI must return an exit code
            return perf_counter() - start, f"wrong: {op.label}: raised {exc!r}"
        elapsed = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return elapsed, verdict(op, rc, buf.getvalue())


def run_pass(cli, ops, tracer=None):
    """Returns op times, verdicts and, when traced, the span calls per op label."""
    times, verdicts, calls = [], [], {}
    for op in ops:
        first = len(tracer.spans) if tracer else 0
        t, v = run_op(cli, op, tracer)
        times.append(t)
        verdicts.append(v)
        if tracer:
            per_op = calls.setdefault(op.label, Counter())
            per_op.update(name for name, *_ in tracer.spans[first:] if name in PER_OP_CALLS)
    return times, verdicts, calls


@dataclass
class Measured:
    op_s: list = field(default_factory=list)  # per untraced pass: seconds of each op
    traced_pass_s: list = field(default_factory=list)
    layers: list = field(default_factory=list)  # per traced pass: Tracer.summary()
    verdicts: list = field(default_factory=list)  # every op run, traced or not
    first_spans: list = field(default_factory=list)
    calls_by_op: dict = field(default_factory=dict)  # first traced pass


def measure(cli, workload, seconds: float, tracer=None) -> Measured:
    """Passes until ``seconds`` elapse: another pass starts only while at least
    half of the median pass time remains, so a run of long passes ends near
    ``seconds`` instead of one pass after it. With a tracer, untraced and
    traced passes over the same inputs alternate."""
    start = perf_counter()
    m, laps = Measured(), []
    while True:
        lap = perf_counter()
        times, v, _ = run_pass(cli, workload.ops)
        m.op_s.append(times)
        m.verdicts += v
        if tracer is not None:
            tracer.reset()
            times, v, calls = run_pass(cli, workload.ops, tracer)
            m.traced_pass_s.append(sum(times))
            m.verdicts += v
            m.layers.append(tracer.summary())
            if len(m.layers) == 1:
                m.first_spans, m.calls_by_op = tracer.spans, calls
        now = perf_counter()
        laps.append(now - lap)
        if now - start + statistics.median(laps) / 2 >= seconds:
            return m


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "threads": {k: os.environ.get(k) for k in
                    ("MP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("search-polish", "search-grid"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record of this run to this JSON-lines file")
    ap.add_argument("--spans", help="write the spans of the first traced pass to this JSON file")
    args = ap.parse_args(argv)

    if not (SRC / "mediated_persuasion" / "cli.py").is_file():
        print(f"perfbench: no library source under {SRC}", file=sys.stderr)
        return 2
    os.environ["MP_THREADS"] = THREADS  # read by the CLI before numpy starts its pools
    sys.path.insert(0, str(SRC))
    import mediated_persuasion.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported {cli.__file__}, not the library under {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    workload = workloads.build(args.workload, args.seed, FIXTURES)
    tracer = spans.Tracer() if args.trace else None
    setup = [] if args.trace else setup_seconds(workload.scenarios)
    m = measure(cli, workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [v for v in m.verdicts if not v.startswith("ok")]
    correct = not any(v.startswith("wrong") for v in m.verdicts)
    pass_times = [sum(times) for times in m.op_s]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = spans.layer_metrics(m.layers, m.traced_pass_s, pass_times, len(m.first_spans))
        units = {x["name"]: x["unit"] for x in benchmark["per_layer"]}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s.p50": statistics.median(pass_times),
            "peak_rss_mb": peak_rss_mb,
            "ok_rate": 1.0 - len(failures) / len(m.verdicts),
        }
        units = {x["name"]: x["unit"] for x in benchmark["end_to_end"]}
    result = {
        "correct": correct,
        "attempted": len(m.verdicts),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }

    env = environment(args.seed)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"untraced passes={len(m.op_s)} {json.dumps(env)}")
    if not args.trace:
        print(f"# fail_rate={len(failures) / len(m.verdicts):.4g} setup_s samples={len(setup)} "
              f"pass_s samples={len(pass_times)}")
    for reason in sorted(set(failures)):
        print(f"# x{failures.count(reason)} {reason}")
    for label, calls in sorted(m.calls_by_op.items()):
        if calls:
            print(f"# calls in {label}: " + " ".join(f"{k}={calls[k]}" for k in PER_OP_CALLS))
    for k, v in metrics.items():
        print(f"# {k:45s} {v:14.6g} {units[k]}")
    if args.out:
        record = {"workload": args.workload, "trace": args.trace, "env": env, "result": result,
                  "op_s": m.op_s, "setup_s": setup, "calls_by_op": m.calls_by_op}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    if args.spans and tracer is not None:
        with open(args.spans, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "spans": m.first_spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
