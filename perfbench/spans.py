"""Span tracing of the library's layers, applied from outside the library.

The tracer wraps the public functions of ``solver``, ``feasible``,
``payoffs``, ``scenarios`` and ``info`` (plus ``PiecewiseUtility.eval_many``
and ``cli.main``) in every package namespace that holds them. Modules import
each other's functions by name (``solver`` calls its own binding of
``companion_slices``), so patching only the defining module would miss those
calls. Of ``cli`` only ``main`` is wrapped: its self time is then the CLI's own
work, argument parsing and CSV/JSON emission.

Each wrapped call records a span ``(name, start, end, parent)`` in memory;
hooks add counts taken from the call's result. Nothing is written until the
caller asks for the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("solver", "feasible", "payoffs", "scenarios", "info")
PACKAGE = "mediated_persuasion"

# counts beyond calls, taken from each call's result
HOOKS = {
    "solver.check_equilibrium": lambda r: {"verified": int(r.verified)},
    "solver.search_equilibria": lambda r: {"certificates": len(r)},
    "feasible.ordered_member_many": lambda r: {"pairs": int(r.size)},
    "payoffs.eval_many": lambda r: {"points": int(r.size)},
}


def _targets():
    """(span name, owner, attribute) for every binding to wrap."""
    modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS + ("cli",)}
    package = importlib.import_module(PACKAGE)
    names = {}  # id(function) -> span name
    for layer in LAYERS:
        mod = modules[layer]
        for name, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                names[id(fn)] = f"{layer}.{name}"
    names[id(modules["cli"].main)] = "cli.main"
    out = []
    for owner in list(modules.values()) + [package]:
        for attr, value in vars(owner).items():
            if id(value) in names:
                out.append((names[id(value)], owner, attr))
    out.append(("payoffs.eval_many", modules["payoffs"].PiecewiseUtility, "eval_many"))
    return out


class Tracer:
    """Records spans of wrapped calls while installed; single-threaded."""

    def __init__(self):
        self._targets = _targets()
        self._wrappers = {}
        self._saved = []
        self._stack: list[int] = []
        self.spans: list = []
        self.counts: dict[str, Counter] = defaultdict(Counter)

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(Counter)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack  # reset() rebinds spans
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if hook is not None:
                self.counts[name].update(hook(result))
            return result

        return traced

    def install(self) -> None:
        for name, owner, attr in self._targets:
            fn = vars(owner)[attr]
            if id(fn) not in self._wrappers:
                self._wrappers[id(fn)] = self._wrap(name, fn)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrappers[id(fn)])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, call durations, counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for sid, (name, start, end, _) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
            s["calls"] += 1
            s["s"] += end - start
            s["self_s"] += end - start - child[sid]
            s["durations"].append(end - start)
        for name, counts in self.counts.items():
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}).update(counts)
        return out


def layer_metrics(passes: list[dict], traced_pass_s: list[float], untraced_pass_s: list[float],
                  n_spans: int) -> dict[str, float]:
    """Per-layer metrics from the summaries of the traced passes.

    Counts come from the first traced pass, so they repeat exactly for a
    given seed; times are medians over the traced passes. Function-level
    times are reported only for functions that every workload calls, and
    each layer's self time covers the rest, so no time reads 0 by design.
    ``solver.search_equilibria.self_s`` is search time outside the wrapped
    calls: the grid tables, the coarse filter and clustering.
    """
    first = passes[0]

    def count(name, key="calls"):
        return float(first.get(name, {}).get(key, 0))

    def seconds(name, key="s"):
        return statistics.median(p.get(name, {}).get(key, 0.0) for p in passes)

    def layer_self_s(layer):
        return statistics.median(
            sum(v["self_s"] for k, v in p.items() if k.startswith(layer + ".")) for p in passes
        )

    durations = [d for p in passes for d in p.get("solver.sender_best_response", {}).get("durations", [])]
    checks = count("solver.check_equilibrium")
    m = {
        "solver.sender_best_response.calls": count("solver.sender_best_response"),
        "solver.sender_best_response.s": seconds("solver.sender_best_response"),
        "solver.sender_best_response.p50_ms": 1e3 * statistics.median(durations) if durations else 0.0,
        "solver.check_equilibrium.calls": checks,
        "solver.check_equilibrium.s": seconds("solver.check_equilibrium"),
        "solver.check_equilibrium.verified_ratio":
            count("solver.check_equilibrium", "verified") / checks if checks else 0.0,
        "solver.mediator_best_response.calls": count("solver.mediator_best_response"),
        "solver.mediator_best_response.s": seconds("solver.mediator_best_response"),
        "solver.search_equilibria.calls": count("solver.search_equilibria"),
        "solver.search_equilibria.s": seconds("solver.search_equilibria"),
        "solver.search_equilibria.self_s": seconds("solver.search_equilibria", "self_s"),
        "solver.search_equilibria.certificates": count("solver.search_equilibria", "certificates"),
        "payoffs.concavify.calls": count("payoffs.concavify"),
        "payoffs.concavify.s": seconds("payoffs.concavify"),
        "payoffs.eval_many.calls": count("payoffs.eval_many"),
        "payoffs.eval_many.points": count("payoffs.eval_many", "points"),
        "payoffs.eval_many.s": seconds("payoffs.eval_many"),
        "feasible.companion_slices.calls": count("feasible.companion_slices"),
        "feasible.companion_slices.s": seconds("feasible.companion_slices"),
        "feasible.ordered_member_many.calls": count("feasible.ordered_member_many"),
        "feasible.ordered_member_many.pairs": count("feasible.ordered_member_many", "pairs"),
        "feasible.ordered_member_many.s": seconds("feasible.ordered_member_many"),
        "feasible.boundary_curves.calls": count("feasible.boundary_curves"),
        "feasible.boundary_curves.s": seconds("feasible.boundary_curves"),
        "scenarios.load_scenario.s": seconds("scenarios.load_scenario"),
        "cli.main.self_s": seconds("cli.main", "self_s"),
        "trace.pass_s.p50": statistics.median(traced_pass_s),
        "trace.overhead_s": statistics.median(traced_pass_s) - statistics.median(untraced_pass_s),
        "trace.spans": float(n_spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self_s(layer)
    return m
