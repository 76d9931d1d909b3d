"""Spans around calls into delib's layers, recorded from outside the package.

Every public function of a layer module is replaced by a wrapper that
records a span: its name, start, end and parent.  A name that another module
imported with ``from .x import f`` is rebound in that module as well, so the
wrapper sees every call.  Spans are kept in memory and written out when the
run ends; per-name totals, self times and counters are kept for the whole
run.  A span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import os
import sys
from time import perf_counter_ns

LAYERS = ("space", "linprog", "solvers", "dynamics", "grid", "generators", "instancefile", "cli")

# Constructors and accessors called far more often than they do work; their
# time stays in the span of the function that called them.
UNWRAPPED = frozenset(
    {
        "coalition_weight",
        "distance",
        "euclidean_point",
        "grid_point",
        "hypercube_point",
        "hypercube_point_from_set",
        "origin",
    }
)

# Spans kept for the dump; per-name totals keep counting past it.
SPAN_CAP = 100_000


class Tracer:
    """Span recorder; wrappers call straight through while ``enabled`` is off."""

    def __init__(self):
        self.enabled = False
        self.keep_spans = True
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack: list[list] = []  # [span id, child ns, layer]
        self._next_id = 0
        self._aggs: dict[str, list[int]] = {}  # name -> [calls, total, self, entered from outside]
        self.counters: dict[str, int] = {}

    def count(self, key: str, amount: int = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def take(self) -> dict:
        """Totals since the last take, as plain numbers; resets them."""
        stats = {name: list(agg) for name, agg in self._aggs.items()}
        stats["#counters"] = dict(self.counters)
        for agg in self._aggs.values():
            agg[:] = [0, 0, 0, 0]
        self.counters.clear()
        return stats

    def wrap(self, name: str, fn, hook=None):
        layer = name.split(".", 1)[0]
        agg = self._aggs.setdefault(name, [0, 0, 0, 0])
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0, layer]
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if parent is None or parent[2] != layer:
                    agg[3] += duration
                if parent is not None:
                    parent[1] += duration
                if tracer.keep_spans and len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((frame[0], -1 if parent is None else parent[0], name, start, end))
            if hook is not None:
                result = hook(tracer, args, kwargs, result, parent is None or parent[2] != layer)
            return result

        return traced

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(str(v) for v in span) + "\n")


# ---------------------------------------------------------------------------
# Counters read off arguments and results at the layer boundary.


def _lp_result(tracer, args, kwargs, result, outer):
    if result is not None:
        tracer.count("lp_feasible")
    return result


def _report_work(tracer, args, kwargs, result, outer):
    work = getattr(result, "work", None)
    if outer and work is not None:
        tracer.count("solver_work", work)
    return result


def _brute_masks(tracer, args, kwargs, result, outer):
    tracer.count("brute_masks", (1 << args[0].dim) - 1)
    return _report_work(tracer, args, kwargs, result, outer)


def _compromises(tracer, args, kwargs, result, outer):
    structure, k = args[1], args[2]
    m = len(structure)
    tracer.count("subsets_offered", sum(math.comb(m, ell) for ell in range(2, min(k, m) + 1)))
    tracer.count("compromises_found", len(result))
    return result


def _file_bytes(tracer, args, kwargs, result, outer):
    path = args[1] if len(args) > 1 else args[0]
    tracer.count("file_bytes", os.path.getsize(path))
    return result


def _wrap_oracle(tracer, args, kwargs, result, outer):
    oracle = tracer.wrap("generators.oracle", result.support_oracle)
    return dataclasses.replace(result, support_oracle=oracle)


def install(tracer: Tracer):
    """Wrap every public function of every layer and rebind imported names."""
    modules = {layer: sys.modules[f"delib.{layer}"] for layer in LAYERS}
    hooks = {
        "linprog.solve_lp_feasible_strict": _lp_result,
        "solvers.solve_hyp_bruteforce": _brute_masks,
        "dynamics.enumerate_compromises": _compromises,
        "instancefile.load": _file_bytes,
        "instancefile.save": _file_bytes,
        "generators.gen_euc_slow": _wrap_oracle,
        "generators.gen_hyp_slow": _wrap_oracle,
    }
    replaced = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if attr.startswith("_") or attr in UNWRAPPED:
                continue
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                hook = hooks.get(name)
                if hook is None and layer == "solvers" and attr.startswith("solve_"):
                    hook = _report_work
                replaced[value] = tracer.wrap(name, value, hook)
    for module in [sys.modules["delib"], *modules.values()]:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(module, attr, replaced[value])

    space, dynamics = modules["space"], modules["dynamics"]
    space._ApprovalTest.__call__ = tracer.wrap("space.approval", space._ApprovalTest.__call__)
    for cls in (dynamics.RandomScheduler, dynamics.AdversarialScheduler, dynamics.GreedyFastScheduler):
        cls.__call__ = tracer.wrap("dynamics.scheduler", cls.__call__)


# ---------------------------------------------------------------------------
# Per-layer figures.


def combine(setup: dict, rounds: dict, n_rounds: int) -> dict:
    """One setup pass plus the mean of one round."""
    out = {}
    for name in set(setup) | set(rounds):
        if name == "#counters":
            continue
        a = setup.get(name, [0, 0, 0, 0])
        b = rounds.get(name, [0, 0, 0, 0])
        out[name] = [x + y / n_rounds for x, y in zip(a, b)]
    counters = {}
    for key in set(setup["#counters"]) | set(rounds["#counters"]):
        counters[key] = setup["#counters"].get(key, 0) + rounds["#counters"].get(key, 0) / n_rounds
    out["#counters"] = counters
    return out


def layer_metrics(stats: dict) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead figures."""
    counters = stats["#counters"]

    def agg(name):
        return stats.get(name, [0, 0, 0, 0])

    def calls(*names):
        return sum(agg(n)[0] for n in names)

    def outer_s(*names):
        return sum(agg(n)[3] for n in names) / 1e9

    def mean(name, scale):
        c, total = agg(name)[0], agg(name)[1]
        return total / c / scale if c else 0.0

    def self_s(layer):
        return sum(v[2] for n, v in stats.items() if n.startswith(layer + ".")) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    lp_calls = calls("linprog.solve_lp_feasible_strict")
    offered = counters.get("subsets_offered", 0)
    masks = counters.get("brute_masks", 0)
    gen_names = [n for n in stats if n.startswith("generators.gen_") or n.startswith("generators.reduce_")]
    return {
        "space.approval_calls": calls("space.approval", "space.approves"),
        "space.approval_us": mean("space.approval", 1e3),
        "space.score_calls": calls("space.score"),
        "space.score_ms": mean("space.score", 1e6),
        "linprog.lp_calls": lp_calls,
        "linprog.lp_ms": mean("linprog.solve_lp_feasible_strict", 1e6),
        "linprog.lp_s": agg("linprog.solve_lp_feasible_strict")[1] / 1e9,
        "linprog.feasible_share": ratio(counters.get("lp_feasible", 0), lp_calls),
        "solvers.self_s": self_s("solvers"),
        "solvers.work": counters.get("solver_work", 0),
        "solvers.brute_ns_per_mask": ratio(agg("solvers.solve_hyp_bruteforce")[1], masks),
        "solvers.ilp_ms": mean("solvers.solve_hyp_popular_via_ilp", 1e6),
        "dynamics.validate_calls": calls("dynamics.validate_transition"),
        "dynamics.validate_us": mean("dynamics.validate_transition", 1e3),
        "dynamics.apply_us": mean("dynamics.apply_transition", 1e3),
        "dynamics.potential_us": mean("dynamics.potential", 1e3),
        "dynamics.trace_csv_s": agg("dynamics.trace_to_csv")[1] / 1e9,
        "dynamics.scheduler_s": agg("dynamics.scheduler")[1] / 1e9,
        "dynamics.subsets_offered": offered,
        "dynamics.compromises_found": counters.get("compromises_found", 0),
        "dynamics.candidate_yield": ratio(counters.get("compromises_found", 0), offered),
        "generators.oracle_calls": calls("generators.oracle"),
        "generators.oracle_us": mean("generators.oracle", 1e3),
        "generators.generate_s": outer_s(*gen_names),
        "generators.verify_s": outer_s("generators.verify_exp_compromise"),
        "grid.converge_s": agg("grid.grid_converge")[1] / 1e9,
        "grid.self_s": self_s("grid"),
        "instancefile.load_s": outer_s("instancefile.load", "instancefile.loads", "instancefile.from_document"),
        "instancefile.save_s": outer_s("instancefile.save", "instancefile.dumps", "instancefile.to_document"),
        "instancefile.bytes": counters.get("file_bytes", 0),
        "cli.self_s": self_s("cli"),
    }
