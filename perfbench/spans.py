"""Span recording around the public entry points of each printplan module.

The package imports its functions by name (``from .simplex import
solve_lp``), so a wrapper installed only on ``printplan.simplex`` would
never see the calls made from ``printplan.solver`` or
``printplan.oracle``.  ``Tracer.install`` therefore replaces every
attribute that is the original function object, in every loaded
``printplan`` module and in the benchmark modules that call the package,
and ``uninstall`` puts the originals back.

Spans stay in memory as ``[id, parent, name, start, end, info]`` lists
and are written out once, when the run ends.  The parent is the span
open when the call began.  One stack serves every thread: the benchmark
is a closed loop with one request in flight, and the CLI's sweep runs its
cells in a one-worker pool while the calling thread waits, so calls never
interleave.
"""

from __future__ import annotations

import json
import sys
import time

# (span name, module, attribute, annotate).  The first dotted part of the
# span name is the layer.  ``annotate(args, kwargs, result)`` returns the
# counters kept on the span.
TARGETS = (
    ("simplex.solve_lp", "printplan.simplex", "solve_lp",
     lambda a, k, r: {"pivots": r.iterations, "cold": k.get("start") is None,
                      "status": r.status.value}),
    ("solver.solve_milp", "printplan.solver", "solve_milp",
     lambda a, k, r: {"nodes": r.node_count, "status": r.status.value}),
    ("model.build_model", "printplan.model", "build_model", None),
    ("model.inject_epsilon", "printplan.model", "inject_epsilon", None),
    ("model.cap_objective", "printplan.model", "cap_objective", None),
    ("model.dense_rows", "printplan.model", "MilpModel.dense_rows", None),
    ("pareto.pareto_front", "printplan.pareto", "pareto_front",
     lambda a, k, r: {"points": len(r.points)}),
    ("oracle.brute_force", "printplan.oracle", "brute_force", None),
    ("oracle.single_batch_oracle", "printplan.oracle", "single_batch_oracle", None),
    ("evaluate.decode", "printplan.evaluate", "decode", None),
    ("evaluate.evaluate", "printplan.evaluate", "evaluate", None),
    ("evaluate.check_feasible", "printplan.evaluate", "check_feasible", None),
    ("cli.run_sweep", "printplan.cli", "run_sweep", None),
    ("cli.write", "printplan.cli", "_write_rows", None),
    ("cli.write", "printplan.evaluate", "write_schedule_csv", None),
    ("cli.write", "printplan.pareto", "write_front_csv", None),
    ("cli.write", "printplan.pareto", "write_front_gnuplot", None),
    ("datasets.load_builtin", "printplan.datasets", "load_builtin", None),
    ("datasets.random_instance", "printplan.datasets", "random_instance", None),
    ("datasets.part_prefix", "printplan.datasets", "part_prefix", None),
    ("datasets.with_machine_count", "printplan.datasets", "with_machine_count", None),
    ("instance.validate", "printplan.instance", "validate", None),
)

# the command bodies (``solve``, ``pareto``, ``scenario``, ``sweep``) are
# the callbacks of the click group's commands
COMMAND_SPAN = "cli.command"


class Tracer:
    """Collects one span per call into the patched functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, annotate):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if annotate is not None:
                span[5] = annotate(args, kwargs, result)
            return result

        return traced

    def install(self, *callers) -> None:
        """Patch every printplan module, plus ``callers`` that import from it."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "printplan" or key.startswith("printplan.")] + list(callers)
        for name, module_name, attr, annotate in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(original, name, annotate))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, annotate)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        for command in sys.modules["printplan.cli"].main.commands.values():
            self._patch(command, "callback", command.callback,
                        self._wrap(command.callback, COMMAND_SPAN, None))

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def records(self):
        for sid, parent, name, start, end, info in self.spans:
            record = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
            record.update(info or {})
            yield record


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one pass, from its spans.

    A span's self time is its duration minus its direct children's
    durations; a layer's time is the sum of its spans' self times.
    """
    child_time = [0.0] * len(spans)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for sid, _, name, start, end, _ in spans:
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[sid])
        calls[name] = calls.get(name, 0) + 1

    def layer_s(layer):
        return sum(v for k, v in self_s.items() if k.split(".")[0] == layer)

    def has_ancestor(span, names):
        parent = span[1]
        while parent >= 0:
            if spans[parent][2] in names:
                return True
            parent = spans[parent][1]
        return False

    def parent_name(span):
        return spans[span[1]][2] if span[1] >= 0 else ""

    lps = [s for s in spans if s[2] == "simplex.solve_lp"]
    milps = [s for s in spans if s[2] == "solver.solve_milp"]
    pivots = sum(s[5]["pivots"] for s in lps)
    nodes = sum(s[5]["nodes"] for s in milps)
    # every node LP after the root is warm-started from its parent; cold
    # LPs inside solve_milp are the root and the warm-start polish solves
    child_lps = sum(1 for s in lps if not s[5]["cold"] and parent_name(s) == "solver.solve_milp")
    milp_wall = sum(s[4] - s[3] for s in milps)
    builds = ("model.build_model", "model.inject_epsilon", "model.cap_objective")
    oracles = ("oracle.brute_force", "oracle.single_batch_oracle")
    front_solves = sum(1 for s in milps if has_ancestor(s, ("pareto.pareto_front",)))
    points = sum(s[5]["points"] for s in spans if s[2] == "pareto.pareto_front")
    drivers = ("pareto.pareto_front", "cli.run_sweep")
    cli_self = sum(
        (s[4] - s[3]) - sum(c[4] - c[3] for c in spans if c[1] == s[0] and c[2] in drivers)
        for s in spans if s[2] == COMMAND_SPAN
    )

    def share(part, whole):
        return part / whole if whole else 0.0

    return {
        "simplex.lp_calls": len(lps),
        "simplex.pivots": pivots,
        "simplex.pivots_per_lp": share(pivots, len(lps)),
        "simplex.self_s": layer_s("simplex"),
        "simplex.us_per_pivot": share(layer_s("simplex") * 1e6, pivots),
        "simplex.cold_share": share(sum(1 for s in lps if s[5]["cold"]), len(lps)),
        "simplex.infeasible_share": share(
            sum(1 for s in lps if s[5]["status"] == "infeasible"), len(lps)),
        "solver.milp_calls": len(milps),
        "solver.nodes": nodes,
        "solver.self_s": layer_s("solver"),
        "solver.prop_prunes": nodes - len(milps) - child_lps,
        "solver.nodes_per_s": share(nodes, milp_wall),
        "model.build_calls": sum(calls.get(n, 0) for n in builds),
        "model.build_s": sum(self_s.get(n, 0.0) for n in builds),
        "model.dense_rows_calls": calls.get("model.dense_rows", 0),
        "model.dense_rows_s": self_s.get("model.dense_rows", 0.0),
        "pareto.milp_solves": front_solves,
        "pareto.points": points,
        "pareto.point_yield": share(points, front_solves),
        "pareto.self_s": layer_s("pareto"),
        "oracle.calls": sum(calls.get(n, 0) for n in oracles),
        "oracle.self_s": layer_s("oracle"),
        "oracle.timing_lps": sum(1 for s in lps if parent_name(s) in oracles),
        "evaluate.calls": sum(calls.get(n, 0) for n in ("evaluate.decode", "evaluate.evaluate",
                                                       "evaluate.check_feasible")),
        "evaluate.s": layer_s("evaluate"),
        "cli.self_s": cli_self,
        "cli.write_s": self_s.get("cli.write", 0.0),
        "datasets.s": layer_s("datasets"),
        "instance.validate_calls": calls.get("instance.validate", 0),
    }


def solve_nodes(spans: list[list]) -> list[int]:
    """Node count of every MILP solve, in call order."""
    return [s[5]["nodes"] for s in spans if s[2] == "solver.solve_milp"]


def write_jsonl(path, tracers) -> None:
    with open(path, "w") as out:
        for number, tracer in tracers:
            for record in tracer.records():
                out.write(json.dumps({"pass": number, **record}) + "\n")


# counts that depend only on the commit and the pinned BLAS, never on timing
EXACT_COUNTS = ("solver.nodes", "simplex.pivots", "simplex.lp_calls",
                "pareto.milp_solves", "oracle.timing_lps")

UNITS = {
    "simplex.lp_calls": "count",
    "simplex.pivots": "count",
    "simplex.pivots_per_lp": "count",
    "simplex.self_s": "s",
    "simplex.us_per_pivot": "us",
    "simplex.cold_share": "share",
    "simplex.infeasible_share": "share",
    "solver.milp_calls": "count",
    "solver.nodes": "count",
    "solver.self_s": "s",
    "solver.prop_prunes": "count",
    "solver.nodes_per_s": "1/s",
    "model.build_calls": "count",
    "model.build_s": "s",
    "model.dense_rows_calls": "count",
    "model.dense_rows_s": "s",
    "pareto.milp_solves": "count",
    "pareto.points": "count",
    "pareto.point_yield": "share",
    "pareto.self_s": "s",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "oracle.timing_lps": "count",
    "evaluate.calls": "count",
    "evaluate.s": "s",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "datasets.s": "s",
    "instance.validate_calls": "count",
    "trace.overhead_s": "s",
}
