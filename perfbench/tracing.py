"""Span recording for the benchmark's traced run.

The benchmark wraps each public function of the simulator where its caller
looks it up, runs the workload in-process, and keeps one span per call in
memory: name, start, end and parent span.  Nothing inside ``src/`` knows
about tracing.  A span's self time is its duration minus the durations of
its direct children; spans nest strictly because the simulator is
single-threaded.
"""

from __future__ import annotations

import logging
from array import array
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter

from nanogrid_ems import cli, controller, engine, fuzzy, model, profiles


class Tracer:
    """Spans of one traced pass, stored column-wise to keep memory small."""

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        # Per-call data some metrics need, as (span index, data) by span name.
        self.notes: dict[str, list] = defaultdict(list)
        self._stack = [-1]

    def wrap(self, name, fn, note=None):
        """Return ``fn`` recording a span per call; ``note(args, result)`` adds data."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, notes = self._stack, self.notes[name]

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if note is not None:
                notes.append((i, note(args, result)))
            return result

        return traced

    def __len__(self):
        return len(self.names)

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self, durations: list[float]) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = list(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[i]
        return own

    def enclosing(self, name: str) -> list[int]:
        """For every span, its nearest ancestor-or-self called ``name``, or -1.

        Parents are recorded before their children, so one forward pass suffices.
        """
        owner = [-1] * len(self.names)
        for i, (span, parent) in enumerate(zip(self.names, self.parents)):
            owner[i] = i if span == name else (owner[parent] if parent >= 0 else -1)
        return owner

    def totals(self, start: int = 0, stop: int | None = None):
        """Call counts, total and self seconds by span name over spans [start, stop)."""
        durations = self.durations()
        own = self.self_times(durations)
        calls, total, self_total = Counter(), defaultdict(float), defaultdict(float)
        for i in range(start, len(self.names) if stop is None else stop):
            name = self.names[i]
            calls[name] += 1
            total[name] += durations[i]
            self_total[name] += own[i]
        return calls, total, self_total


class RecordCounter(logging.Handler):
    """Counts the log records that reach it."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def emit(self, record):
        self.count += 1


@contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each (owner, attr, value); restore on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def fired_terms(system, x1: float, x2: float) -> set[str]:
    """Output terms with positive strength in ``system.infer(x1, x2)``.

    Uses only the public ``fuzzify`` and ``rules``, so the count stays
    valid whatever ``infer`` does inside.
    """
    in1, in2 = system.inputs
    degrees = {in1.name: fuzzy.fuzzify(in1, x1), in2.name: fuzzy.fuzzify(in2, x2)}
    fired = set()
    for rule in system.rules:
        clause = [degrees[var][term] for var, term in rule.antecedent]
        activation = min(clause) if rule.connective == fuzzy.AND else max(clause)
        if rule.weight * activation > 0.0:
            fired.add(rule.consequent)
    return fired


class TracedRun:
    """One traced pass: while active, every layer's public functions record spans."""

    def __init__(self):
        self.tracer = Tracer()
        self.soc_clamps = RecordCounter()
        self.marks: dict[str, tuple[int, int]] = {}  # invocation -> span range
        self._exit = ExitStack()

    def _replacements(self):
        wrap = self.tracer.wrap
        fuzzy_ems, proportional_ems = controller.FuzzyEms, controller.ProportionalEms
        # Each function is replaced where its caller looks it up.
        return [
            (cli, "main", wrap("cli.main", cli.main)),
            (cli, "load_scenario", wrap("profiles.load_scenario", cli.load_scenario)),
            (
                profiles,
                "load_profile",
                wrap(
                    "profiles.load_profile",
                    profiles.load_profile,
                    note=lambda args, result: (str(args[0]), result.t_s.size),
                ),
            ),
            (
                profiles,
                "render_trace",
                wrap("profiles.render_trace", profiles.render_trace),
            ),
            (
                cli,
                "write_outputs",
                wrap(
                    "profiles.write_outputs",
                    cli.write_outputs,
                    note=lambda args, result: sum(p.stat().st_size for p in result),
                ),
            ),
            (
                cli,
                "run_scenario",
                wrap(
                    "engine.run_scenario",
                    cli.run_scenario,
                    note=lambda args, result: (args[0].controller, len(result)),
                ),
            ),
            (cli, "summarize", wrap("engine.summarize", cli.summarize)),
            (
                engine,
                "make_controller",
                wrap("controller.make_controller", engine.make_controller),
            ),
            (fuzzy_ems, "step", wrap("controller.step", fuzzy_ems.step)),
            (proportional_ems, "step", wrap("controller.step", proportional_ems.step)),
            (
                fuzzy.FuzzySystem,
                "infer",
                wrap("fuzzy.infer", fuzzy.FuzzySystem.infer, note=lambda args, _: args),
            ),
            (engine, "grid_step", wrap("model.grid_step", engine.grid_step)),
            (
                engine,
                "battery_soc_update",
                wrap("model.battery_soc_update", engine.battery_soc_update),
            ),
        ]

    def __enter__(self):
        self._exit.enter_context(patched(self._replacements()))
        logger = logging.getLogger(model.__name__)
        logger.addHandler(self.soc_clamps)
        self._exit.callback(logger.removeHandler, self.soc_clamps)
        return self

    def __exit__(self, *exc_info):
        return self._exit.__exit__(*exc_info)

    def mark(self, label: str, first_span: int) -> None:
        """Attribute the spans recorded since ``first_span`` to one invocation."""
        self.marks[label] = (first_span, len(self.tracer))

    def span_total(self, name: str, label: str) -> float:
        """Seconds in spans called ``name`` during the invocation ``label``."""
        _, total, _ = self.tracer.totals(*self.marks[label])
        return total[name]

    def multi_term_calls(self) -> int:
        """``infer`` calls in which at least two output terms fired."""
        memo, count = {}, 0
        for _, (system, x1, x2) in self.tracer.notes["fuzzy.infer"]:
            key = (id(system), x1, x2)  # the notes keep every system alive
            if key not in memo:
                memo[key] = len(fired_terms(system, x1, x2)) >= 2
            count += memo[key]
        return count

    def metrics(self) -> dict:
        """Per-layer metrics of this pass: counts are ints, times floats."""
        calls, total, own = self.tracer.totals()
        notes = self.tracer.notes
        main_of = self.tracer.enclosing("cli.main")
        rows_parsed = sum(rows for _, (_, rows) in notes["profiles.load_profile"])
        # Re-parsing a file within one invocation is waste; across separate
        # CLI processes it is not.
        distinct = {
            (main_of[i], source): rows
            for i, (source, rows) in notes["profiles.load_profile"]
        }
        infer_calls = calls["fuzzy.infer"]
        return {
            "cli.main_s": total["cli.main"],
            "cli.self_s": own["cli.main"],
            "profiles.load_scenario_s": total["profiles.load_scenario"],
            "profiles.load_profile_calls": calls["profiles.load_profile"],
            "profiles.load_profile_s": total["profiles.load_profile"],
            "profiles.rows_parsed": rows_parsed,
            "profiles.rows_parsed_per_distinct_row": rows_parsed / sum(distinct.values()),
            "profiles.render_trace_s": total["profiles.render_trace"],
            "profiles.write_outputs_self_s": own["profiles.write_outputs"],
            "profiles.bytes_written": sum(n for _, n in notes["profiles.write_outputs"]),
            "engine.steps": sum(steps for _, (_, steps) in notes["engine.run_scenario"]),
            "engine.run_scenario_s": total["engine.run_scenario"],
            "engine.run_scenario_self_s": own["engine.run_scenario"],
            "engine.summarize_s": total["engine.summarize"],
            "controller.make_controller_s": total["controller.make_controller"],
            "controller.step_calls": calls["controller.step"],
            "controller.step_s": total["controller.step"],
            "controller.step_self_s": own["controller.step"],
            "fuzzy.infer_calls": infer_calls,
            "fuzzy.infer_s": total["fuzzy.infer"],
            "fuzzy.infer_mean_us": (
                1e6 * total["fuzzy.infer"] / infer_calls if infer_calls else 0.0
            ),
            "fuzzy.infer_multi_term_calls": self.multi_term_calls(),
            "model.grid_step_calls": calls["model.grid_step"],
            "model.grid_step_s": total["model.grid_step"],
            "model.soc_update_s": total["model.battery_soc_update"],
            "model.soc_clamps": self.soc_clamps.count,
        }

    def count_problems(self, metrics: dict) -> list[str]:
        """Check call counts against the simulated step counts."""
        problems = []
        run_of = self.tracer.enclosing("engine.run_scenario")
        infer_per_run = Counter(run_of[i] for i, _ in self.tracer.notes["fuzzy.infer"])
        for i, (kind, steps) in self.tracer.notes["engine.run_scenario"]:
            expected = 2 * steps if kind == "flc" else 0
            if infer_per_run[i] != expected:
                problems.append(
                    f"{kind} run of {steps} steps made {infer_per_run[i]} infer calls,"
                    f" expected {expected}"
                )
        for name in ("controller.step_calls", "model.grid_step_calls"):
            if metrics[name] != metrics["engine.steps"]:
                problems.append(
                    f"{name} = {metrics[name]} but engine.steps = {metrics['engine.steps']}"
                )
        return problems
