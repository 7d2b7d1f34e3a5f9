"""Span recorder installed on aptbot from outside, by replacing names.

A wrapper replaces a function under every name an aptbot module bound it
to (`aptbot.agent.parse_plan`, `aptbot.prompts.complete`, ...), so calls
made inside the package are seen without changing it. Each span holds a
name, start, end, parent span and request number; spans are kept in
memory in flat arrays and written out at the end. A layer's self time is
its span's duration minus the time its child spans cover. Hot helpers
(travel time, clock parsing) are only counted, not timed.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

# Span name -> (module defining the function, attribute).
SPANS = {
    "agent.handle_request": ("aptbot.agent", "handle_request"),
    "prompts.classify_request": ("aptbot.prompts", "classify_request"),
    "prompts.build_few_shot_prompt": ("aptbot.prompts", "build_few_shot_prompt"),
    "prompts.parse_goal_slots": ("aptbot.prompts", "parse_goal_slots"),
    "gateway.complete": ("aptbot.gateway", "complete"),
    "gateway.render_history": ("aptbot.gateway", "render_history"),
    "plan.parse_plan": ("aptbot.plan", "parse_plan"),
    "plan.normalize": ("aptbot.plan", "normalize"),
    "plan.serialize_plan": ("aptbot.plan", "serialize_plan"),
    "validator.validate": ("aptbot.validator", "validate"),
    "simulator.execute": ("aptbot.simulator", "execute"),
    "simulator.render_event_log": ("aptbot.simulator", "render_event_log"),
    "oracle.plan_oracle": ("aptbot.oracle", "plan_oracle"),
    "world.read_sensors": ("aptbot.world", "read_sensors"),
    "scenario.parse_scenario": ("aptbot.scenario", "parse_scenario"),
    "cli.render_transcript": ("aptbot.cli", "render_transcript"),
}
# Span name -> (module, class, method).
METHOD_SPANS = {
    "gateway.generate": ("aptbot.gateway", "ScriptedBackend", "generate"),
    "scenario.make_backend": ("aptbot.scenario", "Scenario", "make_backend"),
}
COUNTERS = {
    "world.travel_time": ("aptbot.world", "travel_time"),
    "world.item_location": ("aptbot.world", "item_location"),
    "clock.parse_clock": ("aptbot.clock", "parse_clock"),
    "clock.format_clock": ("aptbot.clock", "format_clock"),
}


def _observe_outcome(tracer, args, kwargs, outcome):
    tracer.add("agent.attempts", outcome.attempts)
    tracer.add("agent.fulfilled", outcome.status == "fulfilled")


def _observe_history(tracer, args, kwargs, messages):
    session = args[0]
    kept = (len(messages) - (session.pinned is not None)) // 2
    tracer.add("gateway.history_pairs", kept)
    tracer.add("gateway.dropped_pairs", len(session.turns) // 2 - kept)


def _observe_generate(tracer, args, kwargs, reply):
    tracer.add("gateway.prompt_tokens", sum((len(m.content) + 3) // 4 for m in args[1]))


def _observe_parse(tracer, args, kwargs, plan):
    tracer.add("plan.actions", len(plan.actions))


def _observe_normalize(tracer, args, kwargs, plan):
    tracer.add("plan.inserted_moves", len(plan.actions) - len(args[0].actions))


def _observe_validate(tracer, args, kwargs, result):
    tracer.add("validator.actions", len(args[0].actions))
    if not result.ok:
        tracer.add("validator.rejects", 1)
        tracer.add("validator.violations", len(result.violations))


def _observe_execute(tracer, args, kwargs, log):
    tracer.add("simulator.events", len(log.events))
    tracer.add("simulator.faults", log.outcome != "completed")


OBSERVERS = {
    "agent.handle_request": _observe_outcome,
    "gateway.render_history": _observe_history,
    "gateway.generate": _observe_generate,
    "plan.parse_plan": _observe_parse,
    "plan.normalize": _observe_normalize,
    "validator.validate": _observe_validate,
    "simulator.execute": _observe_execute,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.raised = array("b")
        self.sums: dict[str, float] = {}
        self.request_no = -1  # spans before the first request belong to set-up
        self._stack: list[int] = []

    def begin_request(self) -> None:
        self.request_no += 1

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0) + value

    def span(self, name: str, fn, observe=None):
        name_id = len(self.names)
        self.names.append(name)
        start, end, names = self.start, self.end, self.name
        parent, request, raised, stack = self.parent, self.request, self.raised, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            request.append(self.request_no)
            raised.append(0)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[index] = 1
                raise
            finally:
                end[index] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def counter(self, name: str, fn):
        sums = self.sums
        sums[name] = 0

        def counted(*args, **kwargs):
            sums[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Replace every aptbot binding of each traced function."""
        targets = [*SPANS.items(), *COUNTERS.items()]
        for _, (module, _) in targets:
            importlib.import_module(module)
        modules = [m for name, m in sys.modules.items() if name.startswith("aptbot")]
        for name, (module, attr) in targets:
            original = getattr(importlib.import_module(module), attr)
            if name in COUNTERS:
                wrapper = self.counter(name, original)
            else:
                wrapper = self.span(name, original, OBSERVERS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for name, (module, cls_name, attr) in METHOD_SPANS.items():
            cls = getattr(importlib.import_module(module), cls_name)
            setattr(cls, attr, self.span(name, getattr(cls, attr), OBSERVERS.get(name)))

    def aggregate(self) -> dict:
        """Per span name: calls, calls that raised, total and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        spans: dict[str, list] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = spans.setdefault(self.names[self.name[i]], [0, 0, 0.0, 0.0])
            row[0] += 1
            row[1] += self.raised[i]
            row[2] += dur
            row[3] += dur - child[i]
        return {"spans": spans, "sums": dict(self.sums)}

    def write(self, path: str) -> None:
        """Spans as gzip'd tab-separated rows; times in µs from the first span."""
        base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tparent\trequest\tname\tstart_us\tend_us\traised\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.request[i]}\t{self.names[self.name[i]]}\t"
                    f"{(self.start[i] - base) * 1e6:.3f}\t{(self.end[i] - base) * 1e6:.3f}\t"
                    f"{self.raised[i]}\n"
                )


def merge(parts: list[dict]) -> dict:
    """Sum the aggregates of several traced processes."""
    spans: dict[str, list] = {}
    sums: dict[str, float] = {}
    for part in parts:
        for name, row in part["spans"].items():
            acc = spans.setdefault(name, [0, 0, 0.0, 0.0])
            for i, v in enumerate(row):
                acc[i] += v
        for key, value in part["sums"].items():
            sums[key] = sums.get(key, 0) + value
    return {"spans": spans, "sums": sums}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(agg: dict, ops: int) -> dict[str, tuple[float, float]]:
    """Per-layer metric -> (value, base); base 0 means the layer did no work.

    Times are self times, in µs per call unless the name says otherwise;
    `*_per_request` divides by the operations of the run.
    """
    spans, sums = agg["spans"], agg["sums"]

    def calls(name):
        return spans.get(name, [0, 0, 0.0, 0.0])[0]

    def self_us(name):
        row = spans.get(name, [0, 0, 0.0, 0.0])
        return (_ratio(row[3], row[0]) * 1e6, row[0])

    def per(key, base_name=None, base=None):
        base = calls(base_name) if base is None else base
        return (_ratio(sums.get(key, 0), base), base)

    def raised_share(name):
        row = spans.get(name, [0, 0, 0.0, 0.0])
        return (_ratio(row[1], row[0]), row[0])

    requests = calls("agent.handle_request")
    attempts = sums.get("agent.attempts", 0)
    parses = calls("plan.parse_plan") - spans.get("plan.parse_plan", [0, 0])[1]
    rejects = sums.get("validator.rejects", 0)
    render = spans.get("cli.render_transcript", [0, 0, 0.0, 0.0])
    render_log = spans.get("simulator.render_event_log", [0, 0, 0.0, 0.0])
    scenario_parse = self_us("scenario.parse_scenario")
    return {
        "agent.self_us": self_us("agent.handle_request"),
        "agent.plan_attempts_per_request": per("agent.attempts", base=requests),
        "agent.useful_attempt_ratio": (_ratio(sums.get("agent.fulfilled", 0), attempts), attempts),
        "agent.goal_repairs_per_request": (
            _ratio(spans.get("prompts.parse_goal_slots", [0, 0])[1], requests), requests),
        "prompts.classify_self_us": self_us("prompts.classify_request"),
        "prompts.build_us": self_us("prompts.build_few_shot_prompt"),
        "prompts.parse_goal_slots_us": self_us("prompts.parse_goal_slots"),
        "gateway.complete_self_us": self_us("gateway.complete"),
        "gateway.render_history_us": self_us("gateway.render_history"),
        "gateway.backend_us": self_us("gateway.generate"),
        "gateway.prompt_tokens_per_call": per("gateway.prompt_tokens", "gateway.generate"),
        "gateway.history_pairs_per_call": per("gateway.history_pairs", "gateway.render_history"),
        "gateway.dropped_pairs_per_call": per("gateway.dropped_pairs", "gateway.render_history"),
        "plan.parse_us": self_us("plan.parse_plan"),
        "plan.parse_error_share": raised_share("plan.parse_plan"),
        "plan.normalize_us": self_us("plan.normalize"),
        "plan.inserted_moves_per_call": per("plan.inserted_moves", "plan.normalize"),
        "plan.serialize_us": self_us("plan.serialize_plan"),
        "plan.actions_per_plan": per("plan.actions", base=parses),
        "validator.validate_us": self_us("validator.validate"),
        "validator.actions_per_call": per("validator.actions", "validator.validate"),
        "validator.reject_share": per("validator.rejects", "validator.validate"),
        "validator.violations_per_reject": per("validator.violations", base=rejects),
        "simulator.execute_us": self_us("simulator.execute"),
        "simulator.events_per_call": per("simulator.events", "simulator.execute"),
        "simulator.fault_share": per("simulator.faults", "simulator.execute"),
        "oracle.unsat_share": raised_share("oracle.plan_oracle"),
        "world.travel_time_calls_per_request": per("world.travel_time", base=ops),
        "world.item_location_calls_per_request": per("world.item_location", base=ops),
        "world.read_sensors_us": self_us("world.read_sensors"),
        "clock.parse_calls_per_request": per("clock.parse_clock", base=ops),
        "clock.format_calls_per_request": per("clock.format_clock", base=ops),
        "scenario.parse_ms": (scenario_parse[0] / 1e3, scenario_parse[1]),
        "scenario.make_backend_us": self_us("scenario.make_backend"),
        "cli.render_us": (_ratio(render[3] + render_log[3], ops) * 1e6, render[0]),
    }
