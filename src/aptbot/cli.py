"""Command-line interface: repl, run, and validate subcommands.

Exit codes: 0 success, 1 domain failure (violations found, or a scenario
request not fulfilled), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .agent import FULFILLED, RequestOutcome, check_plan, handle_request
from .clock import format_clock
from .gateway import (
    Backend, BackendError, ChatMessage, default_model_from_env, http_backend_from_env,
)
from .plan import PlanParseError, action_phrase, serialize_plan
from .prompts import GoalSlotError, ScaffoldMarkerError, parse_goal_slots
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .simulator import render_event_log
from .world import WorldError, ZArmState

# Everything a command raises for bad input: a file, a scenario section, a
# plan, a goal or the environment. Anything else is a fault in the program
# and keeps its traceback.
INPUT_ERRORS = (
    ScenarioError, GoalSlotError, PlanParseError, WorldError, BackendError, OSError, UnicodeError,
)


def render_transcript(turns: list[ChatMessage]) -> str:
    """Chat turns as labeled blocks, byte-stable for golden comparison."""
    if not turns:
        return ""
    blocks = [f"=== {m.role} ===\n{m.content}" for m in turns]
    return "\n\n".join(blocks) + "\n"


def fresh_arm(scenario_world) -> ZArmState:
    return ZArmState(location=scenario_world.charging_room, docked=True)


def _write_outputs(outcome: RequestOutcome, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "transcript.txt").write_text(
        render_transcript(outcome.transcript), encoding="utf-8"
    )
    plan_text = serialize_plan(outcome.plan) + "\n" if outcome.plan is not None else ""
    (out_dir / "plan.txt").write_text(plan_text, encoding="utf-8")
    events_text = (
        render_event_log(outcome.event_log) + "\n"
        if outcome.event_log is not None
        else ""
    )
    (out_dir / "events.txt").write_text(events_text, encoding="utf-8")


def _handle(request: str, scenario: Scenario, backend: Backend) -> RequestOutcome:
    """One request from a docked arm, with the scenario's world, config and templates."""
    return handle_request(
        request, scenario.world, fresh_arm(scenario.world), backend,
        config=scenario.config, templates=scenario.templates,
    )


def run_scenario(scenario: Scenario, out_root: Path) -> list[RequestOutcome]:
    """Run every request against one shared scripted backend.

    The script is written for the whole scenario, so the backend (and its
    consume-once matcher state) spans requests; the arm starts each
    request docked at the charging port.
    """
    backend = scenario.make_backend()
    outcomes = []
    for index, request in enumerate(scenario.requests, start=1):
        outcome = _handle(request, scenario, backend)
        _write_outputs(outcome, out_root / f"request_{index:03d}")
        outcomes.append(outcome)
    return outcomes


def _cmd_run(args: argparse.Namespace) -> int:
    outcomes = run_scenario(load_scenario(args.scenario), Path(args.out))
    for index, outcome in enumerate(outcomes, start=1):
        print(f"request {index}: {outcome.status}")
    return 0 if all(o.status == FULFILLED for o in outcomes) else 1


def _print_outcome(outcome: RequestOutcome) -> None:
    if outcome.plan is not None:
        print(serialize_plan(outcome.plan))
    if outcome.event_log is not None:
        print(render_event_log(outcome.event_log))
    for violation in outcome.violations:
        print(violation.machine_line())
    if outcome.error:
        print(f"error: {outcome.error}")
    print(f"status: {outcome.status}")


def _cmd_repl(args: argparse.Namespace) -> int:
    if args.scenario:
        scenario = load_scenario(args.scenario)
        backend = scenario.make_backend()
    else:
        backend = http_backend_from_env()
        scenario = parse_scenario({"config": {"model": default_model_from_env()}})

    interactive = sys.stdin.isatty()
    while True:
        if interactive:
            print("> ", end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            return 0
        request = line.strip()
        if not request:
            continue
        if request == ":quit":
            return 0
        try:
            outcome = _handle(request, scenario, backend)
        except ScaffoldMarkerError as exc:
            print(f"error: {exc}")
            continue
        _print_outcome(outcome)


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.world) if args.world else parse_scenario({})
    world, config = scenario.world, scenario.config
    goal = parse_goal_slots(args.goal, tolerance=config.tolerance)
    text = Path(args.planfile).read_text(encoding="utf-8")
    plan, result = check_plan(text, world, fresh_arm(world), goal, config.durations)
    if not result.ok:
        for violation in result.violations:
            print(violation.machine_line())
        return 1
    for timed, end in zip(plan.actions, result.completions):
        print(f"{format_clock(timed.start)} -> {format_clock(end)}  {action_phrase(timed.action)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aptbot",
        description="Context-aware household agent: request in, checked plan out.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_repl = sub.add_parser("repl", help="interactive request loop")
    p_repl.add_argument(
        "--scenario", help="scenario file providing world, templates, and script"
    )
    p_repl.set_defaults(func=_cmd_repl)

    p_run = sub.add_parser("run", help="run every request in a scenario file")
    p_run.add_argument("--scenario", required=True, help="scenario file to run")
    p_run.add_argument(
        "--out", default="out", help="directory for per-request outputs"
    )
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a plan file against a goal")
    p_val.add_argument("planfile", help="text file of timed action lines")
    p_val.add_argument(
        "--world",
        help="scenario file whose world, durations and tolerance to validate against",
    )
    p_val.add_argument(
        "--goal",
        required=True,
        help="goal slots, e.g. 'item=aspirin; qty=2; companion=water; "
        "time=10:00pm; room=living room'",
    )
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
