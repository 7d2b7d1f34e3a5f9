"""The measured process: imports aptbot from ./src and runs one workload.

`bench/run.py` starts it from the root of a checkout. It only reads the
inputs the generator wrote; it prints one JSON object as its last line.

    worker.py setup WORKLOAD INPUTS            import and load, nothing else
    worker.py run WORKLOAD INPUTS SECONDS [SPANS]
    worker.py curve INPUTS                     plan_oracle time per waypoint count
    worker.py cli AGGREGATE ARG...             `aptbot ARG...` under the tracer
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, "src")

from stats import summarize  # noqa: E402

SCENARIO = "scenarios/medication.scenario"


def import_program(workload: str) -> None:
    import aptbot  # noqa: F401

    if workload != "reference_answers":
        import aptbot.cli  # noqa: F401


def load_inputs(workload: str, inputs: str):
    if workload == "cli_cold":
        from aptbot import scenario

        return scenario.load_scenario(SCENARIO)
    with open(inputs, encoding="utf-8") as f:
        raw = json.load(f)
    if workload == "request_mix":
        from aptbot import scenario

        return [(scenario.parse_scenario(d["scenario"]), d["expect"]) for d in raw]
    return [_oracle_case(case) for case in raw]


def _oracle_case(case: dict):
    from aptbot.validator import Goal
    from aptbot.world import world_from_config

    world = world_from_config(case["world"])
    g = case["goal"]
    goal = Goal(
        deliveries=tuple((item, qty) for item, qty in g["deliveries"]),
        destination=g["destination"],
        target_time=g["target_time"],
        tolerance=g["tolerance"],
    )
    start = (case["start"], world.clock_start)
    return world, goal, start, case["start"] == world.charging_room, case


def _path(outcome, calls: int) -> str:
    if outcome.status == "rejected_unknown_type":
        return "unknown"
    if outcome.status != "fulfilled":
        return "exhausted"
    if calls - outcome.attempts > 2:  # more than classify + one goal call
        return "goal_repair"
    if outcome.attempts == 1:
        return "first_try"
    return f"replans_{outcome.attempts - 1}"


def _check_request(outcome, path, artifacts, expect) -> str | None:
    if (outcome.status, outcome.attempts, path) != (
        expect["status"], expect["attempts"], expect["path"]
    ):
        return (
            f"ended {outcome.status} after {outcome.attempts} attempts on path {path};"
            f" designed {expect['status']}/{expect['attempts']}/{expect['path']}"
            f" ({outcome.error})"
        )
    if expect["plan"] is not None:
        if artifacts[1] != expect["plan"]:
            return f"plan differs from the reference:\n{artifacts[1]}"
        if outcome.event_log.outcome != "completed":
            return f"execution ended {outcome.event_log.outcome}"
    return None


def run_request_mix(state, seconds: float, tracer) -> dict:
    """Closed loop, one caller: each request starts when the last one ends.

    The loop stops at a scenario boundary, after at least two whole passes,
    so every run serves whole scenarios and the second pass can be compared
    with the first byte for byte.
    """
    from aptbot import agent, cli, plan, simulator

    timings: dict[tuple[int, int], array] = {}
    failures: list[str] = []
    attempted = completed = calls = fulfilled = passes = 0
    paths: Counter = Counter()
    first_pass: dict[tuple[int, int], tuple[str, str, str]] = {}
    started = time.perf_counter()
    deadline = started + seconds
    done = False
    while not done:
        for s_index, (scenario, expects) in enumerate(state):
            backend = scenario.make_backend()
            for r_index, (request, expect) in enumerate(zip(scenario.requests, expects)):
                arm = cli.fresh_arm(scenario.world)
                before = backend.calls
                if tracer is not None:
                    tracer.begin_request()
                attempted += 1
                t0 = time.perf_counter()
                try:
                    outcome = agent.handle_request(
                        request, scenario.world, arm, backend,
                        config=scenario.config, templates=scenario.templates,
                    )
                    artifacts = (
                        cli.render_transcript(outcome.transcript),
                        plan.serialize_plan(outcome.plan) if outcome.plan is not None else "",
                        simulator.render_event_log(outcome.event_log)
                        if outcome.event_log is not None else "",
                    )
                except Exception as exc:  # counted as a failed operation
                    failures.append(f"scenario {s_index} request {r_index}: {exc!r}")
                    continue
                timings.setdefault((s_index, r_index), array("d")).append(
                    time.perf_counter() - t0
                )
                completed += 1
                path = _path(outcome, backend.calls - before)
                paths[path] += 1
                fulfilled += outcome.status == "fulfilled"
                problem = _check_request(outcome, path, artifacts, expect)
                if first_pass.setdefault((s_index, r_index), artifacts) != artifacts:
                    problem = "artifacts differ from the first pass over the same seed"
                if problem:
                    failures.append(f"scenario {s_index} request {r_index}: {problem}")
            calls += backend.calls
            if not all(entry.consumed for entry in backend.entries):
                failures.append(f"scenario {s_index}: script entries left unconsumed")
            if passes >= 2 and time.perf_counter() >= deadline:
                done = True
                break
        passes += 1
    elapsed = time.perf_counter() - started
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "ops": completed,
        **summarize(timings.values(), elapsed),
        "backend_calls": calls,
        "fulfilled": fulfilled,
        "paths": dict(paths),
    }


def run_reference_answers(state, seconds: float, tracer) -> dict:
    """Closed loop over oracle cases, stopping at a block boundary.

    A block holds one case per waypoint count, so every run sees the same
    mix of sizes.
    """
    from aptbot import oracle, simulator, validator
    from aptbot.world import ZArmState

    durations = validator.DurationModel()
    timings: dict[int, array] = {}
    failures: list[str] = []
    attempted = completed = satisfied = 0
    first_pass: dict[int, object] = {}
    block = 5
    started = time.perf_counter()
    deadline = started + seconds
    done = False
    while not done:
        for index, (world, goal, start, docked, case) in enumerate(state):
            arm = ZArmState(location=start[0], capacity=world.capacity, docked=docked)
            if tracer is not None:
                tracer.begin_request()
            attempted += 1
            plan = result = log = None
            t0 = time.perf_counter()
            try:
                try:
                    plan = oracle.plan_oracle(world, goal, durations, start, start_docked=docked)
                except ValueError as exc:
                    unsat = str(exc)
                else:
                    result = validator.validate(
                        plan, world, goal, durations, start, start_docked=docked
                    )
                    log = simulator.execute(plan, world, arm, durations)
            except Exception as exc:  # counted as a failed operation
                failures.append(f"case {index}: {exc!r}")
                continue
            timings.setdefault(index, array("d")).append(time.perf_counter() - t0)
            completed += 1
            problem = None
            if plan is None:
                if case["satisfiable"] or "no waypoint ordering" not in unsat:
                    problem = f"no plan: {unsat}"
            elif not case["satisfiable"]:
                problem = "plan returned for a goal no plan can meet"
            elif not result.ok:
                problem = "; ".join(v.machine_line() for v in result.violations)
            elif log.outcome != "completed":
                problem = f"execution ended {log.outcome}: {log.events[-1].line()}"
            elif any(
                log.delivered.get(goal.destination, {}).get(item, 0) < qty
                for item, qty in goal.deliveries
            ):
                problem = "goal not delivered"
            else:
                satisfied += 1
            if first_pass.setdefault(index, plan) != plan:
                problem = "plan differs from the first pass over the same seed"
            if problem:
                failures.append(f"case {index} (n={case['n']}): {problem}")
            if (index + 1) % block == 0 and time.perf_counter() >= deadline:
                done = True
                break
    elapsed = time.perf_counter() - started
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "ops": completed,
        **summarize(timings.values(), elapsed),
        # The oracle stands in for the model: one planner call per goal.
        "backend_calls": attempted,
        "fulfilled": satisfied,
    }


def oracle_curve(inputs: str) -> dict:
    """Fastest plan_oracle time per waypoint count, with its order count."""
    from aptbot import oracle, validator

    durations = validator.DurationModel()
    out = {}
    with open(inputs, encoding="utf-8") as f:
        cases = [_oracle_case(case) for case in json.load(f)]
    for world, goal, start, docked, case in cases:
        times = []
        for _ in range(3 if case["n"] >= 7 else 7):
            t0 = time.perf_counter()
            oracle.plan_oracle(world, goal, durations, start, start_docked=docked)
            times.append(time.perf_counter() - t0)
        out[f"n{case['n']}"] = {"ms": min(times) * 1e3, "orders": case["orders"]}
    return out


def main(argv: list[str]) -> dict:
    mode = argv[0]
    if mode == "setup":
        workload, inputs = argv[1:3]
        import_program(workload)
        load_inputs(workload, inputs)
        return {"setup_s": time.perf_counter() - _T0}
    if mode == "curve":
        return oracle_curve(argv[1])
    from spans import Tracer

    if mode == "cli":
        import aptbot.cli

        tracer = Tracer()
        tracer.install()
        tracer.begin_request()
        code = aptbot.cli.main(argv[2:])
        Path(argv[1]).write_text(json.dumps(tracer.aggregate()), encoding="utf-8")
        sys.exit(code)
    workload, inputs, seconds = argv[1], argv[2], float(argv[3])
    spans_path = argv[4] if len(argv) > 4 else None
    import_program(workload)
    tracer = None
    if spans_path:
        tracer = Tracer()
        tracer.install()
    state = load_inputs(workload, inputs)
    setup_s = time.perf_counter() - _T0
    runner = run_request_mix if workload == "request_mix" else run_reference_answers
    result = runner(state, seconds, tracer)
    result["setup_s"] = setup_s
    if tracer is not None:
        result["trace"] = tracer.aggregate()
        tracer.write(spans_path)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
