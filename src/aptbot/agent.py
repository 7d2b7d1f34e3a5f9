"""Request handling loop: classify, extract the goal, plan, check, execute.

One request gets one fresh session. The model's plan text is parsed,
normalized, and validated before anything is simulated; a plan that fails
any check is bounced back to the model with a deterministic feedback
prompt listing its problems, up to the retry budget. The arm never acts
on an unvalidated plan.
"""

from __future__ import annotations

from collections.abc import Callable

from .gateway import Backend, BackendError, ChatMessage, GenerationParams, Session, complete
from .plan import ActionPlan, PlanParseError, normalize, parse_plan
from .prompts import (
    GOAL_SLOT_FORMAT,
    GoalSlotError,
    RequestType,
    TemplateEntry,
    build_few_shot_prompt,
    classify_prompt,
    classify_request,
    default_templates,
    goal_prompt,
    parse_goal_slots,
)
from .record import Record
from .simulator import FAULT, EventLog, execute
from .validator import (
    DurationModel, Goal, UnachievableGoalError, Violation, goal_waypoints, validate,
)
from .world import WorldError, WorldModel, ZArmState, read_sensors

FULFILLED = "fulfilled"
REJECTED_UNKNOWN_TYPE = "rejected_unknown_type"
PLAN_FAILED = "plan_failed"
BACKEND_FAILED = "backend_failed"

# A replan prompt lists at most this many problems, each cut to this many
# characters, so its size does not grow with the reply it answers.
FEEDBACK_PROBLEMS = 20
FEEDBACK_PROBLEM_CHARS = 200


class AgentConfig(Record, frozen=True):
    # `max_retries` counts retries beyond the first attempt, so 3 allows 4 exchanges.
    __slots__ = ("max_retries", "durations", "tolerance", "params", "token_budget")
    def __init__(
        self, max_retries: int = 3, durations: DurationModel = DurationModel(), tolerance: int = 5,
        params: GenerationParams = GenerationParams(), token_budget: int = 8192,
    ):
        self.max_retries, self.durations, self.tolerance = max_retries, durations, tolerance
        self.params, self.token_budget = params, token_budget
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        if self.token_budget < 1:
            raise ValueError("token_budget must be positive")


class RequestOutcome(Record):
    __slots__ = ("status", "plan", "event_log", "transcript", "attempts", "error", "violations")
    def __init__(
        self, status: str, plan: ActionPlan | None = None, event_log: EventLog | None = None,
        transcript: list[ChatMessage] | None = None, attempts: int = 0, error: str | None = None,
        violations: tuple[Violation, ...] = (),
    ):
        self.status, self.plan, self.event_log = status, plan, event_log
        self.transcript = [] if transcript is None else transcript
        self.attempts, self.error, self.violations = attempts, error, violations


def _failure_line(failure: Violation | PlanParseError | WorldError | str) -> str:
    """One feedback line: a violation's machine line, a parse error's line
    and reason, or the text of a name the world lacks or of an execution fault."""
    if isinstance(failure, Violation):
        return failure.machine_line()
    if isinstance(failure, PlanParseError):
        return f"PARSE_ERROR line={failure.line_number} reason={failure.reason}"
    return str(failure)


def replan_feedback(failures: list) -> str:
    """Deterministic correction prompt listing the first problems found."""
    if not failures:
        raise ValueError("replan_feedback needs at least one failure")
    lines = [
        "The previous plan was not acceptable.",
        "Respond with a corrected full plan, one action per line in the format:",
        "[9:56pm] Move to the kitchen",
        "Problems found:",
    ]
    lines.extend(_failure_line(f)[:FEEDBACK_PROBLEM_CHARS] for f in failures[:FEEDBACK_PROBLEMS])
    if len(failures) > FEEDBACK_PROBLEMS:
        lines.append(f"and {len(failures) - FEEDBACK_PROBLEMS} more problems")
    return "\n".join(lines)


def _goal_repair_prompt(failures: list[GoalSlotError]) -> str:
    return (
        f"That reply did not parse ({failures[0].reason}). "
        "Reply with exactly one line of the form "
        f"{GOAL_SLOT_FORMAT}. Use companion=none when only one item is requested."
    )


def _goal_attempt(reply: str, tolerance: int) -> Goal | list[GoalSlotError]:
    try:
        return parse_goal_slots(reply, tolerance=tolerance)
    except GoalSlotError as exc:
        return [exc]


def _plan_attempt(
    reply: str, world: WorldModel, arm: ZArmState, goal: Goal, config: AgentConfig
) -> tuple[ActionPlan, EventLog] | list:
    """Judge one plan reply: (plan, log) if it executes, else its failures."""
    try:
        canonical = normalize(parse_plan(reply), world, arm.location)
    except (PlanParseError, WorldError) as exc:
        return [exc]
    start = (arm.location, world.clock_start)
    result = validate(canonical, world, goal, config.durations, start, start_docked=arm.docked)
    if not result.ok:
        return list(result.violations)
    # A validated plan should always complete; a fault here is the simulator's.
    log = execute(canonical, world, arm, config.durations)
    if log.outcome == FAULT:
        return [f"EXECUTION_FAULT {log.events[-1].detail}"]
    return canonical, log


def _exchange(
    backend: Backend,
    session: Session,
    config: AgentConfig,
    prompt: str,
    judge: Callable[[str], object],
    feedback: Callable[[list], str] | None = None,
) -> object:
    """Send `prompt` and judge the reply, re-asking up to `max_retries` times.

    `judge` returns an accepted value or a list of failures, which
    `feedback` turns into the next prompt; without `feedback`, `judge`
    must never return a list. Returns the last verdict; a
    BackendError propagates, and the session keeps every judged exchange.
    """
    for _ in range(config.max_retries + 1):
        verdict = judge(complete(backend, session, prompt, config.params, config.token_budget))
        if not isinstance(verdict, list):
            break
        prompt = feedback(verdict)
    return verdict


def handle_request(
    request: str,
    world: WorldModel,
    arm: ZArmState,
    backend: Backend,
    config: AgentConfig | None = None,
    templates: dict[RequestType, TemplateEntry] | None = None,
) -> RequestOutcome:
    """Drive one natural-language request end to end.

    `attempts` on the outcome counts completed planning exchanges with the
    backend; classification and goal extraction are not counted.
    """
    config = config if config is not None else AgentConfig()
    templates = templates if templates is not None else default_templates(world)
    session = Session()
    plan_from = None  # index of the first plan turn, once the plan prompt is sent

    def outcome(status: str, **fields) -> RequestOutcome:
        # `complete` records exactly one pair per judged reply, so the plan
        # attempts are the pairs recorded since the plan prompt.
        attempts = 0 if plan_from is None else (len(session.turns) - plan_from) // 2
        return RequestOutcome(status, transcript=list(session.turns), attempts=attempts, **fields)

    try:
        req_type = _exchange(backend, session, config, classify_prompt(request), classify_request)
        if req_type is RequestType.UNKNOWN:
            raw = session.turns[-1].content
            return outcome(REJECTED_UNKNOWN_TYPE, error=f"unrecognized request type: {raw!r}")

        goal = _exchange(
            backend, session, config, goal_prompt(request),
            lambda reply: _goal_attempt(reply, config.tolerance), _goal_repair_prompt,
        )
        if isinstance(goal, list):
            return outcome(PLAN_FAILED, error=f"goal extraction failed: {goal[0]}")
        goal_waypoints(world, goal)  # no plan for an unknown room or a missing or short item

        entry = templates[req_type]
        sensors = "\n".join(read_sensors(world, arm))
        description = f"{entry.description}\n\nCurrent context:\n{sensors}"
        plan_from = len(session.turns)
        verdict = _exchange(
            backend, session, config, build_few_shot_prompt(description, entry.examples, request),
            lambda reply: _plan_attempt(reply, world, arm, goal, config), replan_feedback,
        )
    except BackendError as exc:
        return outcome(BACKEND_FAILED, error=str(exc))
    except UnachievableGoalError as exc:
        return outcome(PLAN_FAILED, error=str(exc))
    if isinstance(verdict, list):
        violations = tuple(f for f in verdict if isinstance(f, Violation))
        return outcome(PLAN_FAILED, error="plan attempts exhausted", violations=violations)
    plan, log = verdict
    return outcome(FULFILLED, plan=plan, event_log=log)
