import copy
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aptbot.agent import (
    BACKEND_FAILED,
    FEEDBACK_PROBLEM_CHARS,
    FEEDBACK_PROBLEMS,
    FULFILLED,
    PLAN_FAILED,
    REJECTED_UNKNOWN_TYPE,
    AgentConfig,
    handle_request,
    replan_feedback,
)
from aptbot.cli import render_transcript
from aptbot.gateway import ScriptedBackend, ScriptEntry, count_tokens
from aptbot.plan import PlanParseError, serialize_plan
from aptbot.prompts import parse_goal_slots
from aptbot.simulator import FAULT, Event, EventLog
from aptbot.validator import DurationModel, Violation, start_run, validate
from aptbot.world import ZArmState, world_from_config
from conftest import CANONICAL_PLAN

REQUEST = (
    "please bring me two pills of aspirin with a glass of water "
    "at 10:00pm in the living room"
)
SLOT_LINE = "item=aspirin; qty=2; companion=water; time=10:00pm; room=living room"


def _arm():
    return ZArmState(location="living_room", docked=True)


def _happy_backend():
    return ScriptedBackend(
        [
            ScriptEntry(response="(A)", contains="categorize it"),
            ScriptEntry(response=SLOT_LINE, contains="item="),
            ScriptEntry(response=CANONICAL_PLAN, contains="Current context:"),
        ]
    )


def test_fulfilled_on_first_plan(world):
    outcome = handle_request(REQUEST, world, _arm(), _happy_backend())
    assert outcome.status == FULFILLED
    assert outcome.attempts == 1
    assert serialize_plan(outcome.plan) == CANONICAL_PLAN
    assert outcome.event_log is not None
    assert outcome.event_log.outcome == "completed"
    assert len(outcome.transcript) == 6
    assert outcome.violations == ()


def test_arm_is_not_mutated(world):
    arm = _arm()
    before = copy.deepcopy(arm)
    handle_request(REQUEST, world, arm, _happy_backend())
    assert arm == before


def test_invalid_plan_is_retried_with_feedback(world):
    no_dock = CANONICAL_PLAN.rsplit("\n", 2)[0]
    backend = ScriptedBackend(
        [
            ScriptEntry(response="(A)", contains="categorize it"),
            ScriptEntry(response=SLOT_LINE, contains="item="),
            ScriptEntry(response=no_dock, step=3),
            ScriptEntry(response=CANONICAL_PLAN, contains="Problems found:"),
        ]
    )
    outcome = handle_request(REQUEST, world, _arm(), backend)
    assert outcome.status == FULFILLED
    assert outcome.attempts == 2
    feedback = outcome.transcript[6].content
    assert "The previous plan was not acceptable." in feedback
    assert "VIOLATION NotDockedAtEnd" in feedback


def test_unparseable_plan_feedback_names_the_line(world):
    backend = ScriptedBackend(
        [
            ScriptEntry(response="(A)", contains="categorize it"),
            ScriptEntry(response=SLOT_LINE, contains="item="),
            ScriptEntry(response="[9:56pm] Teleport to the kitchen", step=3),
            ScriptEntry(response=CANONICAL_PLAN, contains="Problems found:"),
        ]
    )
    outcome = handle_request(REQUEST, world, _arm(), backend)
    assert outcome.status == FULFILLED
    feedback = outcome.transcript[6].content
    assert "PARSE_ERROR line=1" in feedback


def test_unknown_request_type_is_rejected(world):
    backend = ScriptedBackend([ScriptEntry(response="(D)", contains="categorize it")])
    outcome = handle_request("fly me to the moon", world, _arm(), backend)
    assert outcome.status == REJECTED_UNKNOWN_TYPE
    assert "(D)" in outcome.error
    assert outcome.plan is None
    assert outcome.attempts == 0


def test_backend_failure_during_classification(world):
    backend = ScriptedBackend([])
    outcome = handle_request(REQUEST, world, _arm(), backend)
    assert outcome.status == BACKEND_FAILED
    assert outcome.attempts == 0
    assert "script" in outcome.error


@pytest.mark.parametrize(
    "replies, attempts",
    [
        ([], 0),
        ([SLOT_LINE, "[9:56pm] Teleport to the kitchen"], 1),
    ],
    ids=["during-goal-extraction", "on-second-plan-attempt"],
)
def test_backend_failure_after_classification(world, replies, attempts):
    entries = [ScriptEntry(response="(A)", contains="categorize it")]
    entries += [ScriptEntry(response=r, step=i) for i, r in enumerate(replies, start=2)]
    outcome = handle_request(REQUEST, world, _arm(), ScriptedBackend(entries))
    assert outcome.status == BACKEND_FAILED
    assert outcome.attempts == attempts
    assert "script" in outcome.error
    # Every answered exchange, the first plan exchange included, stays in the transcript.
    assert [t.content for t in outcome.transcript[1::2]] == ["(A)", *replies]


def test_malformed_goal_reply_is_repaired(world):
    backend = ScriptedBackend(
        [
            ScriptEntry(response="(A)", contains="categorize it"),
            ScriptEntry(response="item=aspirin; qty=two pills", step=2),
            ScriptEntry(response=SLOT_LINE, contains="did not parse"),
            ScriptEntry(response=CANONICAL_PLAN, contains="Current context:"),
        ]
    )
    outcome = handle_request(REQUEST, world, _arm(), backend)
    assert outcome.status == FULFILLED
    assert outcome.attempts == 1


def test_goal_reply_ending_with_a_period_is_planned(world):
    backend = ScriptedBackend(
        [
            ScriptEntry(response="(A)", contains="categorize it"),
            ScriptEntry(response=SLOT_LINE + ".", contains="item="),
            ScriptEntry(response=CANONICAL_PLAN, contains="Current context:"),
        ]
    )
    outcome = handle_request(REQUEST, world, _arm(), backend)
    assert outcome.status == FULFILLED
    assert backend.calls == 3
    assert outcome.attempts == 1


def test_prompt_over_the_token_budget_fails_before_any_call(world):
    backend = _happy_backend()
    outcome = handle_request(REQUEST, world, _arm(), backend, config=AgentConfig(token_budget=10))
    assert outcome.status == BACKEND_FAILED
    assert "token budget" in outcome.error
    assert backend.calls == 0
    assert outcome.transcript == []


def test_appliance_request_ends_after_classification(world):
    backend = ScriptedBackend(
        [
            ScriptEntry(response="(B)", contains="categorize it"),
            ScriptEntry(
                response="item=heater; qty=1; companion=none; time=10:02pm; room=bathroom",
                contains="item=",
            ),
        ]
    )
    outcome = handle_request("turn on the heater in the bathroom at 10:02pm", world, _arm(), backend)
    assert outcome.status == PLAN_FAILED
    assert outcome.error == "appliance control is not supported"
    assert backend.calls == 1
    assert outcome.attempts == 0
    assert len(outcome.transcript) == 2
    assert not any("item=" in message.content for message in outcome.transcript)


def test_goal_no_facility_stocks_ends_before_planning(world):
    backend = ScriptedBackend(
        [
            ScriptEntry(response="(A)", contains="categorize it"),
            ScriptEntry(
                response="item=none; qty=1; companion=none; time=10:02pm; room=bathroom",
                contains="item=",
            ),
        ]
    )
    outcome = handle_request("bring my pills to the bathroom at 10:02pm", world, _arm(), backend)
    assert outcome.status == PLAN_FAILED
    assert backend.calls == 2
    assert outcome.attempts == 0
    assert outcome.error == "required items not stocked anywhere: none"


def test_goal_for_an_unknown_room_ends_before_planning(world):
    backend = ScriptedBackend(
        [
            ScriptEntry(response="(A)", contains="categorize it"),
            ScriptEntry(
                response="item=aspirin; qty=2; companion=water; time=10:00pm; room=attic",
                contains="item=",
            ),
            ScriptEntry(response=CANONICAL_PLAN, contains="Current context:"),
        ]
    )
    outcome = handle_request(REQUEST, world, _arm(), backend)
    assert outcome.status == PLAN_FAILED
    assert backend.calls == 2
    assert outcome.attempts == 0
    assert outcome.error == "destination room not in the world: attic"


def test_goal_wanting_more_than_the_stock_ends_before_planning():
    world = world_from_config({"clock_start": "9:54pm", "stock": {"medicine_box": {"aspirin": 1}}})
    backend = ScriptedBackend(
        [
            ScriptEntry(response="(A)", contains="categorize it"),
            ScriptEntry(response=SLOT_LINE, contains="item="),
            ScriptEntry(response=CANONICAL_PLAN, contains="Current context:"),
        ]
    )
    outcome = handle_request(REQUEST, world, _arm(), backend)
    assert outcome.status == PLAN_FAILED
    assert backend.calls == 2
    assert outcome.attempts == 0
    assert outcome.error == "not enough stock for: aspirin (2 wanted, 1 stocked)"


def test_plan_reply_with_a_lone_surrogate_ends_backend_failed(world):
    backend = _RecordingBackend(["(A)", SLOT_LINE, "\ud800"])
    outcome = handle_request(REQUEST, world, _arm(), backend)
    assert outcome.status == BACKEND_FAILED
    assert outcome.error == "reply is not UTF-8 text: surrogates not allowed at index 0"
    assert outcome.attempts == 0
    assert len(outcome.transcript) == 4


def test_goal_extraction_exhaustion_fails_the_request(world):
    backend = ScriptedBackend(
        [
            ScriptEntry(response="(A)", contains="categorize it"),
            ScriptEntry(response="nonsense", step=2),
            ScriptEntry(response="still nonsense", step=3),
        ]
    )
    config = AgentConfig(max_retries=1)
    outcome = handle_request(REQUEST, world, _arm(), backend, config=config)
    assert outcome.status == PLAN_FAILED
    assert outcome.attempts == 0
    assert "goal extraction failed" in outcome.error


def test_plan_exhaustion_reports_last_violations(world):
    backend = ScriptedBackend(
        [
            ScriptEntry(response="(A)", contains="categorize it"),
            ScriptEntry(response=SLOT_LINE, contains="item="),
            ScriptEntry(response="no plan here", step=3),
            ScriptEntry(response="still no plan", step=4),
        ]
    )
    config = AgentConfig(max_retries=1)
    outcome = handle_request(REQUEST, world, _arm(), backend, config=config)
    assert outcome.status == PLAN_FAILED
    assert outcome.attempts == 2
    assert [v.kind for v in outcome.violations] == ["GoalUnmet"]


@pytest.mark.parametrize(
    "old, new, problem",
    [
        ("Pick 2 aspirin", "Pick 2 unobtainium", "unknown item 'unobtainium'"),
        ("water to the living room", "water to the attic", "unknown room 'attic'"),
        # Parses as `Pick 1 water`; the take rule fills water, a unit at a time.
        (
            "Fill glass with water", "Pick up a glass of water",
            "'water' is taken only by 'Fill glass with water'",
        ),
    ],
)
def test_plan_failing_normalize_is_replanned(world, old, new, problem):
    backend = ScriptedBackend(
        [
            ScriptEntry(response="(A)", contains="categorize it"),
            ScriptEntry(response=SLOT_LINE, contains="item="),
            ScriptEntry(response=CANONICAL_PLAN.replace(old, new), step=3),
            ScriptEntry(response=CANONICAL_PLAN, contains="Problems found:"),
        ]
    )
    outcome = handle_request(REQUEST, world, _arm(), backend)
    assert problem in outcome.transcript[6].content
    assert outcome.status == FULFILLED
    assert outcome.attempts == 2
    assert backend.calls == 4


def test_execution_fault_is_fed_back_until_exhaustion(world, monkeypatch):
    def faulting_execute(plan, world, arm, durations):
        run = start_run(world, arm.location, arm.docked, world.clock_start)
        return EventLog([Event(plan.actions[0].start, FAULT, "arm jammed")], run, FAULT)

    monkeypatch.setattr("aptbot.agent.execute", faulting_execute)
    config = AgentConfig(max_retries=2)
    entries = [ScriptEntry(response="(A)", contains="categorize it")]
    entries += [ScriptEntry(response=SLOT_LINE, contains="item=")]
    entries += [ScriptEntry(response=CANONICAL_PLAN, step=3 + i) for i in range(3)]
    outcome = handle_request(REQUEST, world, _arm(), ScriptedBackend(entries), config=config)
    assert "EXECUTION_FAULT arm jammed" in outcome.transcript[6].content
    assert outcome.status == PLAN_FAILED
    assert outcome.attempts == config.max_retries + 1
    assert outcome.violations == ()


def test_replan_feedback_is_deterministic_and_complete():
    failures = [
        Violation("NotDockedAtEnd"),
        PlanParseError(2, "malformed time", "[9:5xpm] Move"),
        "unknown item 'unobtainium'",
    ]
    text = replan_feedback(failures)
    assert text == (
        "The previous plan was not acceptable.\n"
        "Respond with a corrected full plan, one action per line in the format:\n"
        "[9:56pm] Move to the kitchen\n"
        "Problems found:\n"
        "VIOLATION NotDockedAtEnd\n"
        "PARSE_ERROR line=2 reason=malformed time\n"
        "unknown item 'unobtainium'"
    )


@pytest.mark.parametrize(
    "bad_reply",
    [
        "\n".join([CANONICAL_PLAN] * 110),  # hundreds of violations
        "[9:56pm] Move to the storeroom\n[9:58pm] Pick 2 " + "x" * 40_000,  # one huge one
    ],
    ids=["repeated_plan", "huge_item_name"],
)
def test_replan_feedback_stays_small_whatever_the_reply(world, bad_reply):
    backend = _RecordingBackend(["(A)", SLOT_LINE, bad_reply, CANONICAL_PLAN])
    outcome = handle_request(REQUEST, world, _arm(), backend, config=AgentConfig(max_retries=1))
    assert outcome.status == FULFILLED, outcome.error
    assert backend.calls == 4
    assert outcome.attempts == 2
    feedback = outcome.transcript[6].content
    problems = feedback.split("Problems found:\n", 1)[1].split("\n")
    assert len(problems) <= FEEDBACK_PROBLEMS + 1
    assert max(len(p) for p in problems) <= FEEDBACK_PROBLEM_CHARS


def test_replan_feedback_counts_the_problems_it_leaves_out():
    failures = [Violation("Chronology", index=i) for i in range(FEEDBACK_PROBLEMS + 3)]
    problems = replan_feedback(failures).split("Problems found:\n", 1)[1].split("\n")
    assert problems[:-1] == [f.machine_line() for f in failures[:FEEDBACK_PROBLEMS]]
    assert problems[-1] == "and 3 more problems"


def test_replan_feedback_at_the_cap_counts_nothing_left_out():
    failures = [Violation("Chronology", index=i) for i in range(FEEDBACK_PROBLEMS)]
    problems = replan_feedback(failures).split("Problems found:\n", 1)[1].split("\n")
    assert problems == [f.machine_line() for f in failures]


def test_agent_config_accepts_its_least_values():
    config = AgentConfig(max_retries=0, tolerance=0, token_budget=1)
    assert (config.max_retries, config.tolerance, config.token_budget) == (0, 0, 1)


class _RecordingBackend(ScriptedBackend):
    """Answers call k with the k-th reply; records every prompt and input size."""

    def __init__(self, replies):
        super().__init__([ScriptEntry(response=r, step=k) for k, r in enumerate(replies, start=1)])
        self.prompts = []
        self.input_tokens = []

    def generate(self, messages, params):
        self.prompts.append(messages[-1].content)
        self.input_tokens.append(sum(count_tokens(m.content) for m in messages))
        return super().generate(messages, params)


def _mutated(text, how, i, j):
    """`text` with line i dropped, doubled, swapped with line j, re-timed or garbled."""
    lines = text.split("\n")
    i, j = i % len(lines), j % len(lines)
    if how == "drop":
        del lines[i]
    elif how == "double":
        lines.insert(i, lines[i])
    elif how == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif how == "shift":
        lines[i] = re.sub(r":(\d\d)", lambda m: f":{(int(m[1]) + 7 * (j + 1)) % 60:02d}", lines[i])
    elif how == "room":
        lines[i] = re.sub(r"kitchen|storeroom|living room", "attic", lines[i])
    elif how == "item":
        lines[i] = re.sub(r"aspirin|water", "unobtainium", lines[i])
    else:
        lines[i] = re.sub(r"(?<=\] )\w+", "Zorp", lines[i])
    return "\n".join(lines)


_BUDGET = AgentConfig().token_budget


@st.composite
def _reply(draw, golden, goldens):
    """`golden` itself (weight `goldens`), mutated, arbitrary text (lone
    surrogates too), `golden` repeated past the token budget, or nothing."""
    kinds = ["golden"] * goldens + ["mutated", "mutated", "text", "long", "empty"]
    kind = draw(st.sampled_from(kinds))
    if kind == "golden":
        return golden
    if kind == "long":
        return "\n".join([golden] * (4 * _BUDGET // len(golden) + 1))
    if kind == "mutated":
        how = draw(st.sampled_from(["drop", "double", "swap", "shift", "room", "item", "verb"]))
        return _mutated(golden, how, draw(st.integers(0, 9)), draw(st.integers(0, 9)))
    if kind == "text":
        return draw(st.text(max_size=60))
    return ""


@st.composite
def _scripts(draw):
    max_retries = draw(st.integers(0, 2))
    most_calls = 1 + 2 * (max_retries + 1)
    # Weighted so that most scripts get past classification and goal extraction.
    goldens = [("(A)", 4), (SLOT_LINE, 2)] + [(CANONICAL_PLAN, 2)] * (most_calls - 2)
    length = draw(st.integers(0, most_calls) | st.just(most_calls))
    return max_retries, [draw(_reply(*g)) for g in goldens[:length]]


_STATUSES = {FULFILLED, REJECTED_UNKNOWN_TYPE, PLAN_FAILED, BACKEND_FAILED}
_PLAN_DESCRIPTION = "You control a mobile z-arm robot"
_REPLAN_HEAD = "The previous plan was not acceptable."


@given(_scripts())
@example((0, ["(A)", SLOT_LINE, CANONICAL_PLAN.rsplit("\n", 1)[0]]))  # docked, not charging
@example((1, ["(A)", SLOT_LINE, "\ud800"]))  # a lone surrogate
@settings(max_examples=200, deadline=None)
def test_agent_loop_survives_hostile_replies(script):
    max_retries, replies = script
    world, config = world_from_config({}), AgentConfig(max_retries=max_retries)
    backend = _RecordingBackend(replies)
    outcome = handle_request(REQUEST, world, _arm(), backend, config=config)

    assert outcome.status in _STATUSES
    assert outcome.attempts <= max_retries + 1
    assert backend.calls <= 1 + 2 * (max_retries + 1)
    turns = outcome.transcript
    plan_at = [
        k for k in range(0, len(turns), 2)
        if _PLAN_DESCRIPTION in turns[k].content or turns[k].content.startswith(_REPLAN_HEAD)
    ]
    assert outcome.attempts == len(plan_at)
    assert all(size <= config.token_budget for size in backend.input_tokens)
    render_transcript(outcome.transcript).encode("utf-8")
    for violation in outcome.violations:
        violation.machine_line().encode("utf-8")
    if outcome.status == FULFILLED:
        goal = parse_goal_slots(turns[plan_at[0] - 1].content)  # the accepted goal reply
        start = ("living_room", world.clock_start)
        assert validate(outcome.plan, world, goal, DurationModel(), start, start_docked=True).ok
        assert outcome.event_log.outcome == "completed"
        assert outcome.event_log.final_state.docked
        assert outcome.event_log.final_state.charging
    for prompt in backend.prompts:
        if prompt.startswith(_REPLAN_HEAD):
            assert prompt.split("Problems found:", 1)[1].strip()

    again = _RecordingBackend(replies)
    assert handle_request(REQUEST, world, _arm(), again, config=config) == outcome
    assert again.prompts == backend.prompts
