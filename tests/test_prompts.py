import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aptbot.clock import parse_clock
from aptbot.plan import normalize, parse_plan
from aptbot.prompts import (
    CLASSIFY_DESCRIPTION,
    CLASSIFY_EXAMPLE,
    FEW_SHOT_SCAFFOLD,
    GOAL_SLOT_DESCRIPTION,
    GOAL_SLOT_EXAMPLE,
    ZERO_SHOT_SCAFFOLD,
    GoalSlotError,
    RequestType,
    ScaffoldMarkerError,
    _SLOT_RES,
    build_few_shot_prompt,
    build_zero_shot_prompt,
    classify_prompt,
    classify_request,
    context_aware_description,
    default_templates,
    extract_option,
    goal_prompt,
    news_fixture_prompts,
    parse_goal_slots,
)
from aptbot.validator import DurationModel, Goal, validate
from aptbot.world import ZArmState, read_sensors


def test_few_shot_scaffold_bytes():
    assert FEW_SHOT_SCAFFOLD == (
        "Please answer the question by considering descriptions "
        "and examples below. \n\n"
        "Descriptions: {0}. \n "
        "Examples: {1}. \n \n "
        "Question: {2}. \n "
        "Answer: "
    )


def test_zero_shot_scaffold_drops_only_the_examples_segment():
    assert ZERO_SHOT_SCAFFOLD == FEW_SHOT_SCAFFOLD.replace("Examples: {1}. \n \n ", "")
    assert "{1}" not in ZERO_SHOT_SCAFFOLD
    assert "{0}" in ZERO_SHOT_SCAFFOLD and "{2}" in ZERO_SHOT_SCAFFOLD


def test_classification_fixture_bytes():
    assert CLASSIFY_DESCRIPTION == (
        "Read the user's request in the Question and categorize it"
        "using one of following types.\n"
        "(A) take medicine, (B) appliance  control, (C) food & "
        "beverage...\n Please answer the index of option only."
    )
    assert CLASSIFY_EXAMPLE == (
        "\n**********\n"
        "\n Question: turn on the heater when the temperature is below"
        "freezing\n Answer: (C) \n"
        "\n**********\n"
    )


def test_classification_fixture_quirks_preserved():
    assert "categorize itusing" in CLASSIFY_DESCRIPTION
    assert "appliance  control" in CLASSIFY_DESCRIPTION
    assert "belowfreezing" in CLASSIFY_EXAMPLE
    assert "Answer: (C) \n" in CLASSIFY_EXAMPLE


def test_build_few_shot_prompt_golden():
    prompt = build_few_shot_prompt("DESC", "EX", "QUESTION")
    assert prompt == (
        "Please answer the question by considering descriptions "
        "and examples below. \n\n"
        "Descriptions: DESC. \n "
        "Examples: EX. \n \n "
        "Question: QUESTION. \n "
        "Answer: "
    )


def test_build_zero_shot_prompt_golden():
    prompt = build_zero_shot_prompt("DESC", "QUESTION")
    assert prompt == (
        "Please answer the question by considering descriptions "
        "and examples below. \n\n"
        "Descriptions: DESC. \n "
        "Question: QUESTION. \n "
        "Answer: "
    )


def test_prompt_slots_reject_scaffold_markers():
    with pytest.raises(ValueError):
        build_few_shot_prompt("has {0} inside", "ex", "q")
    with pytest.raises(ValueError):
        build_zero_shot_prompt("desc", "q with {2}")


QUESTIONS = st.lists(
    st.sampled_from(["{0}", "{1}", "{2}", "{", "}", "{}", "0", "bring ", "é"])
    | st.text(max_size=4)
).map("".join)


@given(QUESTIONS)
@example("bring water")
@example("see {1} and {0}")
@example("{2")
def test_fixture_prompts_equal_the_formatted_scaffold(question):
    for prompt, description, examples in (
        (classify_prompt, CLASSIFY_DESCRIPTION, CLASSIFY_EXAMPLE),
        (goal_prompt, GOAL_SLOT_DESCRIPTION, GOAL_SLOT_EXAMPLE),
    ):
        try:
            expected = build_few_shot_prompt(description, examples, question)
        except ScaffoldMarkerError as exc:
            with pytest.raises(ScaffoldMarkerError) as raised:
                prompt(question)
            assert str(raised.value) == str(exc)
        else:
            assert expected == FEW_SHOT_SCAFFOLD.format(description, examples, question)
            assert prompt(question) == expected


# The slot patterns before they started with the key's text.
WORD_BOUNDARY_SLOT_RES = {
    key: re.compile(rf"\b{key}\s*=\s*([^;\n]+)") for key in _SLOT_RES
}


@given(
    before=st.lists(
        st.sampled_from(
            ["", "a", "7", "_", "é", "ж", "٣", "²", ";", " ", "-", "=", "\n", "xitem"]
        )
        | st.text(max_size=3)
    ).map("".join),
    key=st.sampled_from(sorted(_SLOT_RES)),
    after=st.sampled_from(["=aspirin", " = 2; room=kitchen", "=", "s=1", "=\n", ""])
    | st.text(max_size=6),
    tail=st.text(max_size=20),
)
@example(before="", key="item", after="=aspirin", tail="")
@example(before="x", key="item", after="=aspirin", tail="; item=water")
@example(before="é", key="room", after="=kitchen", tail=" room=bedroom")
def test_slot_search_finds_what_a_leading_word_boundary_found(before, key, after, tail):
    text = before + key + after + tail
    for name, pattern in _SLOT_RES.items():
        found = pattern.search(text)
        reference = WORD_BOUNDARY_SLOT_RES[name].search(text)
        assert (found and (found.span(), found.group(1))) == (
            reference and (reference.span(), reference.group(1))
        )


def test_braces_in_slot_text_are_safe():
    prompt = build_few_shot_prompt("a json {\"k\": 1}", "ex", "q")
    assert '{"k": 1}' in prompt


@pytest.mark.parametrize(
    "answer,expected",
    [
        ("(A)", "A"),
        ("(a) take medicine", "A"),
        (" (B) ", "B"),
        ("C", "C"),
        ("b.", "B"),
        ("The answer is (C).", "C"),
        ("(A) or (B)", None),
        ("maybe", None),
        ("", None),
        ("(A) then (A)", "A"),
    ],
)
def test_extract_option(answer, expected):
    assert extract_option(answer) == expected


@pytest.mark.parametrize(
    "reply,expected",
    [
        ("(A)", RequestType.A_TAKE_MEDICINE),
        ("(B)", RequestType.B_APPLIANCE_CONTROL),
        ("(C)", RequestType.C_FOOD_BEVERAGE),
        ("no idea", RequestType.UNKNOWN),
        ("(D)", RequestType.UNKNOWN),
    ],
)
def test_classify_request_maps_letters(reply, expected):
    assert classify_request(reply) == expected


def test_context_aware_description_appends_readings(world):
    arm = ZArmState(location="living_room")
    text = context_aware_description(read_sensors(world, arm), "BASE")
    assert text == (
        "BASE\n\nCurrent context:\n"
        "living_room/clock: 9:54pm (t=9:54pm)\n"
        "living_room/zarm_position: living_room (t=9:54pm)"
    )


def test_parse_goal_slots_spec_example():
    goal = parse_goal_slots(
        "item=aspirin; qty=2; companion=water; time=10:00pm; room=living room"
    )
    assert goal == Goal(
        deliveries=(("aspirin", 2), ("water", 1)),
        destination="living_room",
        target_time=parse_clock("10:00pm"),
        tolerance=5,
    )


def test_parse_goal_slots_companion_none():
    goal = parse_goal_slots(
        "item=water; qty=1; companion=none; time=3:00pm; room=bedroom"
    )
    assert goal.deliveries == (("water", 1),)


def test_goal_slots_round_trip(medication_goal):
    line = "item=aspirin; qty=2; companion=water; time=10:00pm; room=living room"
    assert parse_goal_slots(line) == medication_goal


@pytest.mark.parametrize(
    "bad",
    [
        "item=aspirin; qty=2; companion=water; time=10:00pm",
        "item=aspirin; qty=two; companion=none; time=10:00pm; room=bedroom",
        "item=aspirin; qty=0; companion=none; time=10:00pm; room=bedroom",
        "item=aspirin; qty=2; companion=none; time=25:00pm; room=bedroom",
        "no slots at all",
    ],
)
def test_parse_goal_slots_rejects_malformed(bad):
    with pytest.raises(GoalSlotError) as exc_info:
        parse_goal_slots(bad)
    assert exc_info.value.raw == bad


@pytest.mark.parametrize(
    "qty, reason",
    [
        ("1_0", "qty is not an integer"),  # int() reads 10; a plan count does not
        ("+2", "qty is not an integer"),
        ("-1", "qty is not an integer"),
        ("a few", "qty is not an integer"),
        pytest.param("1" * 4301, "qty has too many digits", id="4301-digits"),
        ("0", "qty must be positive"),
    ],
)
def test_goal_qty_is_refused_where_a_plan_count_is(qty, reason):
    line = f"item=aspirin; qty={qty}; companion=none; time=10:00pm; room=bedroom"
    with pytest.raises(GoalSlotError) as exc_info:
        parse_goal_slots(line)
    assert exc_info.value.reason == reason
    assert exc_info.value.raw == line


def test_goal_qty_reads_decimal_digits_as_a_plan_count_does():
    line = "item=aspirin; qty=\u0662; companion=none; time=10:00pm; room=bedroom"
    assert parse_goal_slots(line).deliveries == (("aspirin", 2),)
    assert parse_plan("[9:56pm] Pick \u0662 aspirin").actions[0].action.qty == 2


def test_default_templates_cover_every_known_type(world):
    templates = default_templates(world)
    for req_type in RequestType:
        if req_type is RequestType.UNKNOWN:
            continue
        entry = templates[req_type]
        assert entry.description
        assert entry.examples
        assert "item=" not in entry.description
        assert "Current context:" not in entry.description


def test_template_worked_examples_contain_parseable_plans(world):
    templates = default_templates(world)
    for req_type in (
        RequestType.A_TAKE_MEDICINE,
        RequestType.B_APPLIANCE_CONTROL,
        RequestType.C_FOOD_BEVERAGE,
    ):
        plan = parse_plan(templates[req_type].examples)
        assert len(plan.actions) >= 5


def test_medicine_template_example_validates(world):
    templates = default_templates(world)
    plan = parse_plan(templates[RequestType.A_TAKE_MEDICINE].examples)
    plan = normalize(plan, world, "living_room")
    goal = Goal(
        deliveries=(("ibuprofen", 1), ("water", 1)),
        destination="bedroom",
        target_time=parse_clock("8:30am"),
    )
    result = validate(
        plan,
        world,
        goal,
        DurationModel(),
        ("living_room", parse_clock("8:20am")),
        start_docked=True,
    )
    assert result.ok, [v.machine_line() for v in result.violations]


def test_news_fixture_prompts_embed_reference_titles():
    classification, recommendation = news_fixture_prompts()
    title = "Europe's first bitcoin ETF set to launch after 12-month delay"
    assert title in classification
    assert title in recommendation
    assert "Examples:" not in classification
    assert "Thailand’s Pita loses parliamentary vote for prime minister" in recommendation
    assert "Bitcoin Tumbles Toward $30K, KAVA Crashes 12% Daily (Market Watch)" in recommendation
    assert "Barclays Said to Ready Sale of German Consumer Finance Business" in recommendation
    assert classification.startswith("Please answer the question")
    assert recommendation.endswith("Answer: ")
