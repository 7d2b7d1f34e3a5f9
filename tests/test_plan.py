import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aptbot.clock import parse_clock
from aptbot.plan import (
    ActionPlan,
    Charge,
    Deliver,
    Dock,
    Fill,
    Move,
    Pick,
    PHRASE_MEMO_SIZE,
    PlanParseError,
    TimedAction,
    Wait,
    _parse_phrase,
    _parse_qty_item,
    action_phrase,
    items_text,
    normalize,
    parse_plan,
    room_id,
    room_text,
    serialize_plan,
)
from aptbot.validator import DurationModel, Goal, validate
from aptbot.world import WorldError, default_world, world_from_config
from conftest import CANONICAL_PLAN


def test_parse_single_move_line():
    plan = parse_plan("[9:56pm] Move to the kitchen")
    assert plan.actions == (TimedAction(parse_clock("9:56pm"), Move("kitchen")),)


def test_a_lone_article_or_measure_is_the_item_name():
    # Leading words are dropped only from in front of a name, never all of them.
    assert parse_plan("[9:58pm] Pick the").actions[0].action == Pick("the", 1)
    assert parse_plan("[9:58pm] Pick 2 pills of").actions[0].action == Pick("pills of", 2)


def test_both_move_phrasings_parse_identically():
    short = parse_plan("[9:56pm] Move to the kitchen")
    long = parse_plan("[9:56pm] Move from the living room to the kitchen")
    assert short == long


def test_verb_synonyms_normalize_to_same_actions():
    variants = [
        ("[9:58pm] Pick 2 aspirin", Pick("aspirin", 2)),
        ("[9:58pm] Take 2 pills of aspirin", Pick("aspirin", 2)),
        ("[9:58pm] Grab two aspirin", Pick("aspirin", 2)),
        ("[9:58pm] pick up 1 ibuprofen", Pick("ibuprofen", 1)),
        ("[10:01pm] Fill a glass with water", Fill("glass", "water")),
        ("[10:04pm] Bring 1 water to the bedroom", Deliver((("water", 1),), "bedroom")),
        (
            "[10:04pm] Deliver 2 aspirin and 1 glass of water to the living room",
            Deliver((("aspirin", 2), ("water", 1)), "living_room"),
        ),
        ("[10:05pm] Dock", Dock()),
        ("[10:05pm] Return to the charging port", Dock()),
        ("[10:07pm] Start charging", Charge()),
        ("[10:07pm] Charge", Charge()),
        ("[6:30am] Wait 2 minutes", Wait(2)),
        ("[6:30am] wait 1 minute", Wait(1)),
        ("[9:59pm] Go to the kitchen", Move("kitchen")),
    ]
    for line, expected in variants:
        plan = parse_plan(line)
        assert plan.actions[0].action == expected, line


def test_parse_ignores_prose_around_bracketed_lines():
    text = (
        "Sure, here is a plan.\n"
        "\n"
        "[9:56pm] Move to the kitchen\n"
        "That should work nicely.\n"
    )
    plan = parse_plan(text)
    assert len(plan.actions) == 1


def test_parse_full_canonical_plan():
    plan = parse_plan(CANONICAL_PLAN)
    kinds = [type(t.action).__name__ for t in plan.actions]
    assert kinds == ["Move", "Pick", "Move", "Fill", "Move", "Deliver", "Dock", "Charge"]
    assert plan.actions[0].start == parse_clock("9:56pm")
    assert plan.actions[-1].start == parse_clock("10:07pm")


def test_malformed_time_in_bracketed_line_is_an_error():
    with pytest.raises(PlanParseError) as exc_info:
        parse_plan("[9:5xpm] Move to the kitchen")
    assert exc_info.value.line_number == 1


def test_unknown_phrase_in_bracketed_line_is_an_error():
    with pytest.raises(PlanParseError) as exc_info:
        parse_plan("intro text\n[9:56pm] Levitate over the kitchen")
    assert exc_info.value.line_number == 2
    assert "Levitate" in str(exc_info.value)


@pytest.mark.parametrize(
    "items", ["aspirin and", "and aspirin", "aspirin, and", "and, aspirin , ,", "aspirin and and"]
)
def test_a_dangling_and_in_a_delivery_list_is_a_conjunction(items):
    plan = parse_plan(f"[10:00pm] Deliver {items} to the bedroom")
    assert plan.actions == (TimedAction(1320, Deliver((("aspirin", 1),), "bedroom")),)
    doubled = parse_plan(f"[10:00pm] Deliver {items} and and water to the bedroom")
    assert doubled.actions[0].action.items == (("aspirin", 1), ("water", 1))


def test_a_delivery_list_of_only_and_is_empty():
    with pytest.raises(PlanParseError, match="empty delivery list"):
        parse_plan("[10:00pm] Deliver and to the bedroom")


def test_empty_text_parses_to_empty_plan():
    assert parse_plan("").actions == ()
    assert parse_plan("no plan lines here").actions == ()


def test_serializer_golden():
    plan = parse_plan(CANONICAL_PLAN)
    assert serialize_plan(plan) == CANONICAL_PLAN


def test_items_text_formats():
    assert items_text((("water", 1),)) == "1 water"
    assert items_text((("aspirin", 2), ("water", 1))) == "2 aspirin and 1 water"
    assert (
        items_text((("aspirin", 2), ("water", 1), ("glass", 3)))
        == "2 aspirin, 1 water and 3 glass"
    )


def test_action_phrases_are_canonical():
    cases = [
        (Move("living_room"), "Move to the living room"),
        (Pick("aspirin", 2), "Pick 2 aspirin"),
        (Fill("glass", "water"), "Fill glass with water"),
        (
            Deliver((("aspirin", 2), ("water", 1)), "living_room"),
            "Deliver 2 aspirin and 1 water to the living room",
        ),
        (Dock(), "Dock at the charging port"),
        (Charge(), "Start charging"),
        (Wait(1), "Wait 1 minute"),
        (Wait(5), "Wait 5 minutes"),
    ]
    for action, expected in cases:
        assert action_phrase(action) == expected


def test_room_id_and_text_round_trip():
    assert room_id("living room") == "living_room"
    assert room_id("Living Room") == "living_room"
    assert room_text("living_room") == "living room"
    assert room_id(room_text("storeroom")) == "storeroom"


def test_normalize_inserts_moves(world):
    plan = parse_plan("[9:58pm] Pick 2 aspirin\n[10:01pm] Fill glass with water")
    canon = normalize(plan, world, "living_room")
    assert serialize_plan(canon) == (
        "[9:56pm] Move to the storeroom\n"
        "[9:58pm] Pick 2 aspirin\n"
        "[9:59pm] Move to the kitchen\n"
        "[10:01pm] Fill glass with water"
    )


def test_normalize_is_idempotent(world):
    plan = parse_plan(CANONICAL_PLAN)
    once = normalize(plan, world, "living_room")
    twice = normalize(once, world, "living_room")
    assert once == twice == plan


def test_normalize_starts_an_early_move_at_midnight_for_the_validator_to_judge(world):
    plan = normalize(parse_plan("[12:01am] Pick 1 aspirin"), world, "living_room")
    assert serialize_plan(plan) == "[12:00am] Move to the storeroom\n[12:01am] Pick 1 aspirin"
    goal = Goal((("aspirin", 1),), "living_room", parse_clock("10:00pm"))
    result = validate(plan, world, goal, DurationModel(), ("living_room", 0))
    assert [v.machine_line() for v in result.violations] == [
        "VIOLATION TravelInfeasible index=0 needed=2 available=1",
        "VIOLATION GoalUnmet missing=aspirin:1",
        "VIOLATION NotDockedAtEnd",
    ]


def test_normalize_rejects_unknown_item(world):
    plan = parse_plan("[9:58pm] Pick 1 unobtainium")
    with pytest.raises(WorldError, match="unknown item 'unobtainium'"):
        normalize(plan, world, "living_room")


def test_normalize_rejects_unknown_move_destination(world):
    plan = parse_plan("[9:56pm] Move to the attic")
    with pytest.raises(WorldError, match="unknown room 'attic'"):
        normalize(plan, world, "living_room")


def test_normalize_rejects_unknown_start_room(world):
    plan = parse_plan("[9:58pm] Pick 1 aspirin")
    with pytest.raises(WorldError, match="unknown room 'garage'"):
        normalize(plan, world, "garage")


def _random_named_action(rng, world):
    """One action naming only the world's rooms and items."""
    rooms, items = world.rooms, sorted(world.facility_of)
    return rng.choice([
        lambda: Move(rng.choice(rooms)),
        lambda: Pick(rng.choice(items), rng.randint(1, 3)),
        lambda: Fill("glass", rng.choice(items)),
        lambda: Deliver(((rng.choice(items), rng.randint(1, 3)),), rng.choice(rooms)),
        lambda: Dock(),
        lambda: Charge(),
        lambda: Wait(rng.randint(1, 30)),
    ])()


def test_every_plan_of_the_worlds_names_normalizes_and_is_judged():
    """Seeded: starts anywhere in the day, a third of them below the travel
    time, so some inserted moves start at 12:00am short of time."""
    rng = random.Random(19)
    worlds = [default_world(), world_from_config({"clock_start": "12:00am"})]
    goal = Goal((("aspirin", 1),), "living_room", parse_clock("10:30pm"))
    early = 0
    for _ in range(3000):
        world = rng.choice(worlds)
        room = rng.choice(world.rooms)
        plan = ActionPlan(tuple(
            TimedAction(rng.choice([rng.randrange(2), rng.randrange(1440), rng.randrange(1440)]),
                        _random_named_action(rng, world))
            for _ in range(rng.randint(1, 5))
        ))
        normalized = normalize(plan, world, room)
        result = validate(normalized, world, goal, DurationModel(), (room, world.clock_start))
        for v in result.violations:
            fields = dict(v.fields)
            if v.kind == "TravelInfeasible":
                assert fields["needed"] > fields["available"], v.machine_line()
                move = normalized.actions[fields["index"]]
                early += move.start == 0 and move not in plan.actions
    assert early > 100, early  # moves inserted at 12:00am, short of time


_rooms = st.sampled_from(
    ["living_room", "bedroom", "kitchen", "bathroom", "storeroom"]
)
_items = st.sampled_from(["aspirin", "ibuprofen", "water", "glass"])
_qty = st.integers(min_value=1, max_value=9)

_actions = st.one_of(
    st.builds(Move, _rooms),
    st.builds(Pick, _items, _qty),
    st.builds(Fill, st.just("glass"), st.just("water")),
    st.builds(
        Deliver,
        st.lists(st.tuples(_items, _qty), min_size=1, max_size=3).map(tuple),
        _rooms,
    ),
    st.builds(Dock),
    st.builds(Charge),
    st.builds(Wait, st.integers(min_value=1, max_value=120)),
)


@st.composite
def plans(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    starts = sorted(draw(st.lists(st.integers(0, 1439), min_size=n, max_size=n)))
    actions = draw(st.lists(_actions, min_size=n, max_size=n))
    return ActionPlan(tuple(TimedAction(s, a) for s, a in zip(starts, actions)))


@given(plans())
@settings(max_examples=200)
def test_round_trip_property(plan):
    assert parse_plan(serialize_plan(plan)) == plan


@given(st.text(max_size=200))
@settings(max_examples=300)
def test_fuzz_never_aborts(text):
    try:
        parse_plan(text)
    except PlanParseError:
        pass


# Reference for the single verb pattern: the seven verb patterns tried one
# after another, in priority order.
_REF_MOVE = re.compile(
    r"^(?:move|go|return)\s+(?:from\s+(?:the\s+)?.+?\s+)?(?:back\s+)?to\s+(?:the\s+)?(?P<dest>.+)$"
)
_REF_PICK = re.compile(r"^(?:pick\s+up|pick|take|grab|fetch)\s+(?P<rest>.+)$")
_REF_FILL = re.compile(
    r"^fill\s+(?:the\s+|a\s+)?(?P<container>.+?)\s+with\s+(?:the\s+)?(?P<source>.+)$"
)
_REF_DELIVER = re.compile(
    r"^(?:deliver|bring)\s+(?P<items>.+)\s+to\s+(?:the\s+)?(?P<dest>.+)$"
)
_REF_DOCK = re.compile(
    r"^(?:dock(?:\s+at\s+(?:the\s+)?charging\s+port)?|return\s+to\s+(?:the\s+)?charging\s+port)$"
)
_REF_CHARGE = re.compile(r"^(?:start\s+charging|charge)$")
_REF_WAIT = re.compile(r"^wait\s+(?:for\s+)?(?P<n>\d+)\s+minutes?$")


def _reference_parse_phrase(phrase):
    lowered = " ".join(phrase.strip().rstrip(".").split()).lower()
    if _REF_DOCK.match(lowered):
        return Dock()
    if _REF_CHARGE.match(lowered):
        return Charge()
    if m := _REF_WAIT.match(lowered):
        minutes = int(m.group("n"))
        if minutes < 1:
            raise ValueError("wait must be at least one minute")
        return Wait(minutes)
    if m := _REF_MOVE.match(lowered):
        return Move(room_id(m.group("dest")))
    if m := _REF_FILL.match(lowered):
        return Fill(m.group("container").strip(), m.group("source").strip())
    if m := _REF_DELIVER.match(lowered):
        items = tuple(
            _parse_qty_item(part)
            for chunk in m.group("items").split(",")
            for part in re.split(r"(?<!\S)and(?!\S)", chunk)
            if part.strip()
        )
        if not items:
            raise ValueError("empty delivery list")
        return Deliver(items, room_id(m.group("dest")))
    if m := _REF_PICK.match(lowered):
        item, qty = _parse_qty_item(m.group("rest"))
        return Pick(item, qty)
    raise ValueError(f"unrecognized action {phrase!r}")


def _outcome(parse, phrase):
    try:
        return parse(phrase)
    except ValueError as exc:
        return ValueError, str(exc)


_VERBS = ["move", "go", "return", "pick", "pick up", "take", "grab", "fetch", "fill",
          "deliver", "bring", "dock", "charge", "start", "start charging", "wait"]
_WORDS = st.sampled_from(
    _VERBS
    + ["to", "the", "with", "and", "from", "back", "for", "a", "at", ","]
    + ["kitchen", "living room", "bedroom", "storeroom", "charging port", "port"]
    + ["aspirin", "water", "glass", "pills of", "minute", "minutes"]
    + ["0", "1", "2", "two", "twelve", "13"]
) | st.text(max_size=4)
_PHRASES = st.builds(
    lambda verb, words, tail, case: case(" ".join([verb, *words]) + tail),
    st.sampled_from(_VERBS) | st.text(max_size=4),
    st.lists(_WORDS, max_size=8),
    st.sampled_from(["", ".", " .", "  "]),
    st.sampled_from([str, str.upper, str.title]),
)


@given(_PHRASES)
@settings(max_examples=500)
@example("Return to the charging port")
@example("return back to the charging port.")
@example("Deliver 2 aspirin and 1 glass of water to the living room")
@example("bring two, and 1 water to bedroom")
@example("bring aspirin and to bedroom")
@example("bring aspirin and and water to bedroom")
@example("Deliver , to the kitchen")
@example("Wait 0 minutes")
@example("Fill a glass with the water")
@example("take 2 pills of aspirin")
def test_single_verb_pattern_matches_the_sequential_patterns(phrase):
    # Twice, so a stale remembered action or a remembered refusal shows up.
    expected = _outcome(_reference_parse_phrase, phrase)
    assert _outcome(_parse_phrase, phrase) == expected
    assert _outcome(_parse_phrase, phrase) == expected


def test_the_phrase_memo_stays_bounded():
    for minutes in range(1, PHRASE_MEMO_SIZE + 100):
        assert _parse_phrase(f"Wait {minutes} minutes") == Wait(minutes)
    info = _parse_phrase.cache_info()
    assert info.maxsize == PHRASE_MEMO_SIZE
    assert info.currsize == PHRASE_MEMO_SIZE


@pytest.mark.parametrize(
    "line, reason",
    [
        ("[9:56pm] Pick " + "1" * 4301 + " aspirin", "count has too many digits"),
        ("[9:56pm] Deliver " + "1" * 4301 + " aspirin to the bedroom", "count has too many digits"),
        ("[9:56pm] Wait " + "1" * 4301 + " minutes", "minute count has too many digits"),
    ],
    ids=["pick", "deliver", "wait"],
)
def test_a_count_too_long_to_read_is_refused_in_the_grammars_words(line, reason):
    with pytest.raises(PlanParseError) as raised:
        parse_plan(line)
    assert raised.value.reason == reason


def test_a_quantity_is_a_decimal_number():
    # "²" is a digit to str.isdigit, but int() cannot read it.
    assert _parse_phrase("Pick ² aspirin") == Pick("² aspirin", 1)
    assert _parse_phrase("Pick 12 aspirin") == Pick("aspirin", 12)
    with pytest.raises(WorldError, match=r"^unknown item '² aspirin'$"):
        normalize(parse_plan("[9:56pm] Pick ² aspirin"), default_world(), "living_room")
