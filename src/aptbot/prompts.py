"""Prompt construction, request classification, and goal extraction.

The few-shot scaffold and the request-classification fixture are frozen
byte-for-byte, spacing quirks and all; golden tests guard them against
drift. The classification fixture's worked example answers "(C)" even
though its own option list labels appliance control "(B)" -- the fixture is
preserved verbatim rather than corrected, and classification must still
work with it as-is.

The classification and goal-extraction prompts fill the scaffold from fixed
fixtures, so their heads, everything before the question, are built once at
import; each call only checks the request and appends it.
"""

from __future__ import annotations

import enum
import re

from .clock import parse_clock, ClockParseError
from .plan import read_count, room_id, room_text
from .record import Record
from .validator import Goal
from .world import PORT, WorldModel

# Fixed scaffold with positional slots {0}=description, {1}=examples,
# {2}=question. Do not "fix" the spacing; it is part of the contract.
FEW_SHOT_SCAFFOLD = (
    "Please answer the question by considering descriptions "
    "and examples below. \n\n"
    "Descriptions: {0}. \n "
    "Examples: {1}. \n \n "
    "Question: {2}. \n "
    "Answer: "
)

# One-shot request-classification fixture, frozen verbatim including the
# run-together words and the "(C)" answer.
CLASSIFY_DESCRIPTION = (
    "Read the user's request in the Question and categorize it"
    "using one of following types.\n"
    "(A) take medicine, (B) appliance  control, (C) food & "
    "beverage...\n Please answer the index of option only."
)
CLASSIFY_EXAMPLE = (
    "\n**********\n"
    "\n Question: turn on the heater when the temperature is below"
    "freezing\n Answer: (C) \n"
    "\n**********\n"
)

_PLACEHOLDERS = ("{0}", "{1}", "{2}")


class RequestType(enum.Enum):
    A_TAKE_MEDICINE = "A"
    B_APPLIANCE_CONTROL = "B"
    C_FOOD_BEVERAGE = "C"
    UNKNOWN = "unknown"


# Option letter -> type. UNKNOWN's value is no letter, and it is the default.
_LETTER_TO_TYPE = {t.value: t for t in RequestType}


class GoalSlotError(ValueError):
    """Slot-line reply that does not parse; its message ends with the reply."""

    def __init__(self, reason: str, raw: str):
        super().__init__(f"{reason}: {raw!r}")
        self.reason = reason


class ScaffoldMarkerError(ValueError):
    """A prompt slot holds a scaffold marker such as {0}."""


def check_slots(**slots: str) -> None:
    for name, value in slots.items():
        if "{" not in value:
            continue
        for marker in _PLACEHOLDERS:
            if marker in value:
                raise ScaffoldMarkerError(f"{name} must not contain scaffold marker {marker}")


def build_few_shot_prompt(description: str, examples: str, question: str) -> str:
    check_slots(description=description, examples=examples, question=question)
    return FEW_SHOT_SCAFFOLD.format(description, examples, question)


_OPTION_RE = re.compile(r"\(([A-Za-z])\)")


def classify_request(answer: str) -> RequestType:
    """The request type a reply to `classify_prompt` names; UNKNOWN when
    it names none, or two different letters.

    Reads "(A)", a bare single-letter answer, and "(a) take medicine".
    """
    letters = {m.group(1).upper() for m in _OPTION_RE.finditer(answer)}
    if not letters:
        bare = answer.strip().rstrip(".").strip()
        if len(bare) == 1 and bare.isalpha():
            letters = {bare.upper()}
    if len(letters) != 1:
        return RequestType.UNKNOWN
    return _LETTER_TO_TYPE.get(letters.pop(), RequestType.UNKNOWN)


# Slot-line grammar for goal extraction. The reply must contain all five
# keys; companion=none means a single-item goal.
GOAL_SLOT_FORMAT = "item=<x>; qty=<n>; companion=<y>; time=<h:mmam|pm>; room=<room>"

GOAL_SLOT_DESCRIPTION = (
    "You extract the delivery goal from a household request. "
    "Reply with exactly one line of the form "
    + GOAL_SLOT_FORMAT
    + ". Use companion=none when only one item is requested"
)

GOAL_SLOT_EXAMPLE = (
    "Request: please bring me one pill of ibuprofen with water at 8:30am "
    "in the bedroom \n Answer: item=ibuprofen; qty=1; companion=water; "
    "time=8:30am; room=bedroom"
)

# Each pattern starts with its key, so the search jumps straight to the key's
# text; the lookbehind then skips a key that follows a word character, as a
# leading \b would (every key starts with a word character).
_SLOT_RES = {
    key: re.compile(rf"{key}(?<!\w{key})\s*=\s*([^;\n]+)")
    for key in ("item", "qty", "companion", "time", "room")
}


def parse_goal_slots(text: str, *, tolerance: int = 5) -> Goal:
    values = {}
    for key, pattern in _SLOT_RES.items():
        m = pattern.search(text)
        if m is None:
            raise GoalSlotError(f"missing slot {key!r}", text)
        # One trailing period is the sentence's end, not part of the value.
        values[key] = m.group(1).strip().removesuffix(".").rstrip()
    if not values["qty"].isdecimal():  # as a plan count: no sign, no "_"
        raise GoalSlotError("qty is not an integer", text)
    try:
        qty = read_count(values["qty"], "qty")
    except ValueError as exc:
        raise GoalSlotError(str(exc), text) from None
    if qty < 1:
        raise GoalSlotError("qty must be positive", text)
    try:
        target = parse_clock(values["time"])
    except ClockParseError:
        raise GoalSlotError("malformed time", text) from None
    deliveries = [(values["item"].lower(), qty)]
    companion = values["companion"].lower()
    if companion not in ("none", ""):
        deliveries.append((companion, 1))
    try:
        return Goal(
            deliveries=tuple(deliveries),
            destination=room_id(values["room"]),
            target_time=target,
            tolerance=tolerance,
        )
    except ValueError as exc:  # a total of more digits than a count may have
        raise GoalSlotError(str(exc), text) from None


# The scaffold before and after its {2} question slot, and the heads of the
# two prompts whose description and examples are fixed.
_QUESTION_HEAD, _QUESTION_TAIL = FEW_SHOT_SCAFFOLD.split("{2}")
_CLASSIFY_HEAD = _QUESTION_HEAD.format(CLASSIFY_DESCRIPTION, CLASSIFY_EXAMPLE)
_GOAL_HEAD = _QUESTION_HEAD.format(GOAL_SLOT_DESCRIPTION, GOAL_SLOT_EXAMPLE)


def classify_prompt(request: str) -> str:
    """One-shot classification via the frozen fixture prompt."""
    check_slots(question=request)
    return _CLASSIFY_HEAD + request + _QUESTION_TAIL


def goal_prompt(request: str) -> str:
    check_slots(question=request)
    return _GOAL_HEAD + request + _QUESTION_TAIL


class TemplateEntry(Record, frozen=True):
    __slots__ = ("description", "examples")
    def __init__(self, description: str, examples: str):
        self.description, self.examples = description, examples
        check_slots(description=self.description, examples=self.examples)


def _apartment_description(world: WorldModel) -> str:
    rooms = ", ".join(room_text(r) for r in world.rooms)
    placements = []
    for f in world.facilities:
        if f.kind == PORT:
            placements.append(f"the charging port is in the {room_text(f.location)}")
        else:
            stocked = ", ".join(sorted(f.stock))
            note = f" stocking {stocked}" if stocked else ""
            placements.append(f"the {room_text(f.kind)} in the {room_text(f.location)}{note}")
    hops = max(
        (m for (a, b), m in world.travel.items() if a != b),
        default=0,
    )
    return (
        "You control a mobile z-arm robot in an apartment with these rooms: "
        f"{rooms}. Facilities: {'; '.join(placements)}. "
        f"Travel between rooms takes up to {hops} minutes. "
        "When the task is done the robot must return to the charging port "
        "and start charging. Write one action per line, each line starting "
        "with the start time in brackets, like: [9:56pm] Move to the kitchen"
    )


_MEDICINE_EXAMPLE = (
    "Request: please bring me one pill of ibuprofen with water at 8:30am "
    "in the bedroom \n"
    " Plan: \n"
    "[8:22am] Move to the storeroom \n"
    "[8:24am] Pick 1 ibuprofen \n"
    "[8:25am] Move to the kitchen \n"
    "[8:27am] Fill glass with water \n"
    "[8:28am] Move to the bedroom \n"
    "[8:30am] Deliver 1 ibuprofen and 1 water to the bedroom \n"
    "[8:31am] Move to the living room \n"
    "[8:33am] Dock at the charging port \n"
    "[8:35am] Start charging"
)

_BEVERAGE_EXAMPLE = (
    "Request: bring a glass of water to the bedroom at 3:00pm \n"
    " Plan: \n"
    "[2:56pm] Move to the kitchen \n"
    "[2:58pm] Fill glass with water \n"
    "[2:59pm] Move to the bedroom \n"
    "[3:01pm] Deliver 1 water to the bedroom \n"
    "[3:02pm] Move to the living room \n"
    "[3:04pm] Dock at the charging port \n"
    "[3:06pm] Start charging"
)


def default_templates(world: WorldModel) -> dict[RequestType, TemplateEntry]:
    """The A and C plan templates, each describing `world`; B is never planned.
    A scenario's templates are these, built once when it is loaded."""
    base = _apartment_description(world)
    return {
        RequestType.A_TAKE_MEDICINE: TemplateEntry(base, _MEDICINE_EXAMPLE),
        RequestType.C_FOOD_BEVERAGE: TemplateEntry(base, _BEVERAGE_EXAMPLE),
    }
