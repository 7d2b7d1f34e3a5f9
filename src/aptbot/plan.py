"""Timed action-plan text: grammar, tolerant parser, serializer, normalizer.

A plan is one action per line in the form `[h:mmam] Verb phrase`. Text
around plan lines is ignored, because model responses wrap plans in prose.
A phrase is read by one verb pattern that tries the verbs in a fixed
priority order: dock, charge, wait, move, fill, deliver, pick; the first
verb that reads the whole phrase wins, so "return to the charging port"
docks rather than moves. The serializer is byte-deterministic;
`parse_plan(serialize_plan(p)) == p` for every canonical plan.

Replies repeat a small vocabulary of phrases, so a bounded memo parses each
distinct phrase text once: equal phrase text gives one shared action record,
in every plan that holds it. Action records must therefore never be mutated.
A phrase that is refused is not remembered and is refused again each time.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .clock import ClockParseError, parse_clock, format_clock
from .record import Record
from .world import WorldError, WorldModel, item_location, travel_time


class PlanParseError(ValueError):
    def __init__(self, line_number: int, reason: str, offending_text: str):
        super().__init__(f"line {line_number}: {reason}: {offending_text!r}")
        self.line_number = line_number
        self.reason = reason


class Move(Record, frozen=True):
    __slots__ = ("dest",)
    def __init__(self, dest: str):
        self.dest = dest


class Pick(Record, frozen=True):
    __slots__ = ("item", "qty")
    def __init__(self, item: str, qty: int):
        self.item, self.qty = item, qty


class Fill(Record, frozen=True):
    __slots__ = ("container", "source")
    def __init__(self, container: str, source: str):
        self.container, self.source = container, source


class Deliver(Record, frozen=True):
    __slots__ = ("items", "dest")
    def __init__(self, items: tuple[tuple[str, int], ...], dest: str):
        self.items, self.dest = items, dest


class Dock(Record, frozen=True):
    __slots__ = ()


class Charge(Record, frozen=True):
    __slots__ = ()


class Wait(Record, frozen=True):
    __slots__ = ("minutes",)
    def __init__(self, minutes: int):
        self.minutes = minutes


Action = Move | Pick | Fill | Deliver | Dock | Charge | Wait


class TimedAction(Record, frozen=True):
    __slots__ = ("start", "action")
    def __init__(self, start: int, action: Action):
        self.start, self.action = start, action


class ActionPlan(Record, frozen=True):
    __slots__ = ("actions",)
    def __init__(self, actions: tuple[TimedAction, ...] = ()):
        self.actions = actions


def room_id(text: str) -> str:
    return "_".join(text.strip().lower().split())


def room_text(room: str) -> str:
    return room.replace("_", " ")


_LINE_RE = re.compile(r"^\s*\[([^\]]*)\]\s*(.*)$")
# Every word "and" in a delivery list is a conjunction, leading, trailing or
# doubled ones too; they leave empty parts, skipped like those of ", ,".
_AND_RE = re.compile(r"(?<!\S)and(?!\S)")

_WORD_NUMBERS = {
    "one": 1, "two": 2, "three": 3, "four": 4, "five": 5, "six": 6,
    "seven": 7, "eight": 8, "nine": 9, "ten": 10, "eleven": 11, "twelve": 12,
}

# Distinct phrase texts the parser remembers; one benchmark pass of scripted
# replies holds under 600, and the bound keeps hostile replies from growing it.
PHRASE_MEMO_SIZE = 2048

# Alternation tries the verbs in the module docstring's priority order, so a
# phrase that two verbs could read goes to the earlier one. Each verb is a
# named group around its whole alternative, so `m.lastgroup` names the verb.
_VERB_RE = re.compile(
    r"^(?:"
    r"(?P<dock>dock(?:\s+at\s+(?:the\s+)?charging\s+port)?"
    r"|return\s+to\s+(?:the\s+)?charging\s+port)$"
    r"|(?P<charge>start\s+charging|charge)$"
    r"|(?P<wait>wait\s+(?:for\s+)?(?P<n>\d+)\s+minutes?)$"
    r"|(?P<move>(?:move|go|return)\s+(?:from\s+(?:the\s+)?.+?\s+)?(?:back\s+)?to\s+(?:the\s+)?"
    r"(?P<move_dest>.+))$"
    r"|(?P<fill>fill\s+(?:the\s+|a\s+)?(?P<container>.+?)\s+with\s+(?:the\s+)?(?P<source>.+))$"
    r"|(?P<deliver>(?:deliver|bring)\s+(?P<items>.+)\s+to\s+(?:the\s+)?(?P<dest>.+))$"
    r"|(?P<pick>(?:pick\s+up|pick|take|grab|fetch)\s+(?P<rest>.+))$"
    r")"
)


MAX_DIGITS = 4_300  # int()'s default limit, kept where the interpreter's is higher or off


def read_count(digits: str, what: str) -> int:
    """Decimal digits (`str.isdecimal`) as an int, for plan counts, Wait
    minutes and goal `qty`. More than `MAX_DIGITS` of them, or more than the
    interpreter reads, are refused in the grammar's words: int()'s own must
    not reach the model as a plan's fault."""
    try:
        if len(digits) <= MAX_DIGITS:
            return int(digits)
    except ValueError:  # the interpreter's limit is below ours
        pass
    raise ValueError(f"{what} has too many digits")


def _parse_qty_item(text: str) -> tuple[str, int]:
    """Split "2 aspirin" / "two pills of aspirin" / "aspirin" into (item, qty)."""
    words = text.strip().lower().split()
    qty = 1
    if words and words[0].isdecimal():  # what int() reads; "²" is a digit, not decimal
        qty = read_count(words.pop(0), "count")
    elif words and words[0] in _WORD_NUMBERS:
        qty = _WORD_NUMBERS[words.pop(0)]
    while len(words) > 1 and words[0] in ("a", "an", "the"):
        words.pop(0)
    if len(words) > 2 and words[0] in ("pills", "pill", "glasses", "glass", "cups", "cup") and words[1] == "of":
        words = words[2:]
    item = " ".join(words)
    if not item or qty < 1:
        raise ValueError(f"bad item phrase {text!r}")
    return item, qty


@lru_cache(maxsize=PHRASE_MEMO_SIZE)
def _parse_phrase(phrase: str) -> Action:
    lowered = " ".join(phrase.strip().rstrip(".").split()).lower()
    m = _VERB_RE.match(lowered)
    verb = m.lastgroup if m else None
    if verb == "dock":
        return Dock()
    if verb == "charge":
        return Charge()
    if verb == "wait":
        minutes = read_count(m.group("n"), "minute count")
        if minutes < 1:
            raise ValueError("wait must be at least one minute")
        return Wait(minutes)
    if verb == "move":
        return Move(room_id(m.group("move_dest")))
    if verb == "fill":
        return Fill(m.group("container").strip(), m.group("source").strip())
    if verb == "deliver":
        items = tuple(
            _parse_qty_item(part)
            for chunk in m.group("items").split(",")
            for part in _AND_RE.split(chunk)
            if part.strip()
        )
        if not items:
            raise ValueError("empty delivery list")
        return Deliver(items, room_id(m.group("dest")))
    if verb == "pick":
        item, qty = _parse_qty_item(m.group("rest"))
        return Pick(item, qty)
    raise ValueError(f"unrecognized action {phrase!r}")


def parse_plan(text: str) -> ActionPlan:
    """Extract every `[time] phrase` line; everything else is prose.

    Raises PlanParseError for a bracketed line whose time token is
    malformed or whose phrase matches no verb pattern.
    """
    actions = []
    for number, line in enumerate(text.splitlines(), start=1):
        m = _LINE_RE.match(line)
        if m is None:
            continue
        time_text, phrase = m.groups()
        try:
            start = parse_clock(time_text)
        except ClockParseError:
            raise PlanParseError(number, "malformed time", line.strip()) from None
        try:
            action = _parse_phrase(phrase)
        except ValueError as exc:
            raise PlanParseError(number, str(exc), line.strip()) from None
        actions.append(TimedAction(start, action))
    return ActionPlan(tuple(actions))


def items_text(items: tuple[tuple[str, int], ...]) -> str:
    parts = [f"{qty} {item}" for item, qty in items]
    if len(parts) == 1:
        return parts[0]
    return ", ".join(parts[:-1]) + " and " + parts[-1]


def action_phrase(action: Action) -> str:
    """Canonical verb phrase, the serializer's single wording per verb."""
    kind = type(action)
    if kind is Move:
        return f"Move to the {room_text(action.dest)}"
    if kind is Pick:
        return f"Pick {action.qty} {action.item}"
    if kind is Fill:
        return f"Fill {action.container} with {action.source}"
    if kind is Deliver:
        return f"Deliver {items_text(action.items)} to the {room_text(action.dest)}"
    if kind is Dock:
        return "Dock at the charging port"
    if kind is Charge:
        return "Start charging"
    if kind is Wait:
        unit = "minute" if action.minutes == 1 else "minutes"
        return f"Wait {action.minutes} {unit}"
    raise TypeError(f"not an action: {action!r}")


def serialize_plan(plan: ActionPlan) -> str:
    return "\n".join(
        f"[{format_clock(ta.start)}] {action_phrase(ta.action)}" for ta in plan.actions
    )


def required_room(action: Action, world: WorldModel) -> str | None:
    """Room the action must happen in; None when any room works."""
    kind = type(action)
    if kind is Pick:
        return item_location(world, action.item).location
    if kind is Fill:
        return item_location(world, action.source).location
    if kind is Deliver:
        if action.dest not in world.rooms:
            raise WorldError(f"unknown room {action.dest!r}")
        for item, _ in action.items:
            item_location(world, item)  # refuses an unknown item
        return action.dest
    if kind is Dock or kind is Charge:
        return world.charging_room
    return None


def normalize(plan: ActionPlan, world: WorldModel, start_room: str) -> ActionPlan:
    """Insert explicit moves so consecutive actions never change rooms implicitly.

    Inserted moves start at the next action's time minus the travel time,
    but not before 12:00am; the validator judges a move left short of time.
    Idempotent; canonical plans come back unchanged. A room or item the
    world lacks raises WorldError.
    """
    if start_room not in world.rooms:
        raise WorldError(f"unknown room {start_room!r}")
    current = start_room
    out: list[TimedAction] = []
    for ta in plan.actions:
        if type(ta.action) is Move:
            travel_time(world, current, ta.action.dest)  # refuses an unknown room
            current = ta.action.dest
        else:
            room = required_room(ta.action, world)
            if room is not None and room != current:
                move_start = max(0, ta.start - travel_time(world, current, room))
                out.append(TimedAction(move_start, Move(room)))
                current = room
        out.append(ta)
    return ActionPlan(tuple(out))
