"""Static feasibility checking of a normalized plan, and the world rules.

A timestamp is the action's start; completion = start + duration. The
world rules (a run's start, timing, stock, payload, capacity, delivery,
docking and charging) live here once: `start_run` starts a run, `check`
finds every problem one action would hit and its completion, and `apply`
carries it out. The simulator runs the same three. Getting the arm to the
room an action needs (`plan.required_room`) is `normalize`'s job, so a plan
with an action elsewhere, or an unknown room or item, raises WorldError
here: it was not normalized. The validator walks the whole plan once. It
returns each action's completion minute, in plan order, when the plan is
valid, and otherwise every violation it finds, never just the first, as
stable `VIOLATION <kind> <fields>` lines the agent can feed back. The
simulator faults with the first of them, so a problem has one wording. The
deadline is checked inside that walk: it notes when the goal delivery
completes.
"""

from __future__ import annotations

from .clock import MINUTES_PER_DAY, format_clock
from .plan import (
    ActionPlan,
    Charge,
    Deliver,
    Dock,
    Fill,
    Move,
    Pick,
    TimedAction,
    Wait,
    required_room,
)
from .record import Record
from .world import WorldError, WorldModel, item_location, travel_time


class DurationModel(Record, frozen=True):
    __slots__ = ("pick_min", "fill_min", "deliver_min", "dock_min")
    def __init__(
        self, pick_min: int = 1, fill_min: int = 1, deliver_min: int = 1, dock_min: int = 2
    ):
        self.pick_min, self.fill_min = pick_min, fill_min
        self.deliver_min, self.dock_min = deliver_min, dock_min
        for name in self.__slots__:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


class Goal(Record, frozen=True):
    __slots__ = ("deliveries", "destination", "target_time", "tolerance")
    def __init__(
        self, deliveries: tuple[tuple[str, int], ...], destination: str, target_time: int,
        tolerance: int = 5,
    ):
        self.destination, self.target_time, self.tolerance = destination, target_time, tolerance
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        if any(qty < 1 for _, qty in deliveries):
            raise ValueError("delivery quantities must be positive")
        # An item named twice is kept once, with its total, in first-named order.
        self.deliveries = tuple(item_totals(deliveries).items())


class UnachievableGoalError(ValueError):
    """No plan can meet the goal: the world lacks its room, its items, or
    enough stock of them."""


def item_totals(items: tuple[tuple[str, int], ...]) -> dict[str, int]:
    """Each item's total quantity, in the order items are first named."""
    totals: dict[str, int] = {}
    for item, qty in items:
        totals[item] = totals.get(item, 0) + qty
    return totals


def goal_waypoints(world: WorldModel, goal: Goal) -> list[tuple[str, str, int, str]]:
    """(room, item, total qty, facility kind) per required item; fails naming
    an unknown destination room, else every unstocked item, else every item
    the goal needs more of than its facility stocks."""
    if goal.destination not in world.rooms:
        raise UnachievableGoalError(f"destination room not in the world: {goal.destination}")
    missing, short, out = [], [], []
    for item, qty in goal.deliveries:
        try:
            facility = item_location(world, item)
        except WorldError:
            missing.append(item)
            continue
        out.append((facility.location, item, qty, facility.kind))
        stock = facility.stock[item]
        if stock is not None and stock < qty:
            short.append(f"{item} ({qty} wanted, {stock} stocked)")
    if missing:
        raise UnachievableGoalError(f"required items not stocked anywhere: {', '.join(missing)}")
    if short:
        raise UnachievableGoalError(f"not enough stock for: {', '.join(short)}")
    return out


class Violation(Record, frozen=True):
    __slots__ = ("kind", "fields")
    def __init__(self, kind: str, fields: tuple[tuple[str, object], ...] = ()):
        self.kind, self.fields = kind, fields

    def machine_line(self) -> str:
        parts = [f"{k}={v}" for k, v in self.fields]
        return " ".join(["VIOLATION", self.kind, *parts])


def violation(kind: str, **fields: object) -> Violation:
    """A `kind` violation whose fields print in the order they are given."""
    return Violation(kind, tuple(fields.items()))


class ValidationResult(Record):
    __slots__ = ("completions", "violations")
    def __init__(self, completions: list[int] | None, violations: list[Violation] | None = None):
        self.completions, self.violations = completions, [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations


class RunState(Record):
    """What a run changes; only `start_run` and `apply` write it. `stock`
    maps (room, item) to the quantity left there, None for unbounded;
    `delivered` maps room -> item -> quantity. `free_at` is the latest
    completion so far, `last_start` the previous action's start, and
    `arrival` when that action put the arm in its room: its completion after
    a Move, else its start."""

    __slots__ = (
        "location", "docked", "charging", "payload", "stock", "delivered",
        "free_at", "last_start", "arrival",
    )
    def __init__(
        self, location: str, docked: bool, charging: bool, payload: dict[str, int],
        stock: dict[tuple[str, str], int | None], delivered: dict[str, dict[str, int]],
        free_at: int, last_start: int, arrival: int,
    ):
        self.location, self.docked, self.charging = location, docked, charging
        self.payload, self.stock, self.delivered = payload, stock, delivered
        self.free_at, self.last_start, self.arrival = free_at, last_start, arrival


def start_run(world: WorldModel, location: str, docked: bool, clock: int) -> RunState:
    """How every run starts: the arm empty-handed at `location` at `clock`,
    and a copy of the world's stock. It is docked, and so charging, only if
    `docked` and `location` is the world's charging room."""
    docked = docked and location == world.charging_room
    stock = dict(world.initial_stock)
    return RunState(location, docked, docked, {}, stock, {}, clock, clock, clock)


def check(
    run: RunState, world: WorldModel, index: int, timed: TimedAction, durations: DurationModel
) -> tuple[list[Violation], int]:
    """Each problem the plan's `index`-th action would hit, and its completion;
    nothing changes.

    In order: its timing against the run's, the world rules in the arm's
    room, and `TimeWraparound` on the run's first completion past midnight.
    An action started while the previous Move is under way blames that Move,
    any other early start is this action's `Chronology`. An unknown room or
    item, or an action away from the room it needs (`required_room`), raises
    WorldError: a normalized plan has none."""
    t, action = timed.start, timed.action
    kind, problems = type(action), []
    if run.last_start <= t < run.arrival:
        problems.append(violation(
            "TravelInfeasible", index=index - 1, needed=run.arrival - run.last_start,
            available=t - run.last_start,
        ))
    elif t < run.free_at:
        problems.append(violation("Chronology", index=index))

    room = run.location
    if kind is Move:
        minutes = travel_time(world, room, action.dest)
    elif kind is Wait:
        minutes = action.minutes
    else:  # every other action needs a room
        needs = required_room(action, world)
        if needs != room:
            raise WorldError(f"action needs room {needs!r}, arm is in {room!r}")
        if kind is Pick or kind is Fill:
            item, qty = (action.item, action.qty) if kind is Pick else (action.source, 1)
            left = run.stock[(room, item)]
            if left is not None and left < qty:
                problems.append(violation("ItemUnavailable", item=item, room=room))
            if len(run.payload) + (item not in run.payload) > world.capacity:  # kinds, not units
                problems.append(violation("CapacityExceeded", index=index))
            minutes = durations.pick_min if kind is Pick else durations.fill_min
        elif kind is Deliver:
            problems.extend(
                violation("ItemUnavailable", item=item, room=room)
                for item, qty in item_totals(action.items).items()
                if run.payload.get(item, 0) < qty
            )
            minutes = durations.deliver_min
        elif kind is Dock:
            minutes = durations.dock_min
        else:  # Charge
            if not run.docked:
                problems.append(violation("ItemUnavailable", item="charging_port", room=room))
            minutes = 0  # charging takes no time

    completion = t + minutes
    if completion >= MINUTES_PER_DAY > run.free_at:
        problems.append(violation("TimeWraparound"))
    return problems, completion


def apply(run: RunState, timed: TimedAction, completion: int) -> None:
    """Carry the action out on `run` as far as it can go, ending at `completion`.

    Pick, Fill and Deliver go ahead on short stock or payload, so that the
    validator can keep scanning; a step is atomic only if `check` found no
    problem."""
    t, action = timed.start, timed.action
    kind = type(action)
    if kind is Move:
        run.location, run.docked, run.charging = action.dest, False, False
    elif kind is Pick or kind is Fill:
        item, qty = (action.item, action.qty) if kind is Pick else (action.source, 1)
        left = run.stock[(run.location, item)]
        if left is not None and left >= qty:
            run.stock[(run.location, item)] = left - qty
        run.payload[item] = run.payload.get(item, 0) + qty
    elif kind is Deliver:
        dropped = run.delivered.setdefault(run.location, {})
        for item, qty in action.items:
            have = run.payload.pop(item, 0)
            if have > qty:
                run.payload[item] = have - qty
            dropped[item] = dropped.get(item, 0) + min(have, qty)
    elif kind is Dock:
        run.docked = True
    elif kind is Charge:
        run.charging = True
    run.last_start, run.arrival = t, completion if kind is Move else t
    run.free_at = max(run.free_at, completion)


def validate(
    plan: ActionPlan,
    world: WorldModel,
    goal: Goal,
    durations: DurationModel,
    start: tuple[str, int],
    *,
    start_docked: bool = False,
) -> ValidationResult:
    """Check the whole plan: each action's completion minute, or every violation.

    Reports each action's `check` problems, then goal coverage, the
    deadline window, and ending docked and charging. The plan must be
    normalized from `start`'s room (`normalize`): an unknown room or item,
    or an action away from the room it needs, raises WorldError.
    """
    start_room, clock = start
    violations: list[Violation] = []
    completions: list[int] = []
    run = start_run(world, start_room, start_docked, clock)
    goal_items = {item for item, _ in goal.deliveries}
    delivered_at = None  # completion of the last delivery of a goal item there

    for i, ta in enumerate(plan.actions):
        action = ta.action
        problems, completion = check(run, world, i, ta, durations)
        violations.extend(problems)
        apply(run, ta, completion)
        if (
            type(action) is Deliver
            and action.dest == goal.destination
            and any(item in goal_items for item, _ in action.items)
        ):
            delivered_at = completion
        completions.append(completion)

    got = run.delivered.get(goal.destination, {})
    missing = [
        f"{item}:{qty - got.get(item, 0)}"
        for item, qty in goal.deliveries
        if got.get(item, 0) < qty
    ]
    if missing:
        violations.append(violation("GoalUnmet", missing=",".join(missing)))

    if delivered_at is not None and abs(delivered_at - goal.target_time) > goal.tolerance:
        violations.append(violation(
            "DeadlineMissed",
            # A delivery that ends past midnight reads as the next day's time.
            actual=format_clock(delivered_at % MINUTES_PER_DAY),
            target=format_clock(goal.target_time),
            tolerance=goal.tolerance,
        ))

    if not run.docked:
        violations.append(violation("NotDockedAtEnd"))
    elif not run.charging:
        violations.append(violation("NotChargingAtEnd"))

    return ValidationResult(None if violations else completions, violations)
