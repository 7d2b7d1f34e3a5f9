"""The permutation oracle as it stood before each candidate was built once.

A test-side reference for `aptbot.oracle`: `_build`, `_candidates` and the
rank are copied verbatim from that version. It builds each order's chain and
then a shifted copy of it, sorts every candidate by rooms and items, and lets
`plan_oracle`'s rank pick the best. `tests/test_oracle.py` checks that the
oracle's plans and refusals equal this one's. The oracle returns only its
best plan, so the listing of every feasible plan, in order, lives here alone
(`reference_enumerate_feasible`).
"""

from __future__ import annotations

from itertools import permutations

from aptbot.clock import MINUTES_PER_DAY
from aptbot.plan import ActionPlan, Charge, Deliver, Dock, Fill, Move, Pick, TimedAction
from aptbot.validator import DurationModel, Goal, goal_waypoints, item_totals, start_run
from aptbot.world import WorldModel, travel_time

MAX_WAYPOINTS = 8


def _build(
    world: WorldModel,
    goal: Goal,
    durations: DurationModel,
    start: tuple[str, int],
    order: tuple[tuple[str, str, int, str], ...],
    docked: bool,
    deliver: Deliver | None,
) -> tuple[ActionPlan, int | None, int] | None:
    """Earliest-feasible chain for one waypoint order, shifted toward the target.

    Returns (plan, delivery_completion, plan_completion) or None when the
    order cannot meet the deadline window or runs past midnight. `deliver`
    is the goal's one delivery, None when it delivers nothing.
    """
    # The minutes below repeat `validator.check`'s durations on purpose: a
    # chain built on the validator's run state (`start_run`, `apply`) made
    # the reference-answers benchmark's p90 22-35 % slower.
    room, clock = start
    actions: list[TimedAction] = []
    current, t = room, clock

    def move_to(dest: str) -> None:
        nonlocal current, t, docked
        if dest == current:
            return
        actions.append(TimedAction(t, Move(dest)))
        t += travel_time(world, current, dest)
        current, docked = dest, False

    for wp_room, item, qty, kind in order:
        move_to(wp_room)
        if kind == "water_cooler":
            for _ in range(qty):
                actions.append(TimedAction(t, Fill("glass", item)))
                t += durations.fill_min
        else:
            actions.append(TimedAction(t, Pick(item, qty)))
            t += durations.pick_min

    delivery_completion = None
    if deliver is not None:
        move_to(deliver.dest)
        actions.append(TimedAction(t, deliver))
        t += durations.deliver_min
        delivery_completion = t

    if not docked:
        move_to(world.charging_room)
        actions.append(TimedAction(t, Dock()))
        t += durations.dock_min
        actions.append(TimedAction(t, Charge()))

    shift = 0
    if delivery_completion is not None:
        if delivery_completion > goal.target_time + goal.tolerance:
            return None  # already too late; shifting only delays further
        shift = max(0, goal.target_time - delivery_completion)
    if t + shift >= MINUTES_PER_DAY:
        return None
    if shift:
        actions = [TimedAction(a.start + shift, a.action) for a in actions]
        if delivery_completion is not None:
            delivery_completion += shift
    return ActionPlan(tuple(actions)), delivery_completion, t + shift


def _candidates(
    world: WorldModel,
    goal: Goal,
    durations: DurationModel,
    start: tuple[str, int],
    start_docked: bool,
) -> list[tuple[tuple[str, ...], tuple[str, ...], ActionPlan, int | None, int]]:
    """All feasible orderings as (rooms, items, plan, delivery, completion)."""
    waypoints = sorted(goal_waypoints(world, goal))
    if len(waypoints) > MAX_WAYPOINTS:
        raise ValueError(f"too many waypoints: {len(waypoints)} > {MAX_WAYPOINTS}")
    kinds = len({item for _, item, _, _ in waypoints})
    if kinds > world.capacity:  # one trip carries every item to the destination
        raise ValueError(f"goal needs {kinds} item kinds at once, capacity is {world.capacity}")
    docked = start_run(world, start[0], start_docked, start[1]).docked
    # One line per item with its total, though the goal may name an item twice.
    deliver = None
    if goal.deliveries:
        deliver = Deliver(tuple(item_totals(goal.deliveries).items()), goal.destination)
    out = []
    for order in dict.fromkeys(permutations(waypoints)):  # each distinct order once
        built = _build(world, goal, durations, start, order, docked, deliver)
        if built is None:
            continue
        plan, delivery, completion = built
        rooms = tuple(wp[0] for wp in order)
        items = tuple(wp[1] for wp in order)
        out.append((rooms, items, plan, delivery, completion))
    out.sort(key=lambda c: (c[0], c[1]))
    return out


def reference_enumerate_feasible(world, goal, durations, start, *, start_docked=False):
    return [plan for _, _, plan, _, _ in _candidates(world, goal, durations, start, start_docked)]


def reference_plan_oracle(world, goal, durations, start, *, start_docked=False):
    candidates = _candidates(world, goal, durations, start, start_docked)
    if not candidates:
        raise ValueError("no waypoint ordering fits the deadline window")

    def rank(c):
        rooms, items, _plan, delivery, completion = c
        closeness = abs(delivery - goal.target_time) if delivery is not None else 0
        return (closeness, completion, rooms, items)

    return min(candidates, key=rank)[2]
