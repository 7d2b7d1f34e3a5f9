"""Brute-force baseline planner used as ground truth in tests.

Plans one trip: every item is picked up or filled, then all are delivered
at once. Every ordering of the goal's pickup/fill waypoints (factorial,
capped at 8) takes the same stop actions and the same tail, so one loop
ranks each order by its travel alone, from the start room through the
waypoints to the first tail stop, and keeps the least
(max(travel, slack), rooms, items). Only the winner is built, shifted so
the delivery completes as close to the target time as the window allows,
and only its timing is judged against the deadline window and midnight.
Each stop action is timed once, by `validator.minutes`. A goal that needs
more item kinds than the arm carries is refused, though a plan of several
trips may meet it. Never called on the production path; the model is the
planner there.
"""

from __future__ import annotations

from itertools import permutations

from .clock import MINUTES_PER_DAY
from .plan import ActionPlan, Charge, Deliver, Dock, Fill, Move, Pick, TimedAction
from .validator import DurationModel, Goal, goal_waypoints, minutes, start_run
from .world import WorldModel, travel_time

MAX_WAYPOINTS = 8


def plan_oracle(
    world: WorldModel,
    goal: Goal,
    durations: DurationModel,
    start: tuple[str, int],
    *,
    start_docked: bool = False,
) -> ActionPlan:
    """Best feasible one-trip plan: delivery closest to the target, ties
    broken by earlier completion, then by the order's rooms, then its items.
    Rooms and items name the order, so no two orders tie."""
    waypoints = sorted(goal_waypoints(world, goal))
    kinds = len(waypoints)  # one waypoint per item
    if kinds > MAX_WAYPOINTS:
        raise ValueError(f"too many waypoints: {kinds} > {MAX_WAYPOINTS}")
    if kinds > world.capacity:  # one trip carries every item to the destination
        raise ValueError(f"goal needs {kinds} item kinds at once, capacity is {world.capacity}")
    # Each stop is (room, item, steps): the arm moves to the room, unless it
    # is there, then takes each (action, minutes) step. Every order is ranked
    # from the same stops. One waypoint per item, so the orders are distinct.
    stops = []
    for room, item, qty, kind in waypoints:
        fill = kind == "water_cooler"  # one Fill per unit, or one Pick of them all
        action = Fill("glass", item) if fill else Pick(item, qty)
        step = (action, minutes(world, room, action, durations))
        stops.append((room, item, (step,) * (qty if fill else 1)))
    deliver = None
    tail = ()  # the stops after the waypoints, the same in every order
    if goal.deliveries:
        room, deliver = goal.destination, Deliver(goal.deliveries, goal.destination)
        tail = ((room, None, ((deliver, minutes(world, room, deliver, durations)),)),)
    # The arm stays docked only if no stop leaves the start room, in any order.
    docked = start_run(world, start[0], start_docked, start[1]).docked
    if not docked or any(room != start[0] for room, _, _ in (*stops, *tail)):
        room, dock, charge = world.charging_room, Dock(), Charge()
        tail += ((room, None, (
            (dock, minutes(world, room, dock, durations)),
            (charge, minutes(world, room, charge, durations)),
        )),)
    # Every order takes the same stop actions and the same tail, so orders
    # differ only in their travel: from the start room, through the waypoints,
    # to the first tail stop. `slack` is the travel that would deliver exactly
    # on the target; an order that travels less waits out the difference.
    # Closeness and completion both grow with max(travel, slack), and an
    # order misses the window or midnight only once that passes a bound, so
    # the least-ranked order fits exactly when some order does.
    slack = 0
    if deliver is not None:
        fixed = sum(spent for _, _, steps in (*stops, tail[0]) for _, spent in steps)
        slack = goal.target_time - start[1] - fixed
    best = best_rank = None
    for order in permutations(stops):
        current, travel = start[0], 0
        for room, _, _ in order + tail[:1]:
            if room != current:
                travel += travel_time(world, current, room)
                current = room
        rooms = tuple(stop[0] for stop in order)
        items = tuple(stop[1] for stop in order)
        rank = (max(travel, slack), rooms, items)
        if best is None or rank < best_rank:
            best, best_rank = (order, travel), rank
    # Each action starts when the previous one completes; the first also waits
    # out the shift onto the target.
    order, travel = best
    current, t = start[0], start[1] + max(0, slack - travel)
    actions: list[TimedAction] = []
    for room, _, steps in order + tail:
        if room != current:
            actions.append(TimedAction(t, Move(room)))
            t += travel_time(world, current, room)
            current = room
        for action, spent in steps:
            actions.append(TimedAction(t, action))
            t += spent
    # Unshifted, the winner delivers travel - slack minutes after the target.
    if deliver is not None and travel - slack > goal.tolerance or t >= MINUTES_PER_DAY:
        raise ValueError("no waypoint ordering fits the deadline window")
    return ActionPlan(tuple(actions))
