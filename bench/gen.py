"""Seeded input generators for the benchmark workloads.

Standard library only: the generator never imports aptbot, so the inputs
(and the expected outcomes written beside them) do not depend on the code
being measured. The same seed always gives byte-identical inputs.
"""

from __future__ import annotations

import math
import random
from collections import Counter

ROOMS = (
    "living_room", "bedroom", "kitchen", "bathroom",
    "storeroom", "study", "hallway", "garage",
)
# Facility kind -> the items it stocks. No item is stocked by two kinds, so
# every item has one source room.
FACILITIES = {
    "water_cooler": ("water", "juice", "tea"),
    "medicine_box": ("aspirin", "ibuprofen", "antacid"),
    "vitamin_shelf": ("vitamins", "zinc"),
    "fridge": ("milk", "yogurt", "cheese"),
    "pantry": ("crackers", "cookies", "cereal"),
}
POURED = "water_cooler"  # one Fill per unit; every other kind is one Pick
MEDICINE_KINDS = ("medicine_box", "vitamin_shelf")
MAX_TRAVEL = 4

SCENARIOS = 24
# Outcome paths of the 20 requests in every request_mix scenario:
# 60% first try, 25% after 1-3 replans, 5% goal repair, 5% unknown,
# 5% retries exhausted. The counts are exact so every whole scenario
# makes the same number of backend calls.
PATHS = (
    ["first_try"] * 12
    + ["replans_1", "replans_1", "replans_2", "replans_2", "replans_3"]
    + ["goal_repair", "unknown", "exhausted"]
)
MAX_RETRIES = 3  # AgentConfig default: four plan attempts

# Waypoint counts timed in reference_answers. Calls stay within a few ms, so
# each case repeats often enough in one run for its fastest time to repeat
# between runs on a noisy host (an n=7 call takes ~0.3 s, n=6 ~25 ms); the
# oracle curve still times n=3-7.
ORACLE_SIZES = (1, 2, 3, 4, 5)
CURVE_SIZES = (3, 4, 5, 6, 7)
ORACLE_BLOCKS = 40  # blocks of one case per size; one case per block is unsatisfiable,
# rotating through the sizes so each size has the same number of them


def fmt_clock(minutes: int) -> str:
    hour24, minute = divmod(minutes, 60)
    hour = hour24 % 12 or 12
    return f"{hour}:{minute:02d}{'am' if hour24 < 12 else 'pm'}"


def parse_clock(clock: str) -> int:
    hour, minute = (int(p) for p in clock[:-2].split(":"))
    return (hour % 12 + (12 if clock.endswith("pm") else 0)) * 60 + minute


def text(room: str) -> str:
    return room.replace("_", " ")


def _travel(rng: random.Random, rooms: list[str]) -> dict[tuple[str, str], int]:
    travel = {}
    for i, a in enumerate(rooms):
        travel[(a, a)] = 0
        for b in rooms[i + 1:]:
            travel[(a, b)] = travel[(b, a)] = rng.randint(1, MAX_TRAVEL)
    return travel


def _world(rng: random.Random, kinds: list[str], rooms: list[str], capacity: int):
    """World config in the scenario `world` section form, plus lookups."""
    travel = _travel(rng, rooms)
    charging = rng.choice(rooms)
    facilities = [{"kind": "charging_port", "location": charging, "stock": {}}]
    source = {}
    for kind in kinds:
        room = rng.choice(rooms)
        stock = {}
        for item in FACILITIES[kind]:
            stock[item] = None if item == "water" else rng.randint(5, 20)
            source[item] = (room, kind)
        facilities.append({"kind": kind, "location": room, "stock": stock})
    config = {
        "rooms": rooms,
        "travel": {f"{a},{b}": m for (a, b), m in travel.items() if a < b},
        "facilities": facilities,
        "clock_start": fmt_clock(rng.randint(6 * 60, 19 * 60)),
        "capacity": capacity,
    }
    return config, travel, charging, source


# ---------------------------------------------------------------- request_mix


def _chain(rng, travel, charging, source, clock, deliveries, dest, offset):
    """Reference plan: canonical lines plus each line's kind and free text.

    Waypoints are visited in a random order, back to back, so every move
    ends exactly when the next action starts; normalize can therefore
    rebuild any move the reply leaves implicit.
    """
    t = clock + rng.randint(0, 20)
    here = charging
    lines = []  # (start, kind, canonical phrase, reply phrase)

    def move(to):
        nonlocal t, here
        if to == here:
            return
        reply = rng.choice(
            [f"Move to the {text(to)}", f"Go to the {text(to)}",
             f"Move from the {text(here)} to the {text(to)}"]
        )
        lines.append((t, "move", f"Move to the {text(to)}", reply))
        t += travel[(here, to)]
        here = to

    order = list(deliveries)
    rng.shuffle(order)
    for item, qty in order:
        room, kind = source[item]
        move(room)
        if kind == POURED:
            for _ in range(qty):
                lines.append((t, "act", f"Fill glass with {item}", f"Fill a glass with {item}"))
                t += 1
        else:
            reply = (
                f"Take {qty} pills of {item}" if kind in MEDICINE_KINDS
                else f"Grab {qty} {item}"
            )
            lines.append((t, "act", f"Pick {qty} {item}", reply))
            t += 1
    move(dest)
    carried = " and ".join(f"{q} {i}" for i, q in deliveries)
    lines.append((t, "act", f"Deliver {carried} to the {text(dest)}",
                  f"Bring {carried} to the {text(dest)}"))
    t += 1
    target = t + offset
    move(charging)
    lines.append((t, "act", "Dock at the charging port", "Dock at the charging port"))
    t += 2
    lines.append((t, "act", "Start charging", "Start charging"))
    return lines, target


def _render(lines, phrase=3) -> list[str]:
    return [f"[{fmt_clock(ln[0])}] {ln[phrase]}" for ln in lines]


def _good_reply(rng, lines) -> str:
    out = []
    for line in lines:
        if line[1] == "move" and rng.random() < 0.3:
            continue  # left implicit; normalize inserts it
        out.append(f"[{fmt_clock(line[0])}] {line[3]}")
    body = "\n".join(out)
    if rng.random() < 0.5:
        body = "Here is the plan.\n\n" + body + "\n\nThe delivery arrives on time."
    return body


def _bad_reply(rng, lines, item) -> str:
    """A plan the agent must bounce: a violation, a parse error or an unknown room."""
    kinds = ["late", "bad_time", "bad_verb", "unknown_room"]
    if any(ln[1] == "move" for ln in lines):
        kinds.append("undocked")  # a plan that never leaves the dock stays docked
    kind = rng.choice(kinds)
    canon = _render(lines, phrase=2)
    if kind == "late":
        shift = rng.randint(15, 40)
        return "\n".join(
            f"[{fmt_clock(ln[0] + shift)}] {ln[2]}" for ln in lines
        )
    if kind == "undocked":
        return "\n".join(canon[:-2])
    i = rng.randrange(len(canon))
    if kind == "bad_time":
        canon[i] = "[13:75pm] " + lines[i][2]
    elif kind == "bad_verb":
        canon[i] = f"[{fmt_clock(lines[i][0])}] Juggle the {item}"
    else:
        canon.insert(0, f"[{fmt_clock(lines[0][0])}] Move to the attic")
    return "\n".join(canon)


_NUMBER_WORDS = {1: "one", 2: "two", 3: "three"}


def _request_text(rng, item, qty, kind, companion, dest, target) -> str:
    when, where = fmt_clock(target), text(dest)
    if kind in MEDICINE_KINDS:
        unit = "pill" if qty == 1 else "pills"
        what = f"{_NUMBER_WORDS[qty]} {unit} of {item}"
    elif kind == POURED:
        what = f"{_NUMBER_WORDS[qty]} {'glass' if qty == 1 else 'glasses'} of {item}"
    else:
        what = f"{qty} {item}"
    with_ = f" with a glass of {companion}" if companion else ""
    return rng.choice(
        [
            f"please bring me {what}{with_} at {when} in the {where}",
            f"could you bring {what}{with_} to the {where} at {when}",
        ]
    )


def _scenario(rng: random.Random) -> dict:
    rooms = rng.sample(ROOMS, rng.randint(3, 8))
    kinds = rng.sample(sorted(FACILITIES), rng.randint(1, 5))
    config, travel, charging, source = _world(rng, kinds, rooms, capacity=2)
    clock = parse_clock(config["clock_start"])
    items = sorted(source)
    poured = [i for i in items if source[i][1] == POURED]

    paths = list(PATHS)
    rng.shuffle(paths)
    script, requests, expect = [], [], []
    calls = 0
    for path in paths:
        while True:
            item = rng.choice(items)
            kind = source[item][1]
            qty = rng.randint(1, 3 if kind != POURED else 2)
            companion = None
            if kind != POURED and poured and rng.random() < 0.6:
                companion = rng.choice(poured)
            deliveries = [(item, qty)] + ([(companion, 1)] if companion else [])
            dest = rng.choice(rooms)
            lines, target = _chain(
                rng, travel, charging, source, clock, deliveries, dest,
                rng.randint(-4, 4),
            )
            request = _request_text(rng, item, qty, kind, companion, dest, target)
            # `contains` matchers need every request to be unique and no
            # request to be a substring of another.
            if not any(request in r or r in request for r in requests):
                break
        requests.append(request)
        letter = "A" if kind in MEDICINE_KINDS else "C"
        slots = (
            f"item={item}; qty={qty}; companion={companion or 'none'}; "
            f"time={fmt_clock(target)}; room={text(dest)}"
        )

        def entry(response, first=False):
            nonlocal calls
            calls += 1
            match = {"contains": request} if first else {"step": calls}
            script.append({"match": match, "response": response})

        if path == "unknown":
            entry(rng.choice(["I am not sure which type this is.", "(A) or (C)"]), True)
            expect.append({"path": path, "status": "rejected_unknown_type",
                           "attempts": 0, "plan": None})
            continue
        entry(rng.choice([f"({letter})", letter, f"({letter.lower()}) yes"]), True)
        if path == "goal_repair":
            entry(rng.choice([slots.replace(f"qty={qty}", "qty=a few"),
                              f"Sure, I will bring the {item}."]), True)
            entry(slots)
        else:
            entry(slots, True)
        replans = int(path[-1]) if path.startswith("replans") else 0
        failures = MAX_RETRIES + 1 if path == "exhausted" else replans
        for i in range(failures):
            entry(_bad_reply(rng, lines, item), first=(i == 0))
        if path == "exhausted":
            expect.append({"path": path, "status": "plan_failed",
                           "attempts": MAX_RETRIES + 1, "plan": None})
            continue
        entry(_good_reply(rng, lines), first=(failures == 0))
        expect.append({"path": path, "status": "fulfilled", "attempts": replans + 1,
                       "plan": "\n".join(_render(lines, phrase=2))})
    return {
        "scenario": {"world": config, "script": script, "requests": requests},
        "expect": expect,
        "calls": calls,
    }


def request_mix(seed: int) -> list[dict]:
    rng = random.Random(f"request_mix:{seed}")
    return [_scenario(rng) for _ in range(SCENARIOS)]


# ---------------------------------------------------------- reference_answers


def oracle_case(rng: random.Random, n: int, satisfiable: bool) -> dict:
    """One world and goal with `n` waypoints (one per distinct item).

    A satisfiable goal's target leaves room for any waypoint order, so the
    oracle must find a plan. An unsatisfiable one has zero tolerance and a
    target earlier than the pick and fill minutes alone allow.
    """
    rooms = rng.sample(ROOMS, rng.randint(3, 8))
    kinds = sorted(FACILITIES)
    rng.shuffle(kinds)
    chosen, stocked = [], []
    for kind in kinds:
        if len(stocked) >= n and len(chosen) >= 2:
            break
        chosen.append(kind)
        stocked.extend(FACILITIES[kind])
    config, _, _, source = _world(rng, chosen, rooms, capacity=n + rng.randint(0, 1))
    clock = parse_clock(config["clock_start"])
    deliveries = []
    for item in rng.sample(stocked, n):
        deliveries.append([item, rng.randint(1, 2 if source[item][1] == POURED else 3)])
    minutes_of_work = sum(q if source[i][1] == POURED else 1 for i, q in deliveries) + 1
    if satisfiable:
        target = clock + MAX_TRAVEL * (n + 1) + minutes_of_work + rng.randint(0, 30)
        tolerance = rng.randint(0, 10)
    else:
        target, tolerance = clock + rng.randint(0, n), 0
    start = rng.choice(rooms)
    orders = math.factorial(n)
    for count in Counter(map(tuple, deliveries)).values():
        orders //= math.factorial(count)
    return {
        "n": n,
        "world": config,
        "goal": {"deliveries": deliveries, "destination": rng.choice(rooms),
                 "target_time": target, "tolerance": tolerance},
        "start": start,
        "satisfiable": satisfiable,
        "orders": orders,
    }


def reference_answers(seed: int) -> list[dict]:
    """Blocks of one case per waypoint count, shuffled within the block."""
    rng = random.Random(f"reference_answers:{seed}")
    cases = []
    for block in range(ORACLE_BLOCKS):
        sizes = list(ORACLE_SIZES)
        rng.shuffle(sizes)
        unsat = ORACLE_SIZES[block % len(ORACLE_SIZES)]
        cases.extend(oracle_case(rng, n, n != unsat) for n in sizes)
    return cases


def oracle_curve(seed: int) -> list[dict]:
    rng = random.Random(f"oracle_curve:{seed}")
    return [oracle_case(rng, n, True) for n in CURVE_SIZES]
