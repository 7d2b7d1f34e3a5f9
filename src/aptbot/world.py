"""Apartment model: rooms, travel times, facilities, the z-arm, and sensors.

Single source of truth shared by the validator, the simulator, and the
oracle planner. Worlds are treated as immutable, which nothing enforces at
run time, and stock each item in one facility only; a run copies the stock
into its own `validator.RunState`. A world derives its lookup tables (item
-> facility, the charging room, the initial (room, item) -> stock map) once,
at construction, so its dicts, and those of its facilities, must not be
mutated afterwards.
"""

from __future__ import annotations

from .clock import MINUTES_PER_DAY, ClockParseError, format_clock, parse_clock
from .record import Record

# Sentinel stock quantity for items that never run out (tap water).
UNBOUNDED = None

# The default apartment: five rooms with uniform 2-minute travel. The medicine
# box (storeroom) stocks aspirin and ibuprofen; the water cooler (kitchen)
# stocks unbounded water and a glass; the charging port sits in the living room.
DEFAULT_ROOMS = ("living_room", "bedroom", "kitchen", "bathroom", "storeroom")
DEFAULT_TRAVEL_MINUTES = 2
DEFAULT_CLOCK_START = "9:54pm"
DEFAULT_CAPACITY = 2


class WorldError(ValueError):
    """Raised for inconsistent world configuration or unknown lookups."""


class Facility(Record, frozen=True):
    __slots__ = ("kind", "location", "stock")
    def __init__(self, kind: str, location: str, stock: dict[str, int | None] | None = None):
        self.kind, self.location = kind, location
        # item name -> quantity; None means unbounded
        self.stock = {} if stock is None else stock


DEFAULT_FACILITIES = (
    Facility("water_cooler", "kitchen", {"water": UNBOUNDED, "glass": UNBOUNDED}),
    Facility("medicine_box", "storeroom", {"aspirin": 10, "ibuprofen": 10}),
    Facility("charging_port", "living_room", {}),
)


class WorldModel(
    Record, frozen=True, fields=("rooms", "travel", "facilities", "clock_start", "capacity")
):
    # `travel` maps (from_room, to_room) to minutes for exactly the room pairs.
    # The last three slots are derived from the fields at construction.
    __slots__ = (
        "rooms", "travel", "facilities", "clock_start", "capacity",
        "facility_of", "charging_room", "initial_stock",
    )
    def __init__(
        self, rooms: tuple[str, ...], travel: dict[tuple[str, str], int],
        facilities: tuple[Facility, ...], clock_start: int, capacity: int = DEFAULT_CAPACITY,
    ):
        self.rooms, self.travel, self.facilities = rooms, travel, facilities
        self.clock_start, self.capacity = clock_start, capacity
        repeated = sorted({room for room in self.rooms if self.rooms.count(room) > 1})
        if repeated:
            raise WorldError(f"rooms listed more than once: {', '.join(repeated)}")
        pairs = {(a, b) for a in self.rooms for b in self.rooms}
        missing = pairs - self.travel.keys()
        if missing:
            raise WorldError(f"travel has no entry for {min(missing)!r}")
        for pair, minutes in self.travel.items():
            if pair not in pairs:
                raise WorldError(f"travel entry {pair!r} names a room outside rooms")
            if type(minutes) is not int or minutes < 0:
                raise WorldError(f"travel minutes must be an int >= 0 for {pair!r}")
            if pair[0] == pair[1] and minutes != 0:
                raise WorldError(f"travel diagonal must be 0 for {pair[0]}")
        if not 0 <= self.clock_start < MINUTES_PER_DAY:
            raise WorldError(f"clock_start must be a time of day, got {self.clock_start!r}")
        if self.capacity < 0:
            raise WorldError(f"capacity must be a non-negative integer, got {self.capacity!r}")
        facility_of: dict[str, Facility] = {}
        for f in self.facilities:
            if f.location not in self.rooms:
                raise WorldError(f"facility {f.kind} placed in unknown room {f.location}")
            for item, qty in f.stock.items():
                if qty is not None and (type(qty) is not int or qty < 0):
                    raise WorldError(f"stock of {item} in {f.kind} must be null or an int >= 0")
                if item in facility_of:
                    raise WorldError(f"item {item!r} stocked in more than one facility")
                facility_of[item] = f
        ports = [f.location for f in self.facilities if f.kind == "charging_port"]
        if len(ports) != 1:
            raise WorldError(f"world needs exactly one charging_port facility, has {len(ports)}")
        self.facility_of = facility_of
        self.charging_room = ports[0]
        # (room, item) -> quantity at the start of every run; None means unbounded
        self.initial_stock = {(f.location, item): f.stock[item] for item, f in facility_of.items()}


class ZArmState(Record):
    """Where a caller says a run starts. The arm starts empty-handed, and
    `docked` counts, charging, only in the world's charging room (see
    `validator.start_run`). Nothing reads `capacity`: the world's applies."""

    __slots__ = ("location", "capacity", "docked")
    def __init__(self, location: str, capacity: int = DEFAULT_CAPACITY, docked: bool = False):
        self.location, self.capacity, self.docked = location, capacity, docked


def travel_time(world: WorldModel, from_room: str, to_room: str) -> int:
    minutes = world.travel.get((from_room, to_room))
    if minutes is None:  # travel holds every room pair, so a room is unknown
        unknown = from_room if from_room not in world.rooms else to_room
        raise WorldError(f"unknown room {unknown!r}")
    return minutes


def item_location(world: WorldModel, item: str) -> Facility:
    """The one facility stocking the item; its room is `.location`."""
    facility = world.facility_of.get(item)
    if facility is None:
        raise WorldError(f"unknown item {item!r}")
    return facility


def read_sensors(world: WorldModel, arm: ZArmState) -> list[str]:
    """One `room/sensor: value (t=time)` line per sensor, read at the world's
    `clock_start`: the hub clock in the charging-port room and the z-arm
    position beacon, sorted by (room, sensor)."""
    now = format_clock(world.clock_start)
    readings = sorted(
        [(world.charging_room, "clock", now), (arm.location, "zarm_position", arm.location)]
    )
    return [f"{room}/{sensor}: {value} (t={now})" for room, sensor, value in readings]


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", list: "a list",
               dict: "an object", type(None): "null"}


def _require(value, kinds, what: str) -> None:
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if type(value) not in kinds and not (float in kinds and type(value) is int):
        names = " or ".join(_JSON_TYPES[k] for k in kinds)
        raise WorldError(f"{what} must be {names}, got {value!r}")


def typed(section: dict, key: str, kind, default=None, item=None):
    """`section[key]`, checked to have JSON type `kind`; `default` when absent.

    `kind`, and `item` for every list entry or object value, is a type or a
    tuple of types, matched exactly: a bool is not an int, and an int
    stands for a float. A mismatch raises WorldError.
    """
    if key not in section:
        return default
    value = section[key]
    _require(value, kind, key)
    if item is not None:
        for entry in value.values() if type(value) is dict else value:
            _require(entry, item, f"every entry of {key}")
    return value


def world_from_config(config: dict) -> WorldModel:
    """Build a world from a scenario's `world` section.

    Recognized keys: rooms, travel, facilities, stock, clock_start,
    capacity. Unknown keys are rejected so scenario typos fail loudly.
    Travel overrides use "roomA,roomB" pair keys and apply symmetrically.
    Absent keys take the default apartment's values.
    """
    allowed = {"rooms", "travel", "facilities", "stock", "clock_start", "capacity"}
    unknown = set(config) - allowed
    if unknown:
        raise WorldError(f"unknown world keys: {sorted(unknown)}")

    rooms = tuple(typed(config, "rooms", list, DEFAULT_ROOMS, item=str))

    travel: dict[tuple[str, str], int] = {}
    for a in rooms:
        for b in rooms:
            travel[(a, b)] = 0 if a == b else DEFAULT_TRAVEL_MINUTES
    for pair, minutes in typed(config, "travel", dict, {}, item=int).items():
        parts = [p.strip() for p in pair.split(",")]
        if len(parts) != 2:
            raise WorldError(f"travel key must be 'roomA,roomB', got {pair!r}")
        a, b = parts
        travel[(a, b)] = minutes  # WorldModel refuses unknown rooms and negative minutes
        travel[(b, a)] = minutes

    if "facilities" in config:
        facilities = []
        for index, entry in enumerate(typed(config, "facilities", list, item=dict)):
            if not {"kind", "location"} <= set(entry) <= {"kind", "location", "stock"}:
                raise WorldError(f"facility needs kind and location, and may have stock: {entry}")
            # Name the facility by its kind, or by its index when the kind is bad.
            name = entry["kind"] if type(entry["kind"]) is str else index
            try:
                facilities.append(
                    Facility(
                        typed(entry, "kind", str),
                        typed(entry, "location", str),
                        dict(typed(entry, "stock", dict, {})),
                    )
                )
            except WorldError as exc:
                raise WorldError(f"facility {name!r}: {exc}") from None
    else:
        facilities = [f for f in DEFAULT_FACILITIES if f.location in rooms]

    overrides = typed(config, "stock", dict, {})
    for kind, override in overrides.items():
        if kind not in {f.kind for f in facilities}:
            raise WorldError(f"stock override for unknown facility {kind!r}")
        _require(override, dict, f"stock override for {kind!r}")
    facilities = tuple(
        Facility(f.kind, f.location, {**f.stock, **overrides.get(f.kind, {})})
        for f in facilities
    )

    clock_start = typed(config, "clock_start", (str, int), DEFAULT_CLOCK_START)
    if isinstance(clock_start, str):
        try:
            clock_start = parse_clock(clock_start)
        except ClockParseError as exc:
            raise WorldError(f"clock_start: {exc}") from None

    return WorldModel(
        rooms=rooms,
        travel=travel,
        facilities=facilities,
        clock_start=clock_start,
        capacity=typed(config, "capacity", int, DEFAULT_CAPACITY),
    )
