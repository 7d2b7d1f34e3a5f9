"""Apartment model: rooms, travel times, facilities, the z-arm, and sensors.

Single source of truth shared by the validator, the simulator, and the
oracle planner. Worlds are immutable and stock each item in one facility
only; a run copies the stock into its own `validator.RunState`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .clock import MINUTES_PER_DAY, ClockParseError, format_clock, parse_clock

DEFAULT_ROOMS = ("living_room", "bedroom", "kitchen", "bathroom", "storeroom")

# Sentinel stock quantity for items that never run out (tap water).
UNBOUNDED = None

DEFAULT_TRAVEL_MINUTES = 2
DEFAULT_CAPACITY = 2


class WorldError(ValueError):
    """Raised for inconsistent world configuration or unknown lookups."""


@dataclass(frozen=True)
class Facility:
    kind: str
    location: str
    # item name -> quantity; None means unbounded
    stock: dict[str, int | None] = field(default_factory=dict)


@dataclass(frozen=True)
class WorldModel:
    rooms: tuple[str, ...]
    # (from_room, to_room) -> minutes; complete over room pairs
    travel: dict[tuple[str, str], int]
    facilities: tuple[Facility, ...]
    clock_start: int
    capacity: int = DEFAULT_CAPACITY

    def __post_init__(self) -> None:
        for room in self.rooms:
            if self.travel.get((room, room), 0) != 0:
                raise WorldError(f"travel diagonal must be 0 for {room}")
        if type(self.clock_start) is not int or not 0 <= self.clock_start < MINUTES_PER_DAY:
            raise WorldError(f"clock_start must be a time of day, got {self.clock_start!r}")
        if type(self.capacity) is not int or self.capacity < 0:
            raise WorldError(f"capacity must be a non-negative integer, got {self.capacity!r}")
        stocked: set[str] = set()
        for f in self.facilities:
            if f.location not in self.rooms:
                raise WorldError(f"facility {f.kind} placed in unknown room {f.location}")
            for item, qty in f.stock.items():
                if qty is not None and (type(qty) is not int or qty < 0):
                    raise WorldError(f"stock of {item} in {f.kind} must be null or an int >= 0")
                if item in stocked:
                    raise WorldError(f"item {item!r} stocked in more than one facility")
                stocked.add(item)

    @property
    def charging_room(self) -> str:
        for f in self.facilities:
            if f.kind == "charging_port":
                return f.location
        raise WorldError("world has no charging_port facility")


@dataclass
class ZArmState:
    location: str
    payload: list[tuple[str, int]] = field(default_factory=list)
    capacity: int = DEFAULT_CAPACITY
    docked: bool = False
    charging: bool = False


@dataclass(frozen=True)
class SensorReading:
    sensor_id: str
    kind: str
    value: str
    unit: str
    location: str
    timestamp: int


def default_world(clock_start: str | int = "9:54pm") -> WorldModel:
    """The five-room apartment with uniform 2-minute travel.

    Medicine box (storeroom) stocks aspirin and ibuprofen; the water cooler
    (kitchen) stocks unbounded water and a glass; the charging port sits in
    the living room.
    """
    if isinstance(clock_start, str):
        clock_start = parse_clock(clock_start)
    travel: dict[tuple[str, str], int] = {}
    for a in DEFAULT_ROOMS:
        for b in DEFAULT_ROOMS:
            travel[(a, b)] = 0 if a == b else DEFAULT_TRAVEL_MINUTES
    facilities = (
        Facility("water_cooler", "kitchen", {"water": UNBOUNDED, "glass": UNBOUNDED}),
        Facility("medicine_box", "storeroom", {"aspirin": 10, "ibuprofen": 10}),
        Facility("charging_port", "living_room", {}),
    )
    return WorldModel(
        rooms=DEFAULT_ROOMS,
        travel=travel,
        facilities=facilities,
        clock_start=clock_start,
    )


def travel_time(world: WorldModel, from_room: str, to_room: str) -> int:
    for room in (from_room, to_room):
        if room not in world.rooms:
            raise WorldError(f"unknown room {room!r}")
    return world.travel[(from_room, to_room)]


def item_location(world: WorldModel, item: str) -> Facility:
    """The one facility stocking the item; its room is `.location`."""
    for f in world.facilities:
        if item in f.stock:
            return f
    raise WorldError(f"unknown item {item!r}")


def read_sensors(world: WorldModel, arm: ZArmState, clock: int) -> list[SensorReading]:
    """Snapshot of every sensor, sorted by (location, sensor_id).

    Always includes the hub clock (charging-port room) and the z-arm
    position beacon.
    """
    readings = [
        SensorReading(
            sensor_id="clock",
            kind="clock",
            value=format_clock(clock),
            unit="",
            location=world.charging_room,
            timestamp=clock,
        ),
        SensorReading(
            sensor_id="zarm_position",
            kind="position",
            value=arm.location,
            unit="",
            location=arm.location,
            timestamp=clock,
        ),
    ]
    readings.sort(key=lambda r: (r.location, r.sensor_id))
    return readings


def world_from_config(config: dict) -> WorldModel:
    """Build a world from a scenario's `world` section.

    Recognized keys: rooms, travel, facilities, stock, clock_start,
    capacity. Unknown keys are rejected so scenario typos fail loudly.
    Travel overrides use "roomA,roomB" pair keys and apply symmetrically.
    """
    allowed = {"rooms", "travel", "facilities", "stock", "clock_start", "capacity"}
    unknown = set(config) - allowed
    if unknown:
        raise WorldError(f"unknown world keys: {sorted(unknown)}")

    base = default_world()
    rooms = tuple(config.get("rooms", base.rooms))

    travel: dict[tuple[str, str], int] = {}
    for a in rooms:
        for b in rooms:
            travel[(a, b)] = 0 if a == b else DEFAULT_TRAVEL_MINUTES
    for pair, minutes in config.get("travel", {}).items():
        parts = [p.strip() for p in pair.split(",")]
        if len(parts) != 2:
            raise WorldError(f"travel key must be 'roomA,roomB', got {pair!r}")
        a, b = parts
        if a not in rooms or b not in rooms:
            raise WorldError(f"travel override names unknown room in {pair!r}")
        if not isinstance(minutes, int) or minutes < 0:
            raise WorldError(f"travel minutes must be a non-negative integer in {pair!r}")
        travel[(a, b)] = minutes
        travel[(b, a)] = minutes

    if "facilities" in config:
        facilities = []
        for entry in config["facilities"]:
            if not {"kind", "location"} <= set(entry) <= {"kind", "location", "stock"}:
                raise WorldError(f"facility needs kind and location, and may have stock: {entry}")
            facilities.append(
                Facility(entry["kind"], entry["location"], dict(entry.get("stock", {})))
            )
        facilities = tuple(facilities)
    else:
        facilities = tuple(
            f for f in base.facilities if f.location in rooms
        )

    if "stock" in config:
        by_kind = {f.kind: f for f in facilities}
        for kind, stock in config["stock"].items():
            if kind not in by_kind:
                raise WorldError(f"stock override for unknown facility {kind!r}")
            old = by_kind[kind]
            merged = dict(old.stock)
            merged.update(stock)
            by_kind[kind] = Facility(old.kind, old.location, merged)
        facilities = tuple(by_kind.values())

    clock_start = config.get("clock_start", base.clock_start)
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
        capacity=config.get("capacity", base.capacity),
    )
