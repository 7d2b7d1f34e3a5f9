"""Records: plain slotted classes that compare, hash and print by their fields."""

from operator import attrgetter


class Record:
    """Base of every record. A record class lists its fields, in order, in
    `__slots__` and assigns them, and runs its checks, in its own `__init__`.

    Records of one class with equal fields are equal; a record never equals
    the tuple of its fields. `fields=` names the compared and printed fields
    when they are fewer than the slots. A value record (`frozen=True`) hashes
    by its fields and is treated as immutable, which nothing enforces at run
    time. Any other record is unhashable.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False, fields: tuple[str, ...] | None = None):
        # `vars`, not inheritance: a record class must declare its own slots.
        cls._fields = vars(cls)["__slots__"] if fields is None else fields
        # One getter per class: the field's value, a tuple of two or more, or
        # the class itself when there are none.
        cls._values = attrgetter(*cls._fields or ("__class__",))
        if not frozen:
            cls.__hash__ = None

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"
