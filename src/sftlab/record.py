"""Immutable records, the value classes of every layer.

A subclass of ``Record`` declares its fields as class annotations, in
order; a class attribute of the same name is that field's default.
``__init_subclass__`` reads them once, when the class is defined, into
``_fields`` (the names in order; the underscore keeps it apart from field
names, as on a ``namedtuple``), and the methods below serve every subclass
from what it read: nothing is generated by ``exec``.  A record

- is built from its fields, positionally in declaration order or by name;
  a missing, unknown or repeated field raises ``FieldMismatch``; the
  subclass's ``__post_init__``, if any, then checks the values;
- refuses assignment and deletion with ``FrozenField`` (a
  ``functools.cached_property`` still caches, since it writes the instance
  ``__dict__`` directly);
- equals another record of the same class with equal fields, hashes by
  its fields, and prints as ``Name(field=value, ...)``.

Fields named in the class keyword ``hidden`` are kept on the instance but
take no part in ``==``, ``hash`` or ``repr``.

``freeze`` turns a matrix given as rows of integers into the tuple of int
tuples that records hold, each entry converted by ``integer``; rows, or a
row, that cannot be iterated are a ``FormatError`` too.  Rows that are
already int tuples, in a tuple or a list, are kept as they are.
"""
from __future__ import annotations

from itertools import chain
from operator import attrgetter, index

from .errors import FieldMismatch, FormatError, FrozenField


def integer(v) -> int:
    """v by ``operator.index``: a float, string or fraction is a FormatError."""
    try:
        return index(v)
    except TypeError:
        raise FormatError(f"expected an integer, got {v!r}") from None


def _entries(values, what: str):
    """An iterator over values; a value that is not iterable, such as an
    integer where a row is expected, is a FormatError."""
    try:
        return iter(values)
    except TypeError:
        raise FormatError(f"expected {what}, got {values!r}") from None


_INT, _TUPLE = frozenset((int,)), frozenset((tuple,))


def freeze(rows) -> tuple[tuple[int, ...], ...]:
    # a tuple or list of int tuples is kept after two type tests at C speed;
    # any other rows (bools, generators, floats) go entry by entry through
    # ``integer``, which gives the same ints and refuses with the same text
    if type(rows) in (tuple, list) and _TUPLE.issuperset(map(type, rows)) \
            and _INT.issuperset(map(type, chain.from_iterable(rows))):
        return tuple(rows)
    return tuple(tuple(map(integer, _entries(row, "a row of integers")))
                 for row in _entries(rows, "rows of integers"))


class Record:
    def __init_subclass__(cls, hidden: tuple[str, ...] = ()) -> None:
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        cls._shown = shown = tuple(n for n in names if n not in hidden)
        cls._key = attrgetter(*shown)      # no descriptor: self._key stays unbound

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        values = (self._bind(args, kwargs) if kwargs or len(args) != len(names)
                  else dict(zip(names, args)))
        # An empty __dict__ updated from a fresh dict takes a copy of its
        # table, which attribute reads are specialised for.  Updated from
        # the zip, it would keep the key table it shares with the class, and
        # reading a field would take about 1.6 times as long (Python 3.11).
        self.__dict__.update(values)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> dict:
        """Field values from positional and named values and the defaults."""
        names = cls._fields
        # names that are no field, or that a positional value already took
        stray = kwargs.keys() - names[len(args):]
        if len(args) > len(names) or stray:
            raise FieldMismatch(f"{cls.__name__} takes the fields {names}, "
                                f"got {len(args)} positional and {sorted(stray)}")
        values = {**cls._defaults, **dict(zip(names, args)), **kwargs}
        if len(values) != len(names):
            missing = [n for n in names if n not in values]
            raise FieldMismatch(f"{cls.__name__} is missing the fields {missing}")
        return values

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise FrozenField(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenField(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
        return f"{type(self).__qualname__}({fields})"
