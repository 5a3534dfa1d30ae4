"""The records of every layer: frozen, compared and hashed by their fields,
printed as ``Name(field=value, ...)``, and refused when a field is missing
or unknown.  The integers they hold are converted by ``operator.index``, so
a float, a string or a fraction is refused, not truncated."""
from __future__ import annotations

import ast
import importlib
import pathlib
import re
from fractions import Fraction

import pytest

import sftlab
import sftlab.cohomology as coh
import sftlab.linalg as la
import sftlab.moves as mv
import sftlab.record
import sftlab.transducers as tr
from sftlab.config import Limits
from sftlab.errors import FieldMismatch, FormatError, FrozenField
from sftlab.record import Record, freeze, integer
from sftlab.shifts import SftPresentation, periodic_point, validate

SRC = pathlib.Path(sftlab.__file__).parent
for _path in SRC.glob("*.py"):
    importlib.import_module(f"sftlab.{_path.stem}")


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out += [sub, *_subclasses(sub)]
    return out


RECORDS = sorted((cls for cls in _subclasses(Record) if cls.__module__.startswith("sftlab.")),
                 key=lambda cls: (cls.__module__, cls.__name__))


def test_every_record_class_is_found():
    declared = {(f"sftlab.{path.stem}", node.name)
                for path in SRC.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ClassDef)
                and any(getattr(base, "id", None) == "Record" for base in node.bases)}
    assert {(cls.__module__, cls.__name__) for cls in RECORDS} == declared
    assert len(declared) >= 27


def _values(cls, offset: int = 0) -> tuple:
    return tuple(range(offset, offset + len(cls._fields)))


def _build(cls, values) -> Record:
    """A record holding the given values, without the class's value checks
    (``__post_init__``), which dummy values would fail."""
    record = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(record, name, value)
    return record


def _ids(cls) -> str:
    return cls.__name__


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_fields_are_frozen(cls):
    record = _build(cls, _values(cls))
    for name in cls._fields:
        with pytest.raises(FrozenField):
            setattr(record, name, -1)
        with pytest.raises(FrozenField):
            delattr(record, name)
        assert getattr(record, name) == cls._fields.index(name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert vars(record) == dict(zip(cls._fields, _values(cls)))


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_equal_fields_equal_records(cls):
    a, b = _build(cls, _values(cls)), _build(cls, _values(cls))
    assert a == b and not a != b
    assert hash(a) == hash(b)
    if cls._shown:
        c = _build(cls, _values(cls, offset=1))
        assert a != c


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_another_class_with_the_same_fields_is_unequal(cls):
    twin_class = type("Twin", (Record,), {"__annotations__": dict.fromkeys(cls._fields)})
    record, twin = _build(cls, _values(cls)), _build(twin_class, _values(cls))
    assert record.__eq__(twin) is NotImplemented
    assert record != twin and twin != record


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_missing_or_unknown_field_is_refused(cls):
    named = dict(zip(cls._fields, _values(cls)))
    for name in cls._fields:
        if name not in cls._defaults:
            with pytest.raises(TypeError):
                cls(**{k: v for k, v in named.items() if k != name})
    with pytest.raises(TypeError):
        cls(**named, not_a_field=0)
    with pytest.raises(TypeError):
        cls(*_values(cls), 0)
    first = cls._fields[0]
    with pytest.raises(TypeError):
        cls(named[first], **named)


def test_generic_refusals_name_the_fields():
    with pytest.raises(FieldMismatch, match=r"missing the fields \['ring'\]"):
        coh.LocallyConstantFunction(None, 1, ())
    with pytest.raises(FieldMismatch, match="'rings'"):
        coh.LocallyConstantFunction(None, 1, (), ring="Z", rings="Z")
    with pytest.raises(FieldMismatch, match="'depth'"):
        coh.LocallyConstantFunction(None, 1, (), "Z", depth=1)


def test_defaults_fill_missing_fields():
    assert Limits() == Limits(64, 1_000_000) == Limits(max_words=1_000_000)
    assert Limits(max_words=5).max_vertices == 64


def test_frozen_field_is_an_attribute_error():
    assert issubclass(FrozenField, AttributeError)
    assert issubclass(FieldMismatch, TypeError)


def test_post_init_checks_still_run(fib):
    with pytest.raises(sftlab.errors.RationalNotSupported):
        half = coh.function(fib, 1, [Fraction(1, 2), 1], "Q")
        tr.OrbitData(half, half)


def test_presentation_hides_limits(fib):
    assert SftPresentation._fields == ("kind", "adjacency", "vertex_labels", "symbols",
                                       "edges", "limits")
    other = SftPresentation(fib.kind, fib.adjacency, fib.vertex_labels, fib.symbols,
                            fib.edges, limits=Limits(max_words=7))
    assert other.limits != fib.limits
    assert other == fib and hash(other) == hash(fib)
    assert repr(other) == repr(fib)
    assert "limits" not in repr(fib)


def test_repr_is_the_field_list():
    p = validate(((1, 1), (1, 0)), "vertex")
    fib = ("SftPresentation(kind='vertex', adjacency=((1, 1), (1, 0)), "
           "vertex_labels=('1', '2'), symbols=('1', '2'), edges=None)")
    assert repr(Limits()) == "Limits(max_vertices=64, max_words=1000000)"
    assert repr(periodic_point(p, (0, 1), (0,))) == (
        f"EventuallyPeriodicPoint(presentation={fib}, preperiod=(0, 1), period=(0,))")
    result = coh.class_is_zero(coh.coboundary(coh.function(p, 1, [2, 5], "Z")))
    assert repr(result) == (
        "CoboundaryResult(is_coboundary=True, potential=LocallyConstantFunction("
        f"presentation={fib}, depth=1, table=(0, 3), ring='Z'), cycle=None, "
        "cycle_sum=None)")


def _machine(p, x):
    """From state 0 into state x and staying there, copying each symbol,
    with x as a state, an input symbol and an output symbol."""
    return tr.make_transducer(p, p, [(q, a, x, (a,)) for q in (0, x) for a in (0, x)])


# Entry points that take integers from the caller: name -> call(fib, x), an
# integer input that is fine for x = 1
TAKES_INTEGERS = {
    "validate": lambda p, x: validate([[x, 1], [1, 0]]),
    "elementary": lambda p, x: mv.elementary([[x, 1]], [[1], [1]]),
    "smith": lambda p, x: la.smith([[x, 0], [0, 3]]),
    "determinant": lambda p, x: la.determinant([[x, 1], [1, 0]]),
    "FgAbelianGroup": lambda p, x: la.FgAbelianGroup(x, ()),
    "PointedGroup": lambda p, x: la.PointedGroup(la.FgAbelianGroup(0, (2,)), (x,)),
    "make_transducer": _machine,
    "Transducer": lambda p, x: tr.Transducer(
        p, p, 2, 0, tuple((q, a, x, (a,)) for q in (0, 1) for a in (0, 1))),
    "Transducer.initial": lambda p, x: tr.Transducer(p, p, 2, x, _machine(p, 1).rules),
    "Transducer.n_states": lambda p, x: tr.Transducer(
        p, p, x, 0, tr.identity_transducer(p).rules),
    "expand": lambda p, x: mv.expand(p, x),
    "make_transducer.initial": lambda p, x: tr.make_transducer(
        p, p, [(q, a, q, (a,)) for q in (0, 1) for a in (0, 1)], initial=x),
    "make_transducer.n_states":
        lambda p, x: tr.make_transducer(p, p, [(0, 0, 0, (0,)), (0, 1, 0, (1,))],
                                        n_states=x),
}


@pytest.mark.parametrize("bad", [1.5, "1", Fraction(3, 2)],
                         ids=["float", "str", "Fraction"])
@pytest.mark.parametrize("name", TAKES_INTEGERS)
def test_integer_input_is_refused_not_truncated(name, bad, fib):
    """Each bad value would read as 1 under int(); ints and bools pass."""
    call = TAKES_INTEGERS[name]
    call(fib, 1)
    call(fib, True)
    with pytest.raises(FormatError, match=re.escape(repr(bad))):
        call(fib, bad)


# Entry points that take a matrix or a list of vectors from the caller
TAKES_ROWS = {
    "validate": validate,
    "elementary": lambda rows: mv.elementary(rows, [[1], [1]]),
    "smith": la.smith,
    "determinant": la.determinant,
}


@pytest.mark.parametrize("bad, text", [
    ([1, 2], "a row of integers, got 1"),
    ([[1, 0], 2], "a row of integers, got 2"),
    (5, "rows of integers, got 5"),
], ids=["flat", "one-row-an-int", "an-int"])
@pytest.mark.parametrize("name", TAKES_ROWS)
def test_row_that_is_not_iterable_is_refused(name, bad, text):
    """An integer where a row, or the rows, are expected is a FormatError
    naming it, not the TypeError of iterating over an int."""
    with pytest.raises(FormatError, match=rf"^expected {text}$"):
        TAKES_ROWS[name](bad)


def per_entry_freeze(rows):
    """``freeze`` entry by entry, each entry through ``integer``: the
    reference its type test in front must agree with."""
    def entries(values, what):
        try:
            return iter(values)
        except TypeError:
            raise FormatError(f"expected {what}, got {values!r}") from None
    return tuple(tuple(map(integer, entries(row, "a row of integers")))
                 for row in entries(rows, "rows of integers"))


def _outcome(call, make_rows):
    try:
        return call(make_rows())
    except FormatError as exc:
        return FormatError, str(exc)


# rows as callers hand them over; each is made afresh for each call
FREEZE_INPUTS = {
    "int-tuples": lambda: ((1, 0), (0, 1)),
    "int-lists": lambda: [[1, 2], [3, 4]],
    "generator-rows": lambda: ((i + j for j in range(3)) for i in range(2)),
    "bool-entries": lambda: ((True, False), [1, True]),
    "bool-tuple": lambda: ((True, 1),),
    "string-row": lambda: ((1, 2), "12"),
    "float-in-tuple": lambda: ((1, 2.0),),
    "fraction-in-list": lambda: [[Fraction(1), 2]],
    "row-an-int": lambda: ((1, 2), 3),
    "rows-an-int": lambda: 4,
    "empty-row": lambda: ((),),
}


@pytest.mark.parametrize("name", FREEZE_INPUTS)
def test_freeze_matches_the_per_entry_path(name):
    """The same rows of exact ints, or the same refusal text."""
    make = FREEZE_INPUTS[name]
    got = _outcome(freeze, make)
    assert got == _outcome(per_entry_freeze, make)
    if got[0] is not FormatError:
        assert all(type(v) is int for row in got for v in row)


def test_freezing_int_tuples_converts_no_entry(monkeypatch):
    """Int tuples in a tuple or a list are kept after two type tests: no
    entry goes through ``integer``.  Rows with any other row among them
    still go entry by entry."""
    calls = []
    monkeypatch.setattr(sftlab.record, "integer", lambda v: calls.append(v) or v)
    rows = ((1, 2, 3), (4, 5, 6))
    assert freeze(rows) == rows
    assert freeze(list(rows)) == rows
    assert calls == []
    assert freeze([(1, 2), [3, True]]) == ((1, 2), (3, True))
    assert calls == [1, 2, 3, True]
