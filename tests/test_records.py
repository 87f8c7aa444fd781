"""The contract of the library's record types: construction, equality,
hashing, repr, immutability and pickling, class by class.

Each record compares, hashes and prints by its fields, in order, and
nothing else: the lookup tables some of them derive from their fields on
first use (``_index``, ``_position``, ``_flat``) stay out of all three.
"""

import importlib
import pickle
import pkgutil

import pytest

import urygrid
from urygrid.bikatetov import BiKatetovMatrix
from urygrid.gh import EnumeratedPair
from urygrid.graev import WeightedAlphabet
from urygrid.grid import Record
from urygrid.homog import OrbitDistance, PartialIsometryRelation
from urygrid.katetov import (ApproximantResult, HomogeneityReport, InjectivityReport,
                             KatetovFunction, OnePointExtension, TemplateTally)
from urygrid.relations import GridFunctionSpace, enumerate_carrier
from urygrid.spaces import (FiniteMetricSpace, PartialSpec, QuotientResult,
                            ValidationReport, Violation, quotient_pseudometric)

AB = FiniteMetricSpace(("a", "b"), 2, ((0, 1), (1, 0)))
ABC = FiniteMetricSpace(("a", "b", "c"), 2, ((0, 1, 2), (1, 0, 1), (2, 1, 0)))
TRIANGLE = Violation("triangle", "d(a,c) = 3 > 1 + 1 via b", (0, 2, 1))
QUOTIENT = quotient_pseudometric(FiniteMetricSpace(("a", "b", "c"), 2,
                                                   ((0, 0, 1), (0, 0, 1), (1, 1, 0)), True))
CARRIER = enumerate_carrier(AB)

# class, its fields in order, a full argument tuple, and the defaults
RECORDS = [
    (Violation, ("kind", "message", "witness"),
     ("triangle", "d(a,c) = 3 > 1 + 1 via b", (0, 2, 1)), {"witness": ()}),
    (ValidationReport, ("problems",), ((TRIANGLE,),), {}),
    (FiniteMetricSpace, ("points", "denominator", "dist", "pseudo"),
     (("a", "b"), 2, ((0, 1), (1, 0)), False), {"pseudo": False}),
    (PartialSpec, ("points", "denominator", "entries"),
     (("a", "b", "c"), 4, ((0, 1, None), (1, 0, 1), (None, 1, 0))), {}),
    (QuotientResult, ("space", "classes", "projection"),
     (QUOTIENT.space, QUOTIENT.classes, QUOTIENT.projection), {}),
    (KatetovFunction, ("space", "support", "values"), (AB, ("a",), (1,)), {}),
    (OnePointExtension, ("space", "new_point", "identified_with"), (ABC, "c", ()), {}),
    (InjectivityReport, ("checked", "unrealized"), (4, ((("a",), (2,)),)), {}),
    (ApproximantResult, ("space", "status", "added", "strategy"),
     (ABC, "closed", 1, "random"), {}),
    (TemplateTally, ("tried", "complete_n"), (7, 3), {"tried": 0, "complete_n": 0}),
    (HomogeneityReport, ("checked", "non_extendable"), (5, ((("a", "b"),),)), {}),
    (PartialIsometryRelation, ("space", "pairs"), (AB, (("a", "b"), ("b", "a"))), {}),
    (OrbitDistance, ("value", "word", "words_searched"), (1, ((0, 1),), 3), {}),
    (BiKatetovMatrix, ("space", "entries"), (AB, ((0, 1), (1, 0))), {}),
    (EnumeratedPair, ("x", "y"), (AB, AB), {}),
    (WeightedAlphabet, ("letters", "denominator", "dist", "weights"),
     (("x", "y"), 10, ((0, 3), (3, 0)), (1, 2)), {}),
    (GridFunctionSpace, ("space", "members"), (AB, CARRIER.members), {}),
]

# the lookup tables derived from the fields, with a value unlike the one built
SIDE_FIELDS = {FiniteMetricSpace: ("_index", {}), GridFunctionSpace: ("_position", {}),
               WeightedAlphabet: ("_flat", ())}

ids = [r[0].__name__ for r in RECORDS]


def values(rec, fields):
    return tuple(getattr(rec, f) for f in fields)


def record_classes(cls=Record) -> set:
    """Every subclass of ``cls``, at any depth, defined so far."""
    return {c for sub in cls.__subclasses__() for c in {sub} | record_classes(sub)}


def test_every_record_class_is_listed():
    for module in pkgutil.walk_packages(urygrid.__path__, "urygrid."):
        importlib.import_module(module.name)
    assert record_classes() == {r[0] for r in RECORDS}


@pytest.mark.parametrize("cls, fields, args, defaults", RECORDS, ids=ids)
class TestRecord:
    def test_positional_and_keyword_construction_agree(self, cls, fields, args, defaults):
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(fields, args)))
        assert values(by_position, fields) == values(by_keyword, fields) == args
        assert by_position == by_keyword

    def test_defaults(self, cls, fields, args, defaults):
        given = {f: a for f, a in zip(fields, args) if f not in defaults}
        rec = cls(**given)
        for name, default in defaults.items():
            assert getattr(rec, name) == default
        with pytest.raises(TypeError):
            cls(*args, "one too many")
        if given:
            with pytest.raises(TypeError):
                cls()

    def test_equality_reads_the_fields_only(self, cls, fields, args, defaults):
        a, b = cls(*args), cls(*args)
        assert a == b and not a != b
        assert a.__eq__(object()) is NotImplemented
        assert a != object()
        if cls in SIDE_FIELDS:
            name, other = SIDE_FIELDS[cls]
            object.__setattr__(b, name, other)
            assert a == b
        if cls is TemplateTally:
            b.tried += 1
            assert a != b

    def test_hash_is_the_hash_of_the_field_tuple(self, cls, fields, args, defaults):
        rec = cls(*args)
        if cls is TemplateTally:
            assert cls.__hash__ is None
            with pytest.raises(TypeError):
                hash(rec)
            return
        expected = hash(values(rec, fields))
        assert hash(rec) == expected
        if cls in SIDE_FIELDS:
            name, other = SIDE_FIELDS[cls]
            object.__setattr__(rec, name, other)
            assert hash(rec) == expected

    def test_repr_lists_the_fields(self, cls, fields, args, defaults):
        rec = cls(*args)
        inner = ", ".join(f"{f}={getattr(rec, f)!r}" for f in fields)
        assert repr(rec) == f"{cls.__qualname__}({inner})"
        if cls in SIDE_FIELDS:
            assert SIDE_FIELDS[cls][0] not in repr(rec)

    def test_assignment_and_deletion(self, cls, fields, args, defaults):
        rec = cls(*args)
        if cls is TemplateTally:
            rec.tried += 4
            rec.complete_n = 5
            assert (rec.tried, rec.complete_n) == (11, 5)
            return
        for name in (*fields, "_extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert values(rec, fields) == values(cls(*args), fields)

    def test_pickle_round_trip(self, cls, fields, args, defaults):
        rec = cls(*args)
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is cls and back == rec and repr(back) == repr(rec)
        if cls in SIDE_FIELDS:
            name = SIDE_FIELDS[cls][0]
            assert getattr(back, name) == getattr(rec, name)


def test_repr_text():
    assert repr(TRIANGLE) == ("Violation(kind='triangle', "
                              "message='d(a,c) = 3 > 1 + 1 via b', witness=(0, 2, 1))")
    assert repr(AB) == ("FiniteMetricSpace(points=('a', 'b'), denominator=2, "
                        "dist=((0, 1), (1, 0)), pseudo=False)")
    assert repr(TemplateTally()) == "TemplateTally(tried=0, complete_n=0)"
    assert repr(OrbitDistance(None, None, 0)) == \
        "OrbitDistance(value=None, word=None, words_searched=0)"


def test_records_of_different_classes_never_compare_equal():
    assert InjectivityReport(5, ()) != HomogeneityReport(5, ())
    assert EnumeratedPair(AB, AB) != GridFunctionSpace(AB, CARRIER.members)


@pytest.mark.parametrize("cls", [BiKatetovMatrix, WeightedAlphabet])
def test_validated_classes_keep_their_own_post_init(cls):
    # the benchmark's tracer counts validated constructions by wrapping
    # exactly these two methods, so construction must call them
    assert "__post_init__" in cls.__dict__
    calls = []
    original = cls.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    cls.__post_init__ = counted
    try:
        args = dict((r[0], r[2]) for r in RECORDS)[cls]
        cls(*args)
    finally:
        cls.__post_init__ = original
    assert len(calls) == 1
