"""The slotted value types behave as the frozen dataclasses they replaced:
the same repr, equality and hash, fields that cannot be assigned, and the
same constructor checks."""

import dataclasses
import pickle
import re
from fractions import Fraction

import pytest

from schottky_limits.freewords import (
    EMPTY,
    SymbolWord,
    VerificationReport,
    Word,
    WordFamily,
    omega,
)
from schottky_limits.limits import OrbitSample, QIEstimate, RadialWitness, ThetaIntersection
from schottky_limits.mobius import (
    BASE_POINT,
    INFINITY,
    Boundary,
    BoundaryPoint,
    GeodesicRay,
    GroupElement,
    Interior,
)
from schottky_limits.schottky import (
    Certificate,
    Circle,
    SchottkyData,
    Violation,
    default_generators,
)

F = Fraction
SD = default_generators()
QI = QIEstimate(2.5, 0.0, 7.75, 0.0, 8)

#: the dataclass fields of each class, in order
FIELDS = {
    GroupElement: ("a", "b", "c", "d", "s"),
    Interior: ("x", "y"),
    Boundary: ("x",),
    GeodesicRay: ("base", "endpoint"),
    Word: ("letters",),
    SymbolWord: ("syllables",),
    WordFamily: ("rule", "max_index"),
    VerificationReport: (
        "max_index", "max_syllables", "words_checked", "pairs_checked", "all_nonempty",
        "outer_letters_ok", "counterexample",
    ),
    OrbitSample: ("word", "element", "point", "displacement"),
    Circle: ("center", "radius"),
    SchottkyData: (
        "gen_a", "gen_b", "circle_a", "circle_a_prime", "circle_b", "circle_b_prime",
    ),
    Certificate: ("checks",),
    Violation: ("name", "detail"),
    QIEstimate: ("lower_alpha", "lower_beta", "upper_alpha", "upper_beta", "max_length"),
    RadialWitness: ("eta", "constant_c", "per_n"),
    ThetaIntersection: ("g1_size", "g2_size", "common", "cross_check_agrees"),
}

#: the classes whose only constructor is Value(*fields)
PLAIN = {
    OrbitSample, QIEstimate, RadialWitness, ThetaIntersection, VerificationReport,
    SchottkyData, Certificate, Violation,
}

SAMPLES = [
    GroupElement(5, 4, 4, 5, 3),
    Interior(F(1, 3), F(2)),
    Interior(0.5, 2.0),
    Boundary(F(7, 2)),
    GeodesicRay(BASE_POINT, Boundary(F(5))),
    GeodesicRay(Interior(F(-2), F(1, 2)), INFINITY),
    Word.from_string("abAB"),
    SymbolWord(((1, 1), (2, -1))),
    OrbitSample(Word.from_string("a"), SD.gen_a, Interior(F(4, 5), F(3, 5)), 2.197),
    Circle(F(19, 4), F(3, 4)),
    SD,
    Certificate(("one", "two")),
    Violation("disks-not-disjoint", "C_a and C_b footprints meet"),
    QI,
    Boundary(7.4),  # a float, read at its exact binary value
    RadialWitness(Boundary(F(5, 2)), 3.5, ((1, 3.25), (2, 3.5))),
    WordFamily(None, 6),
    WordFamily(omega, 12),
    VerificationReport(6, 4, 17568, 30240, True, True, None),
    VerificationReport(3, 2, 40, 18, True, False, "S1.S2^-1"),
    ThetaIntersection(2, 1, frozenset({EMPTY}), True),
]
IDS = [f"{type(v).__name__}-{i}" for i, v in enumerate(SAMPLES)]


def values(v):
    return [getattr(v, name) for name in FIELDS[type(v)]]


def twin(v):
    """The frozen dataclass of v's class name and fields, holding v's values."""
    cls = dataclasses.make_dataclass(type(v).__name__, FIELDS[type(v)], frozen=True)
    return cls(*values(v))


def test_every_class_sampled():
    assert {type(v) for v in SAMPLES} == set(FIELDS)


@pytest.mark.parametrize("v", SAMPLES, ids=IDS)
class TestParity:
    def test_repr(self, v):
        if type(v) is Word:  # its own repr, as the dataclass had
            assert repr(v) == "Word('abAB')"
        else:
            assert repr(v) == repr(twin(v))

    def test_equal_values_equal_hash(self, v):
        again = type(v)(*values(v))
        assert again == v and not again != v
        assert hash(again) == hash(v) == hash(twin(v))

    def test_other_class_same_fields_not_equal(self, v):
        assert v != twin(v) and twin(v) != v

    def test_fields_cannot_be_assigned(self, v):
        for name in FIELDS[type(v)]:
            with pytest.raises(AttributeError):
                setattr(v, name, None)
            with pytest.raises(AttributeError):
                delattr(v, name)
        with pytest.raises(AttributeError):
            v.extra = 1

    def test_pickle_round_trip(self, v):
        assert pickle.loads(pickle.dumps(v)) == v

    def test_arity(self, v):
        # as for the dataclass: one value too many raises, and one too few
        # where the class gives no defaults
        with pytest.raises(TypeError):
            type(v)(*values(v), None)
        if type(v) in PLAIN:
            signature = f"{type(v).__name__}({', '.join(FIELDS[type(v)])})"
            with pytest.raises(TypeError, match=re.escape(signature)):
                type(v)(*values(v)[:-1])


def test_circle_repr():
    assert repr(Circle(F(19, 4), F(3, 4))) == "Circle(center=Fraction(19, 4), radius=Fraction(3, 4))"


def test_interior_float_equals_fraction():
    # as for the dataclass, equality and hash follow the coordinate values
    p, q = Interior(0.5, 2.0), Interior(F(1, 2), F(2))
    assert p == q and hash(p) == hash(q)
    assert Interior(F(1, 3), F(2)) != Interior(F(1, 3), F(3))


def test_defaults():
    assert Word() == EMPTY and Word().letters == ()
    assert SymbolWord().syllables == ()
    assert WordFamily() == WordFamily(None, 50)


@pytest.mark.parametrize("build", [
    lambda: Interior(F(1), F(0)),
    lambda: Interior(F(1), F(-1, 2)),
    lambda: Interior(0.0, 0.0),
    lambda: Interior(0.0, -1.0),
    lambda: Circle(F(1), F(0)),
    lambda: Circle(F(1), F(-3, 4)),
    lambda: GeodesicRay(Boundary(F(0)), INFINITY),
    lambda: GeodesicRay(BASE_POINT, BASE_POINT),
], ids=["interior-y0", "interior-y-neg", "float-y0", "float-y-neg", "radius-0",
        "radius-neg", "ray-boundary-base", "ray-interior-endpoint"])
def test_constructor_checks(build):
    with pytest.raises(ValueError):
        build()


def test_ray_boundary_base_is_boundary_point():
    with pytest.raises(BoundaryPoint):
        GeodesicRay(Boundary(F(0)), INFINITY)
