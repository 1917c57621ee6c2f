"""Record classes: the behaviour the package relied on from ``dataclasses``,
checked against ``dataclasses`` itself where the two should agree."""

import dataclasses
from functools import cached_property

import pytest

from repsieve._record import record


def pair_classes():
    """The same two-field class made by ``record`` and by ``dataclass``."""

    def body():
        class Point:
            x: int
            y: tuple = ()

        return Point

    return record(body()), dataclasses.dataclass(frozen=True)(body())


@pytest.mark.parametrize(
    "args, kwargs",
    [((1,), {}), ((1, (2,)), {}), ((), {"x": 1}), ((1,), {"y": (3,)}), ((), {"y": (), "x": 4})],
)
def test_binding_repr_eq_and_hash_match_dataclasses(args, kwargs):
    Rec, Ref = pair_classes()
    rec, ref = Rec(*args, **kwargs), Ref(*args, **kwargs)
    assert vars(rec) == vars(ref)
    assert repr(rec) == repr(ref)
    assert hash(rec) == hash(ref) == hash((rec.x, rec.y))
    assert rec == Rec(*args, **kwargs) and not rec != Rec(*args, **kwargs)
    assert rec != Rec(rec.x + 1, rec.y)


def test_single_field_hashes_as_a_one_tuple():
    @record
    class One:
        key: tuple

    @dataclasses.dataclass(frozen=True)
    class Ref:
        key: tuple

    assert hash(One((1, 2))) == hash(Ref((1, 2))) == hash(((1, 2),))
    assert repr(One((1, 2))) == "test_single_field_hashes_as_a_one_tuple.<locals>.One(key=(1, 2))"


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), ((1, 2, 3), {}), ((1,), {"x": 2}), ((1,), {"z": 2})],
    ids=["missing", "too-many", "repeated", "unknown"],
)
def test_bad_arguments_raise_type_error(args, kwargs):
    Rec, _ = pair_classes()
    with pytest.raises(TypeError):
        Rec(*args, **kwargs)


def test_equality_needs_the_same_class():
    Rec, Ref = pair_classes()
    Other, _ = pair_classes()
    assert Rec(1) != Other(1)
    assert Rec(1) != Ref(1)
    assert Rec(1) != (1, ())


def test_frozen_instances_refuse_assignment_and_deletion():
    Rec, _ = pair_classes()
    p = Rec(1)
    with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
        p.x = 2
    with pytest.raises(AttributeError, match="cannot assign to field 'z'"):
        p.z = 2
    with pytest.raises(AttributeError, match="cannot delete field 'x'"):
        del p.x
    assert p.x == 1


def test_post_init_own_repr_and_cached_property():
    calls = []

    @record
    class Checked:
        n: int

        def __post_init__(self):
            if self.n < 0:
                raise ValueError("n must be >= 0")
            calls.append(self.n)

        def __repr__(self):
            return f"<{self.n}>"

        @cached_property
        def square(self):
            return self.n * self.n

    c = Checked(n=3)
    assert calls == [3]
    with pytest.raises(ValueError):
        Checked(-1)
    assert repr(c) == "<3>"
    assert c.square == 9 and c.square is c.__dict__["square"]
    assert c == Checked(3)
