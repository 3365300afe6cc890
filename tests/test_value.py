"""The value protocol of `quivercount.value.Value` on the three classes that
take their equality, hashing and repr from it, and the immutability of
every class built on it."""

from fractions import Fraction

import pytest

from quivercount.counting import CountingContext
from quivercount.qpoly import QPoly, RationalFunction
from quivercount.quiver import Quiver, TruncationSpec
from quivercount.series import Series

KRONECKER = Quiver(("1", "2"), ((0, 2), (0, 0)))
CONE = TruncationSpec(2, 4, (1, 0), Fraction(1, 2))

KRONECKER_REPR = "Quiver(vertices=('1', '2'), arrow_counts=((0, 2), (0, 0)))"
CONE_REPR = "TruncationSpec(nvars=2, max_height=4, theta=(1, 0), mu=Fraction(1, 2))"


@pytest.mark.parametrize("make, fields, private, text", [
    (lambda: Quiver(("1", "2"), ((0, 2), (0, 0))),
     (("1", "2"), ((0, 2), (0, 0))), (), KRONECKER_REPR),
    (lambda: TruncationSpec(2, 4, [1, 0], Fraction(1, 2)),
     (2, 4, (1, 0), Fraction(1, 2)), ("_weights",), CONE_REPR),
    (lambda: CountingContext(KRONECKER, CONE),
     (KRONECKER, CONE), ("_hn_cache", "_packed"),
     f"CountingContext(quiver={KRONECKER_REPR}, trunc={CONE_REPR})"),
], ids=["Quiver", "TruncationSpec", "CountingContext"])
def test_value_protocol(make, fields, private, text):
    x, twin = make(), make()
    cls = type(x)
    assert repr(x) == text
    assert x == twin and hash(x) == hash(twin)
    # equal only to its own class, never to the tuple of its fields
    assert x.__eq__(fields) is NotImplemented and x != fields
    # a private slot (a cache or a derived value) is not part of the value
    assert tuple(name for name in cls.__slots__ if name.startswith("_")) == private
    for name in private:
        object.__setattr__(twin, name, object())
    assert x == twin and hash(x) == hash(twin) and repr(twin) == text
    for name in cls.__slots__ + ("other",):
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(x, name, None)
    assert repr(x) == text


@pytest.mark.parametrize("make", [
    lambda: Quiver(("1", "2"), ((0, 2), (0, 0))),
    lambda: TruncationSpec(2, 4, (1, 0), Fraction(1, 2)),
    lambda: CountingContext(KRONECKER, CONE),
    lambda: QPoly([1, -1, 2]),
    lambda: RationalFunction(QPoly([1, 1]), QPoly([1, -1])),
    lambda: Series(CONE, {(1, 1): 2, (2, 2): 3}),
], ids=["Quiver", "TruncationSpec", "CountingContext", "QPoly",
        "RationalFunction", "Series"])
def test_slots_cannot_be_deleted(make):
    # a deleted slot would leave a value whose repr, == and hash raise
    x, twin = make(), make()
    cls = type(x)
    for name in cls.__slots__ + ("other",):
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            delattr(x, name)
    assert x == twin and hash(x) == hash(twin) and repr(x) == repr(twin)
