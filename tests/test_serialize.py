import math
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from driftcast.serialize import dump, dumps, load


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("serialize") / "value.json"


def round_trip(path, obj):
    dump(obj, path)
    return load(path)


def test_negative_zero_keeps_its_sign(path):
    assert dumps(-0.0) == "-0"  # the artifact bytes do not change
    got = round_trip(path, {"a": [-0.0, 0.0, 0, -3]})
    assert math.copysign(1.0, got["a"][0]) == -1.0
    assert got["a"][1:] == [0, 0, -3]
    assert math.copysign(1.0, got["a"][1]) == 1.0


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(0.0)
@example(5e-324)
@example(-5e-324)
@example(2.2250738585072009e-308)  # the largest subnormal
@example(1.7976931348623157e308)
@example(1e16)
def test_every_finite_float_round_trips(path, x):
    got = round_trip(path, [x])[0]
    assert bits(got) == bits(x)
