import math
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from driftcast.errors import DriftcastError
from driftcast.serialize import dump, dumps, load, read_csv, write_csv


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


def test_csv_cells_and_line_ends(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b", "c"], [(0.1, None, "x"), (math.nan, -math.inf, 3),
                                   (-0.0, 1e17, "y,z")])
    assert p.read_bytes() == (b"a,b,c\r\n0.10000000000000001,,x\r\nnan,-inf,3\r\n"
                              b'-0,1e+17,"y,z"\r\n')
    assert list(read_csv(p)) == [["a", "b", "c"], ["0.10000000000000001", "", "x"],
                                 ["nan", "-inf", "3"], ["-0", "1e+17", "y,z"]]


def test_read_csv_rejects_other_encodings(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"a,b\ncaf\xe9,1\n")
    with pytest.raises(DriftcastError, match="latin1.csv is not a UTF-8 text file"):
        list(read_csv(p))
