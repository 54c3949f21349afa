"""Deterministic JSON/CSV emission, CSV reading and content hashing.

Python's ``json`` and ``csv`` write every float in its shortest round-trip
text, so a 64-bit value reads back with the same bits; no timestamps or
other run-dependent payloads are ever emitted, which makes artifact files
byte-comparable across runs. Every CSV artifact is written by
:func:`write_csv` and read by :func:`read_csv`.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json

import numpy as np

from .errors import DriftcastError


def record(obj) -> dict:
    """A dataclass's JSON form: its fields in declaration order, each field
    that holds a tuple as a list."""
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in dataclasses.asdict(obj).items()}


def dump(obj, path) -> None:
    """Write ``obj`` as one line of JSON. A non-finite float raises
    ValueError and writes no file."""
    text = json.dumps(obj, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load(path):
    """Read a JSON file; text that is not JSON raises DriftcastError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise DriftcastError(f"{path} is not a JSON file: {exc}") from None


def write_csv(path, header, rows) -> None:
    """Write a header and rows as UTF-8 CSV with CRLF line ends (RFC 4180).

    ``csv`` writes ``None`` as an empty cell and anything else with
    ``str``: a float in its shortest round-trip text, or ``nan``, ``inf``
    or ``-inf`` when not finite.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path):
    """Yield a UTF-8 CSV file's rows, header first with each name stripped of
    surrounding whitespace. Other bytes, and a header that names a column
    twice (blank cells aside), raise DriftcastError."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = csv.reader(fh)
            for header in rows:  # the first row only
                header = [h.strip() for h in header]
                names = [h for h in header if h]
                for name in names:
                    if names.count(name) > 1:
                        raise DriftcastError(f"{path}: column {name!r} appears twice in the header")
                yield header
                break
            yield from rows
    except UnicodeDecodeError:
        raise DriftcastError(f"{path} is not a UTF-8 text file") from None


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_arrays(*arrays) -> str:
    """Content hash of numpy arrays (dtype/shape included)."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()
