"""Deterministic JSON/CSV emission, CSV reading and content hashing.

Floats are written with 17 significant digits so a 64-bit value survives a
round-trip exactly; no timestamps or other run-dependent payloads are ever
emitted, which makes artifact files byte-comparable across runs. Every CSV
artifact is written by :func:`write_csv` and read by :func:`read_csv`.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math

import numpy as np

from .errors import DriftcastError


def record(obj) -> dict:
    """A dataclass's JSON form: its fields in declaration order, each field
    that holds a tuple as a list."""
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in dataclasses.asdict(obj).items()}


def fmt_float(x: float) -> str:
    if isinstance(x, float) and not math.isfinite(x):
        return "null"
    return format(float(x), ".17g")


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def dump(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def _parse_int(text: str):
    # fmt_float writes -0.0 as "-0", which JSON reads as the int 0
    return -0.0 if text == "-0" else int(text)


def load(path):
    """Read a JSON file; a bare ``-0`` comes back as -0.0, so every finite
    float that :func:`dump` wrote reads back with the same bits."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_parse_int)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise DriftcastError(f"{path} is not a JSON file: {exc}") from None


def write_csv(path, header, rows) -> None:
    """Write a header and rows as UTF-8 CSV with CRLF line ends (RFC 4180).

    A float cell is written with 17 significant digits (``nan``, ``inf``
    or ``-inf`` when not finite); ``csv`` writes ``None`` as an empty cell
    and anything else with ``str``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row]
                         for row in rows)


def read_csv(path):
    """Yield a UTF-8 CSV file's rows, header first; other bytes raise DriftcastError."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield from csv.reader(fh)
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
