"""Grid file formats.

Binary format ``GHK1``::

    magic    4 bytes   b"GHK1"
    dim      u32 LE
    extents  dim * u32 LE
    spacing  f64 LE
    origin   dim * i64 LE
    values   prod(extents) * f64 LE, row-major

The JSON format carries the same fields; ``values`` is either a plain list
(floats serialized in shortest round-trip form) or base64 of the raw
little-endian f64 bytes under ``values_b64``. Both formats round-trip
bit-exactly.
"""

from __future__ import annotations

import base64
import json
import struct

import numpy as np

from .grid import GridFunction, _frozen

MAGIC = b"GHK1"


class GridFormatError(ValueError):
    """Raised for malformed grid files."""


def write_ghk(f, path):
    """Write a :class:`GridFunction` in the GHK1 binary format."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", f.dim))
        fh.write(struct.pack(f"<{f.dim}I", *f.extents))
        fh.write(struct.pack("<d", f.spacing))
        fh.write(struct.pack(f"<{f.dim}q", *f.origin))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_ghk(path):
    """Read a GHK1 binary file back into a :class:`GridFunction`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8 or data[:4] != MAGIC:
        raise GridFormatError(f"{path}: not a GHK1 file (bad magic)")
    off = 4
    (dim,) = struct.unpack_from("<I", data, off)
    off += 4
    if not (1 <= dim <= 3):
        raise GridFormatError(f"{path}: unsupported dimension {dim}")
    try:
        extents = struct.unpack_from(f"<{dim}I", data, off)
        off += 4 * dim
        (spacing,) = struct.unpack_from("<d", data, off)
        off += 8
        origin = struct.unpack_from(f"<{dim}q", data, off)
        off += 8 * dim
    except struct.error as exc:
        raise GridFormatError(f"{path}: truncated header") from exc
    count = int(np.prod(extents))
    need = off + 8 * count
    if len(data) != need:
        raise GridFormatError(
            f"{path}: expected {need} bytes for {count} values, got {len(data)}"
        )
    values = np.frombuffer(data, dtype="<f8", count=count, offset=off)
    values = values.reshape(extents).astype(np.float64)
    try:
        return GridFunction(values, spacing, origin)
    except ValueError as exc:
        raise GridFormatError(f"{path}: {exc}") from exc


def to_json_dict(f, values_encoding="list"):
    """Serialize to the JSON field layout; ``values_encoding`` is ``list`` or ``base64``."""
    doc = {
        "format": "GHK1",
        "dim": f.dim,
        "extents": list(f.extents),
        "spacing": f.spacing,
        "origin": list(f.origin),
    }
    if values_encoding == "list":
        doc["values"] = [float(v) for v in f.values.ravel()]
    elif values_encoding == "base64":
        raw = np.ascontiguousarray(f.values, dtype="<f8").tobytes()
        doc["values_b64"] = base64.b64encode(raw).decode("ascii")
    else:
        raise ValueError(f"unknown values encoding {values_encoding!r}")
    return doc


def from_json_dict(doc):
    try:
        dim = int(doc["dim"])
        extents = tuple(int(n) for n in doc["extents"])
        spacing = float(doc["spacing"])
        origin = tuple(int(o) for o in doc["origin"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GridFormatError(f"bad JSON grid header: {exc}") from exc
    if len(extents) != dim or len(origin) != dim:
        raise GridFormatError("extents/origin length does not match dim")
    count = int(np.prod(extents))
    if "values" in doc:
        values = np.asarray(doc["values"], dtype=np.float64)
    elif "values_b64" in doc:
        raw = base64.b64decode(doc["values_b64"])
        values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    else:
        raise GridFormatError("JSON grid carries neither 'values' nor 'values_b64'")
    if values.size != count:
        raise GridFormatError(f"expected {count} values, got {values.size}")
    try:
        return GridFunction(_frozen(values.reshape(extents)), spacing, origin)
    except ValueError as exc:
        raise GridFormatError(str(exc)) from exc


def write_json(f, path, values_encoding="list"):
    with open(path, "w") as fh:
        json.dump(to_json_dict(f, values_encoding), fh)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GridFormatError(f"{path}: invalid JSON: {exc}") from exc
    return from_json_dict(doc)


def read_grid(path):
    """Read either format, sniffing the GHK1 magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return read_ghk(path)
    return read_json(path)


def write_grid(f, path):
    """Write binary when the suffix is ``.ghk``, JSON otherwise."""
    if str(path).endswith(".ghk"):
        write_ghk(f, path)
    else:
        write_json(f, path)
