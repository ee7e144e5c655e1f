"""The one read/write path for every file a pipeline run leaves behind.

Every file is written atomically: the bytes go to a temporary file in the
destination directory, which then replaces the destination with
``os.replace``, so a reader sees the old file or the new one, never a torn
write.

An artifact is its envelope on the first line, a newline, then the raw bytes
of its arrays.  The envelope is a JSON object with sorted keys holding
``kind``, ``version`` and the artifact's named fields.  A numeric array, in a
field at any depth of objects, is a blob ``{"dtype": "<i8" | "<f8", "shape":
[...], "offset": <int>}``: its little-endian bytes start ``offset`` bytes
after the newline, the arrays' bytes follow one another in the order the
envelope lists their blobs, and the blobs tile those bytes exactly, so
floats round-trip bit for bit and no array is ever text.  An artifact
without arrays is a one-line JSON document.  :func:`read` checks the kind,
the version and the blobs' layout and reads each array's bytes straight
into it; :func:`decode` checks each field's type and each array's dtype and
shape.  Any mismatch raises :class:`~classlink.errors.ParseError` naming the
file.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .errors import ParseError

ARTIFACT_VERSION = 3

INT = "<i8"
FLOAT = "<f8"
_NATIVE = {INT: np.int64, FLOAT: np.float64}
_BLOB_KEYS = {"dtype", "shape", "offset"}


def write_text(path: str | Path, *parts: str) -> Path:
    """Atomically replace ``path`` with the UTF-8 text ``parts``, written in
    order to one handle, creating its directory."""
    return _write_parts(Path(path), (part.encode() for part in parts))


def _write_parts(path: Path, parts: Iterable[bytes | memoryview]) -> Path:
    """Atomically replace ``path`` with byte parts taken one at a time from
    an iterable; if taking one fails, the temporary file goes and ``path``
    is left as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _blob_array(arr) -> np.ndarray:
    """``arr`` as the C-contiguous ``<f8`` (float) or ``<i8`` (integer or
    boolean) array, of the same shape (0-d included), whose bytes a blob holds."""
    arr = np.asarray(arr)
    return np.asarray(arr, dtype=FLOAT if arr.dtype.kind == "f" else INT, order="C")


def _with_blobs(obj, stored: list[np.ndarray]):
    """``obj`` with each numpy array at any depth of objects replaced by its
    blob.  Keys are visited in sorted order, as ``json.dumps(...,
    sort_keys=True)`` lists them, so ``stored`` receives the arrays in the
    order of their bytes."""
    if isinstance(obj, np.ndarray):
        arr = _blob_array(obj)
        offset = sum(a.nbytes for a in stored)
        stored.append(arr)
        return {"dtype": arr.dtype.str, "shape": list(arr.shape), "offset": offset}
    if isinstance(obj, dict):
        return {key: _with_blobs(obj[key], stored) for key in sorted(obj)}
    return obj


def write(path: str | Path, kind: str, fields: dict, arrays: dict | None = None) -> Path:
    """Write one artifact atomically.

    Each of ``arrays`` (``None`` stays ``null``), and each numpy array inside
    ``fields``, is stored as a blob.  The envelope is serialised before the
    temporary file is opened, so a value JSON cannot hold fails the write
    and leaves the old file; each array's bytes are then written from its
    own buffer.
    """
    blobs = {
        name: None if arr is None else np.asarray(arr) for name, arr in (arrays or {}).items()
    }
    stored: list[np.ndarray] = []
    envelope = _with_blobs({"kind": kind, "version": ARTIFACT_VERSION, **fields, **blobs}, stored)
    head = json.dumps(envelope, sort_keys=True) + "\n"
    return _write_parts(
        Path(path), [head.encode(), *(memoryview(arr.reshape(-1)).cast("B") for arr in stored)]
    )


def read(
    path: str | Path,
    kind: str,
    fields: dict | None = None,
    arrays: dict | None = None,
    optional: tuple[str, ...] = (),
) -> dict:
    """Read an artifact written by :func:`write` and check it; see :func:`decode`."""
    try:
        with open(path, "rb") as fh:
            payload = _load(path, fh, kind)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return decode(path, payload, fields, arrays, optional)


def _load(path: str | Path, fh, kind: str) -> dict:
    """The envelope of the open artifact ``fh``, each blob replaced by its
    array, whose bytes are read into it from the rest of the file."""
    head = fh.readline()
    try:
        payload = json.loads(head)
    except ValueError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: not a {kind} artifact (the JSON is not an object)")
    if payload.get("kind") != kind:
        raise ParseError(f"{path}: not a {kind} artifact (kind {payload.get('kind')!r})")
    if payload.get("version") != ARTIFACT_VERSION:
        raise ParseError(
            f"{path}: artifact format version {payload.get('version')!r}, this "
            f"classlink reads version {ARTIFACT_VERSION}; rebuild the run directory "
            "(remove it and run the pipeline again)"
        )
    blobs = [(*_extent(path, obj, name), obj, name) for obj, name in _blobs(payload)]
    blobs.sort(key=lambda blob: blob[0])
    size = os.fstat(fh.fileno()).st_size - len(head)
    end, before = 0, None
    for offset, nbytes, _, name in blobs:
        if offset > end:
            raise ParseError(f"{path}: a gap of {offset - end} bytes before array {name!r}")
        if offset < end:
            raise ParseError(
                f"{path}: array {name!r} overlaps array {before!r} by {end - offset} bytes"
            )
        end, before = end + nbytes, name
    if end > size:
        raise ParseError(
            f"{path}: array {before!r} ends at byte {end} of the array bytes, past the "
            f"file's end at {size} (the file is cut short)"
        )
    if end < size:
        raise ParseError(f"{path}: {size - end} trailing bytes after the arrays")
    for _, nbytes, obj, name in blobs:
        blob = obj[name]
        arr = np.empty(blob["shape"], dtype=blob["dtype"])
        if fh.readinto(memoryview(arr.reshape(-1)).cast("B")) != nbytes:
            raise ParseError(f"{path}: the file ends inside array {name!r} (cut short)")
        obj[name] = arr.astype(_NATIVE[blob["dtype"]], copy=False)
    return payload


def _blobs(obj: dict) -> Iterator[tuple[dict, str]]:
    """``(object, key)`` of each blob at any depth of objects in ``obj``, in
    the order the envelope lists them."""
    for key, value in obj.items():
        if isinstance(value, dict):
            if value.keys() == _BLOB_KEYS:
                yield obj, key
            else:
                yield from _blobs(value)


def _extent(path: str | Path, obj: dict, name: str) -> tuple[int, int]:
    """``(offset, byte count)`` of the blob ``obj[name]``, checked."""
    where = f"{path}: array {name!r}"
    dtype, dims, offset = (obj[name][key] for key in ("dtype", "shape", "offset"))
    if dtype not in (INT, FLOAT):
        raise ParseError(f"{where} has dtype {dtype!r}, not {INT!r} or {FLOAT!r}")
    if not isinstance(dims, list) or any(type(d) is not int or d < 0 for d in dims):
        raise ParseError(f"{where} has shape {dims!r}, not a list of lengths")
    if type(offset) is not int or offset < 0:
        raise ParseError(f"{where} has offset {offset!r}, not a byte position")
    return offset, 8 * math.prod(dims)


def decode(
    path: str | Path,
    obj,
    fields: dict | None = None,
    arrays: dict | None = None,
    optional: tuple[str, ...] = (),
) -> dict:
    """The named fields and arrays of one object of an envelope that
    :func:`read` has bound to its arrays.

    ``fields`` maps a name to the type (or tuple of types) its value must
    have exactly, so ``True`` is not an ``int``; ``arrays`` maps a name to
    ``(dtype, shape)``, where ``shape`` has one entry per dimension and
    ``None`` matches any length.  Names in ``optional`` may hold ``null``.
    Every name must be present; other keys are ignored.
    """
    fields, arrays = fields or {}, arrays or {}
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object, found {type(obj).__name__}")
    missing = [name for name in (*fields, *arrays) if name not in obj]
    if missing:
        raise ParseError(f"{path}: missing field(s) {', '.join(missing)}")
    out = {}
    for name, types in fields.items():
        value = obj[name]
        types = types if isinstance(types, tuple) else (types,)
        if not (value is None and name in optional) and type(value) not in types:
            expected = " or ".join(t.__name__ for t in types)
            raise ParseError(
                f"{path}: field {name!r} must be {expected}, found {type(value).__name__}"
            )
        out[name] = value
    for name, (dtype, shape) in arrays.items():
        value = obj[name]
        out[name] = (
            None
            if value is None and name in optional
            else _check_array(f"{path}: array {name!r}", value, dtype, shape)
        )
    return out


def _check_array(where: str, arr, dtype: str, shape: tuple) -> np.ndarray:
    if not isinstance(arr, np.ndarray):
        raise ParseError(f"{where} is not a {{dtype, shape, offset}} blob")
    if arr.dtype != _NATIVE[dtype]:
        raise ParseError(f"{where} has dtype {arr.dtype.str!r}, expected {dtype!r}")
    dims = list(arr.shape)
    if len(dims) != len(shape) or any(
        want is not None and d != want for d, want in zip(dims, shape)
    ):
        raise ParseError(f"{where} has shape {dims!r}, expected {list(shape)}")
    return arr
