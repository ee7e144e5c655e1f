"""The one read/write path for every file a pipeline run leaves behind.

Every file is written atomically: the text goes to a temporary file in the
destination directory, which then replaces the destination with
``os.replace``, so a reader sees the old file or the new one, never a torn
write.

JSON artifacts share one envelope: an object holding ``kind``, ``version``
and the artifact's named fields, with sorted keys.  A numeric array is a
field holding a blob ``{"dtype": "<i8" | "<f8", "shape": [...], "data":
<base64>}`` of its little-endian bytes, so floats round-trip bit for bit and
a large array parses as one string.  :func:`read` checks the kind, the
version, each field's type and each array's dtype and shape, and raises
:class:`~classlink.errors.ParseError` naming the file on any mismatch.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import os
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .errors import ParseError

ARTIFACT_VERSION = 2

INT = "<i8"
FLOAT = "<f8"
_NATIVE = {INT: np.int64, FLOAT: np.float64}


def write_text(path: str | Path, *parts: str | bytes) -> Path:
    """Atomically replace ``path`` with the text ``parts``, written in order
    to one handle, creating its directory.  A ``bytes`` part is ASCII text
    that goes to the file as it is, so no encoded copy of it is made."""
    return _write_parts(Path(path), parts)


def _write_parts(path: Path, parts: Iterable[str | bytes]) -> Path:
    """:func:`write_text` of parts taken one at a time from an iterable; if
    taking one fails, the temporary file goes and ``path`` is left as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            for part in parts:
                if isinstance(part, bytes):
                    fh.flush()
                    fh.buffer.write(part)
                else:
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


# Raw bytes base64-encoded per call (192 KiB): a multiple of 3, so the slices'
# texts join into the text of the whole.  The encoder's transient buffer and
# the part just written stay small against a large array's text.
_B64_SLICE = 3 << 16


def _json_parts(obj) -> Iterator[str | bytes]:
    """The text of ``json.dumps(obj, sort_keys=True)`` in parts, where each
    numpy array, at any depth of objects, is a blob whose base64 data is
    ``bytes`` parts of its own.  Base64 needs no JSON escaping, so the escaped
    copy and the joined text that ``json.dumps`` would make of it are never
    made.  Each part encodes :data:`_B64_SLICE` raw bytes, a view of the
    array's own buffer, so no encoded copy of a whole array is made."""
    if isinstance(obj, np.ndarray):
        arr = _blob_array(obj)
        raw = memoryview(arr.reshape(-1)).cast("B")
        yield '{"data": "'
        for start in range(0, len(raw), _B64_SLICE):
            yield base64.b64encode(raw[start : start + _B64_SLICE])
        yield f'", "dtype": "{arr.dtype.str}", "shape": {json.dumps(list(arr.shape))}}}'
    elif isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        yield "{"
        for i, key in enumerate(sorted(obj)):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from _json_parts(obj[key])
        yield "}"
    else:
        yield json.dumps(obj, sort_keys=True)


def write(path: str | Path, kind: str, fields: dict, arrays: dict | None = None) -> Path:
    """Write one enveloped JSON artifact atomically.

    Each of ``arrays`` (``None`` stays ``null``), and each numpy array inside
    ``fields``, is stored as a blob.  The text is serialised part by part
    into the temporary file, so a value JSON cannot hold fails the write and
    leaves the old file.
    """
    blobs = {
        name: None if arr is None else np.asarray(arr) for name, arr in (arrays or {}).items()
    }
    payload = {"kind": kind, "version": ARTIFACT_VERSION, **fields, **blobs}
    return _write_parts(Path(path), itertools.chain(_json_parts(payload), ("\n",)))


def read(
    path: str | Path,
    kind: str,
    fields: dict | None = None,
    arrays: dict | None = None,
    optional: tuple[str, ...] = (),
) -> dict:
    """Read an artifact written by :func:`write` and check it; see :func:`decode`."""
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
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
    return decode(path, payload, fields, arrays, optional)


def decode(
    path: str | Path,
    obj,
    fields: dict | None = None,
    arrays: dict | None = None,
    optional: tuple[str, ...] = (),
) -> dict:
    """The named fields and decoded arrays of one JSON object.

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
        blob = obj[name]
        out[name] = (
            None
            if blob is None and name in optional
            else _decode_array(f"{path}: array {name!r}", blob, dtype, shape)
        )
    return out


def _decode_array(where: str, blob, dtype: str, shape: tuple) -> np.ndarray:
    if not isinstance(blob, dict) or set(blob) != {"dtype", "shape", "data"}:
        raise ParseError(f"{where} is not a {{dtype, shape, data}} blob")
    if blob["dtype"] != dtype:
        raise ParseError(f"{where} has dtype {blob['dtype']!r}, expected {dtype!r}")
    dims = blob["shape"]
    if (
        not isinstance(dims, list)
        or len(dims) != len(shape)
        or any(type(d) is not int or d < 0 for d in dims)
        or any(want is not None and d != want for d, want in zip(dims, shape))
    ):
        raise ParseError(f"{where} has shape {dims!r}, expected {list(shape)}")
    try:
        raw = base64.b64decode(blob["data"], validate=True)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where} data is not base64 ({exc})") from exc
    if len(raw) != 8 * math.prod(dims):
        raise ParseError(f"{where} holds {len(raw)} bytes, not {8 * math.prod(dims)}")
    return np.frombuffer(raw, dtype=dtype).reshape(dims).astype(_NATIVE[dtype])
