"""Append-only JSONL: the line format and commit rule of every persisted log.

The campaign store (manifest, campaign log, wall times, trial shards), the
telemetry sidecars and the benchmark history are all append-only files of
one JSON object per line, written and read through this module.

Commit rule
-----------
A record is appended as one complete line with a single write and a flush,
so a crash can damage only the final line of a file.  That line is *torn*
when it lacks its terminating newline (the write was cut short) or does not
parse (the page holding it was lost, say to a power failure).  A torn line
never committed: :func:`read` drops it, and :func:`repair` truncates it
before a writer appends behind it -- a record welded onto it would sit in
the middle of the file, where no later read could skip it.  A malformed or
non-object line anywhere else is corruption, and :func:`read` raises the
caller's error for it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Type, Union

__all__ = ["append", "dumps", "jsonable", "read", "repair"]

_NEWLINE = b"\n"
#: What :func:`_parse` returns for a line that does not parse (``None`` is
#: the JSON value ``null``).
_UNPARSEABLE = object()


def dumps(payload: Mapping[str, Any]) -> str:
    """One line (newline included) with deterministic key order."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=True) + "\n"


def append(path: Union[str, Path], payload: Mapping[str, Any]) -> int:
    """Append ``payload`` as one line with one write and a flush; returns the
    number of bytes written."""
    line = dumps(payload).encode("utf-8")
    with open(path, "ab") as handle:
        handle.write(line)
        handle.flush()
    return len(line)


def repair(path: Union[str, Path]) -> bytes:
    """Truncate a torn final line; returns the committed bytes left.

    Writers call this before their first append to an existing file.  A
    missing file has no committed bytes.
    """
    path = Path(path)
    if not path.exists():
        return b""
    raw = path.read_bytes()
    end = _committed_end(raw)
    if end < len(raw):
        with path.open("rb+") as handle:
            handle.truncate(end)
    return raw[:end]


def read(path: Union[str, Path], error: Type[Exception],
         tolerate_torn_tail: bool = True) -> Iterator[Dict[str, Any]]:
    """Yield the committed records of a JSONL file in append order.

    A missing file has none.  A torn final line is dropped, or raises
    ``error`` when ``tolerate_torn_tail`` is false (a file that is never
    appended to again, such as a full store shard, has no reason to hold
    one).  A malformed or non-object line anywhere else raises ``error``.
    Blank lines are skipped.
    """
    path = Path(path)
    if not path.exists():
        return
    raw = path.read_bytes()
    end = _committed_end(raw)
    if end < len(raw) and not tolerate_torn_tail:
        raise error(f"{path}:{raw.count(_NEWLINE, 0, end) + 1}: "
                    "torn final line")
    for number, line in enumerate(raw[:end].split(_NEWLINE), start=1):
        if not line.strip():
            continue
        payload = _parse(line)
        if payload is _UNPARSEABLE:
            raise error(f"{path}:{number}: corrupt line")
        if not isinstance(payload, dict):
            raise error(f"{path}:{number}: expected a JSON object")
        yield payload


def jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays (and nested containers) to JSON types."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(key): jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    tolist = getattr(value, "tolist", None)
    if tolist is not None:  # numpy arrays and scalars
        return jsonable(tolist())
    item = getattr(value, "item", None)
    if item is not None:
        return item()
    return repr(value)


def _parse(line: bytes) -> Any:
    """The JSON value of one line, or :data:`_UNPARSEABLE`."""
    try:
        return json.loads(line.decode("utf-8"))
    except ValueError:  # also UnicodeDecodeError
        return _UNPARSEABLE


def _committed_end(raw: bytes) -> int:
    """Where the committed lines of ``raw`` end: at the start of a torn
    final line, else at the end of ``raw``."""
    start = raw.rfind(_NEWLINE, 0, len(raw) - 1) + 1
    final = raw[start:]
    if not final.endswith(_NEWLINE) or \
            (final.strip() and _parse(final) is _UNPARSEABLE):
        return start
    return len(raw)
