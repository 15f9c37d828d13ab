"""One way to persist a line: append-only JSON-lines files.

Every journal in the repo — the job queue's op log, the supervised-run
journal, telemetry event/metrics streams, the fleet rollups — is one
compact JSON object per line, appended and flushed per record, so a
crash leaves a complete file up to at most one torn *final* line.  This
leaf module (it imports nothing from :mod:`repro`) holds the one writer
and the one reader of that format.
"""

from __future__ import annotations

import json
import os
import pathlib
import warnings

import numpy as np


def jsonable(value):
    """Coerce numpy scalars/arrays and paths into JSON-serialisable
    types (recursively through lists, tuples and dicts)."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, pathlib.Path):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value


def append(fh, obj, *, fsync: bool = False) -> str:
    """Write ``obj`` as one line to the open text stream ``fh`` and
    flush it; ``fsync=True`` also forces it to disk before returning
    (the journals whose loss would break exactly-once ask for that).
    Values JSON cannot represent are written as their ``str()``.
    Returns the line written (pure ASCII, newline included)."""
    line = json.dumps(obj, separators=(",", ":"), default=str) + "\n"
    fh.write(line)
    fh.flush()
    if fsync:
        os.fsync(fh.fileno())
    return line


def read(path, *, warn: bool = False) -> list[dict]:
    """Parse a JSON-lines file.  A torn *final* line (crash mid-append:
    the record never happened) is skipped, with a warning when ``warn``;
    a torn line anywhere else is corruption and raises ``ValueError``."""
    records: list[dict] = []
    lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if i != len(lines) - 1:
                raise
            if warn:
                warnings.warn(f"{path}: torn final line skipped")
    return records
