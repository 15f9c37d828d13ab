"""Tests for ``repro.jsonl`` — the one JSON-lines writer and reader."""

import io
import json
import os
import pathlib
import warnings

import numpy as np
import pytest

from repro import jsonl
from repro.resilience import RunJournal, read_journal
from repro.telemetry import load_rollups, read_events
from repro.telemetry.metrics import load_snapshots


def test_append_writes_one_compact_line_and_flushes(tmp_path):
    path = tmp_path / "log.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        jsonl.append(fh, {"a": 1, "b": [1.5, None]})
        # flushed: visible to a reader before the handle closes
        assert path.read_text() == '{"a":1,"b":[1.5,null]}\n'
        jsonl.append(fh, {"p": pathlib.Path("/x"), "nan": float("nan")})
    assert jsonl.read(path) == [{"a": 1, "b": [1.5, None]},
                                {"p": "/x", "nan": pytest.approx(
                                    float("nan"), nan_ok=True)}]


def test_fsync_only_when_asked(tmp_path, monkeypatch):
    synced = []
    monkeypatch.setattr(os, "fsync", synced.append)
    with open(tmp_path / "log.jsonl", "a", encoding="utf-8") as fh:
        jsonl.append(fh, {"n": 1})
        assert synced == []
        jsonl.append(fh, {"n": 2}, fsync=True)
        assert synced == [fh.fileno()]


def test_torn_final_line_skipped_torn_middle_line_raises(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"n":1}\n\n{"n":2}\n{"n":3,"x"')
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # silent unless asked
        assert jsonl.read(path) == [{"n": 1}, {"n": 2}]
    with pytest.warns(UserWarning, match="torn final line"):
        assert jsonl.read(path, warn=True) == [{"n": 1}, {"n": 2}]
    path.write_text('{"n":1}\n{"n":2,"x"\n{"n":3}\n')
    with pytest.raises(json.JSONDecodeError):
        jsonl.read(path)


def test_jsonable_coerces_numpy_and_paths():
    out = jsonl.jsonable({1: np.int64(3), "f": np.float32(0.5),
                          "a": np.arange(3), "t": (pathlib.Path("p"), "s")})
    assert out == {"1": 3, "f": 0.5, "a": [0, 1, 2], "t": ["p", "s"]}
    assert type(out["1"]) is int and type(out["f"]) is float


def test_every_reader_shares_the_torn_line_discipline(tmp_path):
    path = tmp_path / "events.jsonl"
    with RunJournal(path) as journal:
        journal.event("rollback", step=np.int64(3), dt=np.float64(0.5))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"seq":1,"kind":"torn')
    expected = [{"seq": 0, "kind": "rollback", "step": 3, "dt": 0.5}]
    for reader in (read_journal, read_events):
        with pytest.warns(UserWarning, match="torn final line"):
            got = reader(path)
        assert [{k: v for k, v in e.items() if k != "wall"}
                for e in got] == expected
    for reader in (load_snapshots, load_rollups):
        assert len(reader(path)) == 1  # same skip, no warning


def test_append_accepts_any_text_stream():
    buf = io.StringIO()
    # the line written comes back, pure ASCII (one char = one byte on
    # disk: the queue advances its journal offset by its length)
    assert jsonl.append(buf, {"k": "v", "é": "ü"}) == buf.getvalue()
    assert buf.getvalue() == '{"k":"v","\\u00e9":"\\u00fc"}\n'
