"""Span recording and the self-time table."""

import numpy as np
import pytest

from spans import SpanRecorder, self_time_table


def test_self_time_subtracts_direct_children_only():
    names = ["root", "mid", "leaf"]
    # root [0, 10] > mid [1, 7] > leaf [2, 5]; a second leaf [8, 9] under root
    name_id = np.array([0, 1, 2, 2])
    start = np.array([0.0, 1.0, 2.0, 8.0])
    end = np.array([10.0, 7.0, 5.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    table = self_time_table(names, name_id, start, end, parent)
    assert table["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert table["mid"] == {"calls": 1, "total_s": 6.0, "self_s": 3.0}
    assert table["leaf"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(10.0)


def test_recorder_nests_and_sums_to_root():
    rec = SpanRecorder()

    def leaf(x):
        return x + 1

    wrapped_leaf = rec.wrap("leaf", leaf)

    def mid(x):
        return wrapped_leaf(wrapped_leaf(x))

    root = rec.wrap("root", rec.wrap("mid", mid))
    assert root(1) == 3
    arrays = rec.arrays()
    assert list(arrays["parent"]) == [-1, 0, 1, 1]
    assert [rec.names[i] for i in arrays["name_id"]] == ["root", "mid", "leaf", "leaf"]
    table = rec.table()
    assert table["leaf"]["calls"] == 2
    total = table["root"]["total_s"]
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(total)


def test_span_closes_on_exception_and_after_hook_runs():
    rec = SpanRecorder()
    seen = []

    def boom():
        raise RuntimeError("x")

    wrapped = rec.wrap("boom", boom)
    with pytest.raises(RuntimeError):
        wrapped()
    ok = rec.wrap("ok", lambda a, b=0: a + b, after=lambda r, args, kw: seen.append((r, args, kw)))
    assert ok(2, b=3) == 5
    assert seen == [(5, (2,), {"b": 3})]
    arrays = rec.arrays()
    assert np.all(arrays["end"] >= arrays["start"])
    assert list(arrays["parent"]) == [-1, -1]


def test_write_round_trip(tmp_path):
    rec = SpanRecorder()
    rec.wrap("a", lambda: None)()
    path = tmp_path / "spans.npz"
    rec.write(path)
    with np.load(path) as data:
        assert list(data["names"]) == ["a"]
        assert data["start"].size == 1
