import pytest

import reference
from reference import SpeedLog


@pytest.fixture
def fake_reference(monkeypatch):
    times = iter([0.1, 0.2, 0.3, 0.4, 0.5])
    monkeypatch.setattr(reference, "reference_seconds", lambda: next(times))


def test_speed_log_closes_a_segment_after_enough_work(fake_reference):
    log = SpeedLog(segment_s=1.0)
    assert log.refs == [0.1] and log.segment == 0
    log.add(0.6)
    assert log.segment == 0
    log.add(0.5)  # 1.1 s of work: segment 0 closes
    assert log.refs == [0.1, 0.2] and log.segment == 1
    log.close()  # nothing in segment 1 yet
    assert log.refs == [0.1, 0.2]
    log.add(0.3)
    log.close()
    assert log.refs == [0.1, 0.2, 0.3]


def test_reference_seconds_measures_the_kernel():
    assert reference.reference_seconds() > 0.0
