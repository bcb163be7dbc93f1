"""Tail percentile and host-speed scaling."""

import pytest

from run import tail
import speed
from speed import REFERENCE_MS, SpeedGauge


def test_tail_is_the_nearest_rank_value_and_counts_jobs_beyond_it():
    latencies = [float(v) for v in range(100, 0, -1)]
    assert tail(latencies, 99.0) == (99.0, 1)
    assert tail(latencies, 65.0) == (65.0, 35)
    assert tail([3.0], 99.0) == (3.0, 0)


def test_a_job_is_scaled_by_the_bursts_near_it():
    gauge = SpeedGauge()
    slow = REFERENCE_MS * 2e-3
    gauge.times = [1.0, 20.0, 21.0, 40.0]
    gauge.bursts = [[1.0] * 3, [slow] * 3, [slow] * 3, [1.0] * 3]
    assert gauge.kernel_s(20.1, 20.5) == pytest.approx(slow)
    assert gauge.scaled(0.4, 20.1, 20.5) == pytest.approx(0.2)
    assert gauge.kernel_s(10.0, 11.0) == pytest.approx((1.0 + slow) / 2)  # none in the window
    assert gauge.kernel_s(23.0, 23.1) == pytest.approx((1.0 + slow) / 2)
    assert gauge.kernel_s(23.0, 26.0) == pytest.approx(slow)  # a long job looks further


def test_tick_is_rate_limited_unless_forced(monkeypatch):
    monkeypatch.setattr(speed, "TICK_S", 60.0)
    gauge = SpeedGauge()
    gauge.tick()
    gauge.tick()
    assert len(gauge.bursts) == 1
    gauge.tick(force=True)
    assert len(gauge.bursts) == 2 and all(s > 0 for s in gauge.bursts[1])
