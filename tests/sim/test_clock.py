"""Wall-clock tests: rate scaling, anchoring, and the drift accounting
the service's executor records through ``note_lag``."""

import time

import pytest

from repro.sim import WallClock


class TestWallClock:
    def test_rate_scales_now(self):
        clk = WallClock(rate=100.0)
        clk.start()
        time.sleep(0.01)
        # 10ms wall => ~1s clock time at rate 100.
        assert 0.5 < clk.now() < 10.0

    def test_wall_remaining_divides_by_rate(self):
        clk = WallClock(rate=10.0)
        clk.start()
        target = clk.now() + 1.0  # 1 clock-second => 0.1 wall seconds
        assert clk.wall_remaining(target) == pytest.approx(0.1, abs=0.02)

    def test_note_lag_records_past_gap(self):
        clk = WallClock()
        clk.start()
        lag = clk.note_lag(-1.0)
        assert lag >= 1.0  # already past by at least a second
        assert clk.drift.waits == 1
        assert clk.drift.punctual == 0
        assert clk.drift.last_lag == lag
        assert clk.drift.max_lag == lag

    def test_note_lag_future_target_is_punctual(self):
        clk = WallClock()
        clk.start()
        assert clk.note_lag(clk.now() + 60.0) == 0.0
        assert clk.drift.waits == 1
        assert clk.drift.punctual == 1
        assert clk.drift.total_lag == 0.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            WallClock(rate=0.0)

    def test_unstarted_now_is_zero(self):
        assert WallClock().now() == 0.0

    def test_start_is_idempotent(self):
        clk = WallClock()
        clk.start()
        anchor = clk._anchor
        time.sleep(0.002)
        clk.start()
        assert clk._anchor == anchor
