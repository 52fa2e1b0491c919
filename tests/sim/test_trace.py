"""Tests for execution traces (repro.sim.trace)."""

import pytest

from repro.sim import Trace
from repro.sim.trace import Segment


class TestSegments:
    def test_add_and_query(self):
        tr = Trace()
        tr.add_segment(0.0, 1.0, "A:0", 500.0)
        tr.add_segment(1.0, 1.5, None, 500.0)
        assert tr.busy_time() == pytest.approx(1.0)
        assert tr.idle_time() == pytest.approx(0.5)
        assert tr.executed_cycles() == pytest.approx(500.0)
        assert tr.executed_cycles("A:0") == pytest.approx(500.0)

    def test_zero_length_ignored(self):
        tr = Trace()
        tr.add_segment(1.0, 1.0, "A:0", 500.0)
        assert tr.segments == []

    def test_rejects_backwards(self):
        with pytest.raises(ValueError):
            Trace().add_segment(1.0, 0.5, "A:0", 500.0)

    def test_coalesces_contiguous_same_state(self):
        tr = Trace()
        tr.add_segment(0.0, 1.0, "A:0", 500.0)
        tr.add_segment(1.0, 2.0, "A:0", 500.0)
        assert len(tr.segments) == 1
        assert tr.segments[0].duration == pytest.approx(2.0)

    def test_no_coalesce_on_frequency_change(self):
        tr = Trace()
        tr.add_segment(0.0, 1.0, "A:0", 500.0)
        tr.add_segment(1.0, 2.0, "A:0", 1000.0)
        assert len(tr.segments) == 2

    def test_segment_cycles(self):
        seg = Segment(0.0, 2.0, "A:0", 360.0)
        assert seg.cycles == pytest.approx(720.0)
        assert Segment(0.0, 2.0, None, 360.0).cycles == 0.0

    def test_is_contiguous(self):
        tr = Trace()
        tr.add_segment(0.0, 1.0, "A:0", 500.0)
        tr.add_segment(1.0, 2.0, None, 500.0)
        assert tr.is_contiguous()
        tr.add_segment(3.0, 4.0, "B:0", 500.0)
        assert not tr.is_contiguous()


class TestEventsAndOrder:
    def test_job_order(self):
        tr = Trace()
        tr.add_segment(0.0, 1.0, "A:0", 500.0)
        tr.add_segment(1.0, 2.0, "B:0", 500.0)
        tr.add_segment(2.0, 3.0, "A:0", 500.0)
        assert tr.job_order() == ["A:0", "B:0"]
