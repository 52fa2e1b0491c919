"""Tests for the Figure 1 TUF catalog (repro.tuf.catalog)."""

import pytest

from repro.tuf import (
    TUFError,
    plot_correlation,
    track_association,
    validate,
)


class TestTrackAssociation:
    def test_flat_until_revisit(self):
        tuf = track_association(50.0, 0.1)
        assert tuf.utility(0.09) == pytest.approx(50.0)

    def test_decays_after_revisit(self):
        tuf = track_association(50.0, 0.1)
        assert tuf.utility(0.15) == pytest.approx(25.0)
        assert tuf.termination == pytest.approx(0.2)

    def test_valid_model(self):
        validate(track_association(50.0, 0.1))

    def test_rejects_bad_revisit(self):
        with pytest.raises(TUFError):
            track_association(50.0, 0.0)


class TestPlotCorrelation:
    def test_two_plateaus(self):
        tuf = plot_correlation(30.0, 12.0, 0.25)
        assert tuf.utility(0.2) == 30.0
        assert tuf.utility(0.3) == 12.0
        assert tuf.utility(0.5) == 0.0

    def test_valid_model(self):
        validate(plot_correlation(30.0, 12.0, 0.25))

    def test_rejects_inverted_utilities(self):
        with pytest.raises(TUFError):
            plot_correlation(12.0, 30.0, 0.25)

    def test_rejects_zero_window(self):
        with pytest.raises(TUFError):
            plot_correlation(30.0, 12.0, 0.0)

