"""SVG rendering tests: glyph classes, counts, and degenerate fields."""
import numpy as np
import pytest

from boundaryvote.geometry import region_xs
from boundaryvote.harness import _cells
from boundaryvote.render import GLYPH_CLASSES, classify_outcomes, render_field
from boundaryvote.sampling import SensorField, assign_measurements
from boundaryvote.vote import SINGLE_ROUND


def xs_trial(lam, p, seed):
    """(field, outcome, metrics) of trial 0 of the X_S cell at r = 0.05."""
    return next(_cells(seed, lam, 0, (region_xs(),), (p,), (0.05,), SINGLE_ROUND))


def glyph_count(svg: str, cls: str) -> int:
    start = svg.index(f'<g class="{cls}"')
    end = svg.index("</g>", start)
    body = svg[start:end]
    return body.count("<circle") + body.count("<rect")


class TestRender:
    def test_classes_and_counts_match_metrics(self, tmp_path):
        field, outcome, m = xs_trial(600.0, 0.15, seed=1)
        out = tmp_path / "trial.svg"
        svg = render_field(field, outcome, region_xs(), out)
        assert out.read_text() == svg
        assert svg.startswith("<svg") or svg.startswith("<?xml") or "<svg" in svg
        assert glyph_count(svg, "corrected") == m.corrected
        assert glyph_count(svg, "still-wrong") == m.initial_errors - m.corrected
        assert glyph_count(svg, "new-wrong") == m.new_errors
        assert glyph_count(svg, "correct") == m.n_sensors - m.initial_errors - m.new_errors
        assert "<polygon" in svg and "legend" in svg

    def test_all_four_classes_present_in_fig1_regime(self):
        field, outcome, _ = xs_trial(600.0, 0.15, seed=2)
        svg = render_field(field, outcome, region_xs())
        for cls in GLYPH_CLASSES:
            assert glyph_count(svg, cls) > 0

    def test_p_zero_only_correct_and_new(self):
        field, outcome, m = xs_trial(600.0, 0.0, seed=3)
        svg = render_field(field, outcome, region_xs())
        assert glyph_count(svg, "corrected") == 0
        assert glyph_count(svg, "still-wrong") == 0
        assert glyph_count(svg, "new-wrong") == m.new_errors

    def test_empty_field_renders_outline_only(self):
        field = SensorField(x=np.empty(0), y=np.empty(0), lam=1.0, seed=0)
        field = assign_measurements(field, region_xs(), 0.1)

        class _Out:
            decided = np.empty(0, dtype=bool)

        svg = render_field(field, _Out(), region_xs())
        assert "<polygon" in svg
        for cls in GLYPH_CLASSES:
            assert glyph_count(svg, cls) == 0

    def test_requires_measured_field(self):
        from boundaryvote.sampling import sample_field

        field = sample_field(50, seed=1)

        class _Out:
            decided = np.zeros(field.n, dtype=bool)

        with pytest.raises(ValueError):
            render_field(field, _Out(), region_xs())

    def test_outcome_masks_partition(self):
        field, outcome, _ = xs_trial(500.0, 0.2, seed=5)
        masks = classify_outcomes(field.truth, field.measured, outcome.decided)
        total = sum(int(m.sum()) for m in masks)
        assert total == field.n
        stacked = np.stack(masks)
        assert np.all(stacked.sum(axis=0) == 1)
