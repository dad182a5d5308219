import random
from pathlib import Path

import pytest

from phacking import (
    PAPER_DESIGN,
    DomainError,
    TestDesign,
    fpr_regime,
    render_csv,
    render_svg,
    rr_ratio,
    sweep_figure1,
    sweep_figure2,
    sweep_figure3,
    sweep_figure4,
    sweep_figure5,
)
from phacking.sweeps import SweepResult, figure_results

GOLDEN = Path(__file__).parent / "golden"


def all_results():
    return [
        sweep_figure1(),
        sweep_figure2(),
        sweep_figure3(0.05),
        sweep_figure3(0.15),
        sweep_figure4(),
        sweep_figure5(0.05),
        sweep_figure5(0.15),
    ]


FIGURE_IDS = [
    "figure1", "figure2", "figure3_h0.05", "figure3_h0.15",
    "figure4", "figure5_h0.05", "figure5_h0.15",
]


class TestGoldenSnapshots:
    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_csv_matches_golden(self, figure_id):
        result = next(r for r in all_results() if r.figure_id == figure_id)
        assert render_csv(result) == (GOLDEN / f"{figure_id}.csv").read_text()

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_svg_matches_golden(self, figure_id):
        result = next(r for r in all_results() if r.figure_id == figure_id)
        assert render_svg(result) == (GOLDEN / f"{figure_id}.svg").read_text()

    def test_rendering_deterministic(self):
        result = sweep_figure5(0.05)
        assert render_csv(result) == render_csv(sweep_figure5(0.05))
        assert render_svg(result) == render_svg(sweep_figure5(0.05))


class TestFigure1:
    def test_claim_bearing_rows(self):
        lookup = dict(sweep_figure1().rows)
        assert lookup[(0.005, 0.15, 0.80)][0] == pytest.approx(0.7134, abs=5e-4)
        assert lookup[(0.05, 0.0, 0.80)][0] == pytest.approx(0.3846, abs=5e-4)

    def test_grid_edge_limit_with_phi_override(self):
        # at the grid edge power -> 1 the sound FPR vanishes as phi -> 0
        assert fpr_regime(TestDesign(0.05, 1 - 0.99, 1e-9)) < 1e-7


class TestFigure2:
    def test_complementarity_every_row(self):
        for _, (fpr, rr) in sweep_figure2().rows:
            assert fpr + rr == pytest.approx(1.0, abs=1e-12)

    def test_claim_rows(self):
        lookup = dict(sweep_figure2().rows)
        assert lookup[(0.05, 0.80)] == pytest.approx((0.3846, 0.6154), abs=5e-4)
        assert lookup[(0.005, 0.80)] == pytest.approx((0.0588, 0.9412), abs=5e-4)


class TestFigure3:
    def test_references_and_endpoint(self):
        result = sweep_figure3(0.05)
        refs = dict(result.references)
        assert refs["fpr_hacked_0.05"] == pytest.approx(0.5742, abs=5e-4)
        lookup = dict(result.rows)
        assert lookup[(1.0,)][0] == pytest.approx(0.4402, abs=5e-4)

    def test_low_persistence_claim(self):
        lookup = dict(sweep_figure3(0.15).rows)
        assert lookup[(0.25,)][0] > 0.20

    def test_h_zero_collapses_to_bottom_reference(self):
        result = sweep_figure3(0.0)
        bottom = dict(result.references)["fpr_sound_0.005"]
        for _, (value,) in result.rows:
            assert value == pytest.approx(bottom, abs=1e-15)


class TestFigure4:
    def test_claim_rows(self):
        lookup = dict(sweep_figure4().rows)
        assert lookup[(0.80, 0.05)][0] == pytest.approx(0.5742, abs=5e-4)
        assert lookup[(0.80, 0.05)][1] == pytest.approx(0.4402, abs=5e-4)

    def test_h_zero_row_matches_figure1(self):
        fig1 = dict(sweep_figure1().rows)
        fig4 = dict(sweep_figure4().rows)
        for power in (0.05, 0.5, 0.8, 0.95):
            assert fig4[(power, 0.0)][0] == pytest.approx(fig1[(0.05, 0.0, power)][0], abs=1e-15)


class TestFigure5:
    def test_claim_rows(self):
        lookup15 = dict(sweep_figure5(0.15).rows)
        ratio, below = lookup15[(0.50, 1.0)]
        assert ratio == pytest.approx(0.81, abs=5e-3)
        assert below == 1.0
        lookup05 = dict(sweep_figure5(0.05).rows)
        assert lookup05[(0.50, 0.75)][0] == pytest.approx(1.19, abs=5e-3)

    def test_monotone_decreasing_along_psi(self):
        result = sweep_figure5(0.05)
        lookup = dict(result.rows)
        psis = result.axes[1][1]
        for power in result.axes[0][1]:
            vals = [lookup[(power, psi)][0] for psi in psis]
            assert vals[0] == max(vals)
            assert all(a > b for a, b in zip(vals, vals[1:]))


class TestCrossModuleConsistency:
    def test_random_cell_audit(self):
        rng = random.Random(13)
        phi = PAPER_DESIGN.phi
        old = TestDesign(0.05, 0.20, phi)
        for point, (value,) in rng.sample(list(sweep_figure1().rows), 30):
            alpha, h, power = point
            assert value == fpr_regime(TestDesign(alpha, 1 - power, phi), h)
        for point, (value, _) in rng.sample(list(sweep_figure5(0.15).rows), 30):
            power, psi = point
            assert value == rr_ratio(TestDesign(0.005, 1 - power, phi), old, 0.15, psi)
        for point, (value,) in rng.sample(list(sweep_figure3(0.05).rows), 30):
            assert value == fpr_regime(TestDesign(0.005, 0.20, phi), 0.05, point[0])
        for point, (fpr, rr) in rng.sample(list(sweep_figure2().rows), 30):
            alpha, power = point
            design = TestDesign(alpha, 1 - power, phi)
            assert fpr == fpr_regime(design)

    def test_no_duplicate_points(self):
        for result in all_results():
            points = [p for p, _ in result.rows]
            assert len(points) == len(set(points))


def test_unknown_figure():
    with pytest.raises(DomainError, match="^unknown figure id 9$"):
        figure_results(9)


class TestRenderErrors:
    def test_heatmap_needs_two_axes(self):
        bad = SweepResult(
            figure_id="bad",
            kind="heatmap",
            axes=(("x", (0.0, 1.0)),),
            columns=("v",),
            rows=(((0.0,), (0.0,)), ((1.0,), (1.0,))),
        )
        with pytest.raises(DomainError, match="heatmap needs exactly 2 axes, got 1"):
            render_svg(bad)

    def test_unknown_kind(self):
        bad = SweepResult(
            figure_id="bad",
            kind="scatter",
            axes=(("x", (0.0,)),),
            columns=("v",),
            rows=(((0.0,), (0.0,)),),
        )
        with pytest.raises(DomainError, match="unknown sweep kind 'scatter'"):
            render_svg(bad)

    def test_line_needs_1_to_3_axes(self):
        with pytest.raises(DomainError, match="^line chart needs 1-3 axes, got 4$"):
            render_svg(_one_point_line(4))

    def test_single_point_x_axis(self):
        # the x axis spans no range, and the chart still draws its one series
        assert render_svg(_one_point_line(1)).count("<polyline") == 1


def _one_point_line(n_axes):
    """A line sweep of one grid point on ``n_axes`` axes."""
    axes = tuple((f"x{i}", (0.5,)) for i in range(n_axes))
    return SweepResult("one", "line", axes, ("v",), (((0.5,) * n_axes, (0.3,)),))
