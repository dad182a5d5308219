"""Parameter sweeps backing the five figures, plus deterministic CSV and
SVG rendering.

All sweep cells are computed by calling the closed-form functions in
:mod:`phacking.rates` / :mod:`phacking.estimator`; nothing here
reimplements a formula.  CSV is the canonical artifact; SVG is a derived
view.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from . import svg
from .errors import DomainError, UnsupportedShapeError
from .rates import DEFAULT_PHI, TestDesign, fpr_bound, fpr_hacked, fpr_sound, interpolated_psi, rr_sound
from .estimator import rr_ratio

DEFAULT_BETA = 0.20

_POWER_FINE = tuple(round(0.05 + 0.01 * i, 2) for i in range(95))  # 0.05 .. 0.99
_POWER_COARSE = tuple(round(0.05 * i, 2) for i in range(1, 20))  # 0.05 .. 0.95
_H_COARSE = tuple(round(0.05 * i, 2) for i in range(20))  # 0.00 .. 0.95
_PI_GRID = tuple(round(0.005 * i, 3) for i in range(201))  # 0 .. 1
_PSI_COARSE = tuple(round(0.05 * i, 2) for i in range(21))  # 0 .. 1


class SweepResult(namedtuple("SweepResult", "figure_id kind axes columns rows metadata")):
    """A labeled grid: ``axes`` are (name, values) pairs, ``rows`` pair
    each row-major grid point with its value tuple (one entry per name
    in ``columns``).  ``kind`` is "line" or "heatmap"."""

    __slots__ = ()

    def __new__(cls, figure_id, kind, axes, columns, rows, metadata=None):
        return tuple.__new__(cls, (figure_id, kind, axes, columns, rows,
                                   {} if metadata is None else metadata))


def _sweep(figure_id, kind, axes, columns, cell, **metadata) -> SweepResult:
    """Evaluate ``cell(*point)`` (a value tuple) at every row-major point
    of the grid spanned by ``axes``."""
    points = itertools.product(*(values for _, values in axes))
    rows = tuple((point, cell(*point)) for point in points)
    return SweepResult(figure_id, kind, axes, columns, rows, metadata)


def _design(alpha: float, power: float) -> TestDesign:
    return TestDesign(alpha, 1.0 - power, DEFAULT_PHI)


def sweep_figure1() -> SweepResult:
    """FPR vs power for alpha in {0.05, 0.005} x h in {0, 0.05, 0.15},
    prior odds 1:10, full persistence at each operative cutoff."""
    axes = (("alpha", (0.05, 0.005)), ("h", (0.0, 0.05, 0.15)), ("power", _POWER_FINE))
    return _sweep("figure1", "line", axes, ("fpr",),
                  lambda alpha, h, power: (fpr_hacked(_design(alpha, power), h),),
                  phi=DEFAULT_PHI, psi=1.0)


def sweep_figure2() -> SweepResult:
    """FPR and RR vs power at h = 0 for both cutoffs; each row satisfies
    fpr + rr = 1."""

    def cell(alpha, power):
        design = _design(alpha, power)
        return fpr_sound(design), rr_sound(design)

    axes = (("alpha", (0.05, 0.005)), ("power", _POWER_FINE))
    return _sweep("figure2", "line", axes, ("fpr", "rr"), cell, phi=DEFAULT_PHI, h=0.0)


def sweep_figure3(h: float, naive_cdf: float = 0.0) -> SweepResult:
    """Regime-change FPR bound over the persistence parameter at the
    0.005 cutoff, with the three reference constants (FPR with hacking
    at 0.05; sound FPR at 0.05; sound FPR at 0.005) in metadata.

    By default the solid curve is the conservative bound (psi = pi);
    pass ``naive_cdf`` to render an interpolated curve instead.
    """
    old = TestDesign(0.05, DEFAULT_BETA, DEFAULT_PHI)
    new = TestDesign(0.005, DEFAULT_BETA, DEFAULT_PHI)
    references = {
        "fpr_hacked_0.05": fpr_hacked(old, h),
        "fpr_sound_0.05": fpr_sound(old),
        "fpr_sound_0.005": fpr_sound(new),
    }
    return _sweep(f"figure3_h{h:g}", "line", (("pi", _PI_GRID),), ("fpr_bound",),
                  lambda pi: (fpr_bound(new, h, interpolated_psi(pi, naive_cdf)),),
                  h=h, phi=DEFAULT_PHI, alpha_new=0.005, naive_cdf=naive_cdf,
                  references=references)


def sweep_figure4() -> SweepResult:
    """FPR heatmaps over power x h at both cutoffs (full persistence),
    one value column per cutoff."""
    axes = (("power", _POWER_COARSE), ("h", _H_COARSE))
    return _sweep("figure4", "heatmap", axes, ("fpr_alpha_0.05", "fpr_alpha_0.005"),
                  lambda power, h: tuple(fpr_hacked(_design(a, power), h) for a in (0.05, 0.005)),
                  phi=DEFAULT_PHI, psi=1.0)


def sweep_figure5(h: float) -> SweepResult:
    """Ratio of the replication rate at the 0.005 cutoff (power on the
    grid, persistence psi) to the rate at the 0.05 cutoff with power
    0.80; cells with ratio < 1 are tagged ``below_one``."""
    old = TestDesign(0.05, DEFAULT_BETA, DEFAULT_PHI)

    def cell(power, psi):
        ratio = rr_ratio(_design(0.005, power), old, h, psi)
        return ratio, float(ratio < 1.0)

    axes = (("power", _POWER_COARSE), ("psi", _PSI_COARSE))
    return _sweep(f"figure5_h{h:g}", "heatmap", axes, ("ratio", "below_one"), cell,
                  h=h, phi=DEFAULT_PHI, old_power=1.0 - DEFAULT_BETA)


#: Figure id -> (sweep, default hacking rates).  Sweeps with default
#: rates take one h per result; the others take no arguments.
FIGURES = {
    1: (sweep_figure1, None),
    2: (sweep_figure2, None),
    3: (sweep_figure3, (0.05, 0.15)),
    4: (sweep_figure4, None),
    5: (sweep_figure5, (0.05, 0.15)),
}


def figure_results(figure: int, h: float | None = None) -> list[SweepResult]:
    """The sweeps behind one figure: one per hacking rate for figures
    that take one (``h``, or the paper's defaults when ``h`` is None),
    else a single sweep.  Raises DomainError for an unknown figure or an
    ``h`` the figure does not take."""
    if figure not in FIGURES:
        raise DomainError(f"unknown figure id {figure}")
    sweep, default_hs = FIGURES[figure]
    if default_hs is None:
        if h is not None:
            raise DomainError(f"figure {figure} takes no hacking rate h")
        return [sweep()]
    return [sweep(hh) for hh in (default_hs if h is None else (h,))]


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return format(x, ".6g")


def render_csv(result: SweepResult) -> str:
    """Canonical CSV: axis columns then value columns, rows in row-major
    axis order, 6 significant digits; byte-deterministic."""
    header = [name for name, _ in result.axes] + list(result.columns)
    lines = [",".join(header)]
    for point, values in result.rows:
        lines.append(",".join(_num(v) for v in (*point, *values)))
    return "\n".join(lines) + "\n"


def render_svg(result: SweepResult) -> str:
    """Standalone SVG 1.1 rendering: line chart (last axis is x, leading
    axes define the series) or heatmap (exactly 2 axes)."""
    if result.kind == "line":
        if not 1 <= len(result.axes) <= 3:
            raise UnsupportedShapeError(f"line chart needs 1-3 axes, got {len(result.axes)}")
        return _render_line(result)
    if result.kind == "heatmap":
        if len(result.axes) != 2:
            raise UnsupportedShapeError(f"heatmap needs exactly 2 axes, got {len(result.axes)}")
        return _render_heatmap(result)
    raise UnsupportedShapeError(f"unknown sweep kind {result.kind!r}")


def _render_line(result: SweepResult) -> str:
    x_name = result.axes[-1][0]
    lead_axes = result.axes[:-1]
    series = []
    lookup = {point: values for point, values in result.rows}
    lead_points = list(itertools.product(*(vals for _, vals in lead_axes))) or [()]
    x_values = result.axes[-1][1]
    for lead in lead_points:
        prefix = " ".join(f"{n}={_num(v)}" for (n, _), v in zip(lead_axes, lead))
        for ci, cname in enumerate(result.columns):
            if cname == "below_one":
                continue
            ys = [lookup[(*lead, x)][ci] for x in x_values]
            label = f"{prefix} {cname}".strip() if len(result.columns) > 1 or prefix else cname
            series.append((label or cname, list(x_values), ys))
    refs = sorted(result.metadata.get("references", {}).items())
    return svg.line_chart(result.figure_id, x_name, series, references=refs)


def _render_heatmap(result: SweepResult) -> str:
    # First axis on y, second on x; one panel per value column would need
    # multiple documents, so the first non-flag column is rendered and a
    # red overlay marks below_one cells when present.
    (y_name, y_vals), (x_name, x_vals) = result.axes
    lookup = {point: values for point, values in result.rows}
    flag_idx = result.columns.index("below_one") if "below_one" in result.columns else None
    value_idx = next(i for i, c in enumerate(result.columns) if c != "below_one")
    grid = [[lookup[(y, x)][value_idx] for x in x_vals] for y in y_vals]
    flags = (
        [[bool(lookup[(y, x)][flag_idx]) for x in x_vals] for y in y_vals]
        if flag_idx is not None
        else None
    )
    title = f"{result.figure_id} ({result.columns[value_idx]})"
    return svg.heatmap(title, x_name, y_name, list(x_vals), list(y_vals), grid, below_one=flags)
