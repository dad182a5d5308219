"""Parameter sweeps backing the five figures, plus deterministic CSV
rendering.

All sweep cells are computed by calling the closed-form functions in
:mod:`phacking.rates`; nothing here reimplements a formula.  CSV is the
canonical artifact; :func:`phacking.svg.render_svg` draws a derived view.
"""

import itertools
from collections import namedtuple

from .rates import PAPER_DESIGN, DomainError, TestDesign, fpr_regime, rr_ratio, rr_regime

_POWER_FINE = tuple(round(0.05 + 0.01 * i, 2) for i in range(95))  # 0.05 .. 0.99
_POWER_COARSE = tuple(round(0.05 * i, 2) for i in range(1, 20))  # 0.05 .. 0.95
_H_COARSE = tuple(round(0.05 * i, 2) for i in range(20))  # 0.00 .. 0.95
_PI_GRID = tuple(round(0.005 * i, 3) for i in range(201))  # 0 .. 1
_PSI_COARSE = tuple(round(0.05 * i, 2) for i in range(21))  # 0 .. 1


class SweepResult(namedtuple("SweepResult", "figure_id kind axes columns rows references",
                             defaults=((),))):
    """A labeled grid: ``axes`` are (name, values) pairs, ``rows`` pair
    each row-major grid point with its value tuple (one entry per name
    in ``columns``).  ``kind`` is "line" or "heatmap"; ``references``
    are (name, value) pairs drawn as dashed lines, in legend order."""

    __slots__ = ()


def _sweep(figure_id, kind, axes, columns, cell, references=()) -> SweepResult:
    """Evaluate ``cell(*point)`` (a value tuple) at every row-major point
    of the grid spanned by ``axes``."""
    points = itertools.product(*(values for _, values in axes))
    rows = tuple((point, cell(*point)) for point in points)
    return SweepResult(figure_id, kind, axes, columns, rows, references)


def _design(alpha: float, power: float) -> TestDesign:
    return TestDesign(alpha, 1.0 - power, PAPER_DESIGN.phi)


def sweep_figure1() -> SweepResult:
    """FPR vs power for alpha in {0.05, 0.005} x h in {0, 0.05, 0.15},
    prior odds 1:10, full persistence at each operative cutoff."""
    axes = (("alpha", (0.05, 0.005)), ("h", (0.0, 0.05, 0.15)), ("power", _POWER_FINE))
    return _sweep("figure1", "line", axes, ("fpr",),
                  lambda alpha, h, power: (fpr_regime(_design(alpha, power), h),))


def sweep_figure2() -> SweepResult:
    """FPR and RR vs power at h = 0 for both cutoffs; each row satisfies
    fpr + rr = 1."""

    def cell(alpha, power):
        design = _design(alpha, power)
        return fpr_regime(design), rr_regime(design)

    axes = (("alpha", (0.05, 0.005)), ("power", _POWER_FINE))
    return _sweep("figure2", "line", axes, ("fpr", "rr"), cell)


def sweep_figure3(h: float) -> SweepResult:
    """Conservative regime-change FPR bound, the FPR at psi = pi (the
    resolved psi is at least pi, and the FPR rises in psi), over the
    persistence parameter at the 0.005 cutoff, with three references:
    FPR with hacking at 0.05, sound FPR at 0.005 and sound FPR at 0.05."""
    new = PAPER_DESIGN.with_alpha(0.005)
    references = (("fpr_hacked_0.05", fpr_regime(PAPER_DESIGN, h)),
                  ("fpr_sound_0.005", fpr_regime(new)),
                  ("fpr_sound_0.05", fpr_regime(PAPER_DESIGN)))
    return _sweep(f"figure3_h{h!r}", "line", (("pi", _PI_GRID),), ("fpr_bound",),
                  lambda pi: (fpr_regime(new, h, pi),), references)


def sweep_figure4() -> SweepResult:
    """FPR heatmaps over power x h at both cutoffs (full persistence),
    one value column per cutoff."""
    axes = (("power", _POWER_COARSE), ("h", _H_COARSE))
    return _sweep("figure4", "heatmap", axes, ("fpr_alpha_0.05", "fpr_alpha_0.005"),
                  lambda power, h: tuple(fpr_regime(_design(a, power), h) for a in (0.05, 0.005)))


def sweep_figure5(h: float) -> SweepResult:
    """Ratio of the replication rate at the 0.005 cutoff (power on the
    grid, persistence psi) to the rate at the 0.05 cutoff with power
    0.80; cells with ratio < 1 are tagged ``below_one``."""
    def cell(power, psi):
        ratio = rr_ratio(_design(0.005, power), PAPER_DESIGN, h, psi)
        return ratio, float(ratio < 1.0)

    axes = (("power", _POWER_COARSE), ("psi", _PSI_COARSE))
    return _sweep(f"figure5_h{h!r}", "heatmap", axes, ("ratio", "below_one"), cell)


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

