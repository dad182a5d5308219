"""Standalone SVG 1.1 rendering of a :class:`~phacking.sweeps.SweepResult`:
a line chart or a cell-grid heatmap, deterministic and with no external
assets.  Only paths that write an SVG import this module."""

import itertools

from .rates import DomainError
from .sweeps import SweepResult, _num

WIDTH = 720
HEIGHT = 480
MARGIN_LEFT = 70
MARGIN_RIGHT = 170
MARGIN_TOP = 40
MARGIN_BOTTOM = 60
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
LEGEND_X = WIDTH - MARGIN_RIGHT + 10

COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#17becf", "#7f7f7f"]


def _fmt(x: float) -> str:
    return format(x, ".4f").rstrip("0").rstrip(".")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _x_tick(x: float, value: float) -> str:
    return (f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN_BOTTOM + 18}" text-anchor="middle">'
            f"{_fmt(value)}</text>")


def _y_tick(y: float, value: float) -> str:
    return f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" text-anchor="end">{_fmt(value)}</text>'


def _x_label(label: str) -> str:
    return (f'<text x="{MARGIN_LEFT + PLOT_W / 2}" y="{HEIGHT - 14}" text-anchor="middle">'
            f"{_escape(label)}</text>")


def render_svg(result: SweepResult) -> str:
    """Standalone SVG 1.1 rendering.  A line chart (1-3 axes) puts the
    last axis on x and draws one series per column and point of the
    leading axes.  A heatmap (2 axes) puts the first axis on y and the
    second on x, colors each cell by the first column and draws cells
    red where a last column ``below_one`` is set."""
    if result.kind == "line":
        if not 1 <= len(result.axes) <= 3:
            raise DomainError(f"line chart needs 1-3 axes, got {len(result.axes)}")
        title, body = result.figure_id, _draw_lines(result)
    elif result.kind == "heatmap":
        if len(result.axes) != 2:
            raise DomainError(f"heatmap needs exactly 2 axes, got {len(result.axes)}")
        title, body = f"{result.figure_id} ({result.columns[0]})", _draw_cells(result)
    else:
        raise DomainError(f"unknown sweep kind {result.kind!r}")
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="15">{_escape(title)}</text>',
        *body,
        "</svg>",
    ]) + "\n"


def _draw_lines(result: SweepResult) -> list[str]:
    """One polyline per column and point of the leading axes, then the
    dashed ``references``, each with its legend entry."""
    *lead_axes, (x_name, xs) = result.axes
    values = dict(result.rows)
    ys = [y for _, row in result.rows for y in row] + [v for _, v in result.references]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [0.0]), max(ys + [1e-9])
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def px(x):
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * PLOT_W

    def py(y):
        return MARGIN_TOP + PLOT_H - (y - y_lo) / (y_hi - y_lo) * PLOT_H

    out = [f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{PLOT_W}" height="{PLOT_H}" '
           'fill="none" stroke="#333"/>']
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4
        yv = y_lo + (y_hi - y_lo) * i / 4
        out.append(_x_tick(px(xv), xv))
        out.append(_y_tick(py(yv), yv))
    out.append(_x_label(x_name))
    legend_y = MARGIN_TOP + 10
    colors = itertools.cycle(COLORS)
    for lead in itertools.product(*(vals for _, vals in lead_axes)):
        prefix = [f"{n}={_num(v)}" for (n, _), v in zip(lead_axes, lead)]
        rows = [values[(*lead, x)] for x in xs]
        for i, column in enumerate(result.columns):
            name = " ".join([*prefix, column])
            color = next(colors)
            points = " ".join(f"{_fmt(px(x))},{_fmt(py(row[i]))}" for x, row in zip(xs, rows))
            out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
            out.append(
                f'<line x1="{LEGEND_X}" y1="{legend_y}" x2="{LEGEND_X + 24}" y2="{legend_y}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            out.append(f'<text x="{LEGEND_X + 30}" y="{legend_y + 4}">{_escape(name)}</text>')
            legend_y += 18
    for name, value in result.references:
        out.append(
            f'<line x1="{MARGIN_LEFT}" y1="{_fmt(py(value))}" x2="{MARGIN_LEFT + PLOT_W}" '
            f'y2="{_fmt(py(value))}" stroke="#555" stroke-width="1" stroke-dasharray="5,4"/>'
        )
        out.append(
            f'<text x="{LEGEND_X}" y="{legend_y + 4}" fill="#555">{_escape(name)} = {_fmt(value)}</text>'
        )
        legend_y += 18
    return out


def _cell_color(value: float, lo: float, hi: float, below_one: bool) -> str:
    if below_one:
        return "#d62728"
    t = 0.0 if hi == lo else (value - lo) / (hi - lo)
    # white -> blue ramp
    r = round(255 - 224 * t)
    g = round(255 - 136 * t)
    b = round(255 - 75 * t)
    return f"rgb({r},{g},{b})"


def _draw_cells(result: SweepResult) -> list[str]:
    """One cell per grid point, colored by the first column, with the
    first axis on y, the second on x and the first column's range."""
    (y_name, ys), (x_name, xs) = result.axes
    flagged = result.columns[-1] == "below_one"
    values = dict(result.rows)
    firsts = [row[0] for _, row in result.rows]
    lo, hi = min(firsts), max(firsts)
    cw = PLOT_W / len(xs)
    ch = PLOT_H / len(ys)

    out = []
    for i, yv in enumerate(ys):
        for j, xv in enumerate(xs):
            row = values[(yv, xv)]
            color = _cell_color(row[0], lo, hi, flagged and bool(row[-1]))
            x = MARGIN_LEFT + j * cw
            y = MARGIN_TOP + PLOT_H - (i + 1) * ch
            out.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cw)}" height="{_fmt(ch)}" '
                f'fill="{color}" stroke="#ddd" stroke-width="0.3"/>'
            )
    step_x = max(1, len(xs) // 8)
    for j in range(0, len(xs), step_x):
        out.append(_x_tick(MARGIN_LEFT + (j + 0.5) * cw, xs[j]))
    step_y = max(1, len(ys) // 8)
    for i in range(0, len(ys), step_y):
        out.append(_y_tick(MARGIN_TOP + PLOT_H - (i + 0.5) * ch, ys[i]))
    out.append(_x_label(x_name))
    out.append(
        f'<text x="18" y="{MARGIN_TOP + PLOT_H / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_TOP + PLOT_H / 2})">{_escape(y_name)}</text>'
    )
    out.append(f'<text x="{LEGEND_X}" y="{MARGIN_TOP + 10}">min = {_fmt(lo)}</text>')
    out.append(f'<text x="{LEGEND_X}" y="{MARGIN_TOP + 28}">max = {_fmt(hi)}</text>')
    return out
