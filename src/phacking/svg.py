"""Minimal deterministic SVG helpers: line charts and cell-grid
heatmaps, no external assets."""

from collections.abc import Sequence

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


def _header(title: str) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="15">{_escape(title)}</text>',
    ]


def _x_tick(x: float, value: float) -> str:
    return (f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN_BOTTOM + 18}" text-anchor="middle">'
            f"{_fmt(value)}</text>")


def _y_tick(y: float, value: float) -> str:
    return f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" text-anchor="end">{_fmt(value)}</text>'


def _x_label(label: str) -> str:
    return (f'<text x="{MARGIN_LEFT + PLOT_W / 2}" y="{HEIGHT - 14}" text-anchor="middle">'
            f"{_escape(label)}</text>")


def line_chart(
    title: str,
    x_label: str,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    references: Sequence[tuple[str, float]] = (),
) -> str:
    """Line chart over (name, x-values, y-values) series; ``references``
    are labeled horizontal dashed lines."""
    xs = [x for _, sx, _ in series for x in sx]
    ys = [y for _, _, sy in series for y in sy]
    ys += [v for _, v in references]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [0.0]), max(ys + [1e-9])
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def px(x):
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * PLOT_W

    def py(y):
        return MARGIN_TOP + PLOT_H - (y - y_lo) / (y_hi - y_lo) * PLOT_H

    out = _header(title)
    out.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{PLOT_W}" height="{PLOT_H}" '
        'fill="none" stroke="#333"/>'
    )
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4
        yv = y_lo + (y_hi - y_lo) * i / 4
        out.append(_x_tick(px(xv), xv))
        out.append(_y_tick(py(yv), yv))
    out.append(_x_label(x_label))
    legend_y = MARGIN_TOP + 10
    for i, (name, sx, sy) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(sx, sy))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        out.append(
            f'<line x1="{LEGEND_X}" y1="{legend_y}" x2="{LEGEND_X + 24}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(f'<text x="{LEGEND_X + 30}" y="{legend_y + 4}">{_escape(name)}</text>')
        legend_y += 18
    for name, value in references:
        out.append(
            f'<line x1="{MARGIN_LEFT}" y1="{_fmt(py(value))}" x2="{MARGIN_LEFT + PLOT_W}" '
            f'y2="{_fmt(py(value))}" stroke="#555" stroke-width="1" stroke-dasharray="5,4"/>'
        )
        out.append(
            f'<text x="{LEGEND_X}" y="{legend_y + 4}" fill="#555">{_escape(name)} = {_fmt(value)}</text>'
        )
        legend_y += 18
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _cell_color(value: float, lo: float, hi: float, below_one: bool) -> str:
    if below_one:
        return "#d62728"
    t = 0.0 if hi == lo else (value - lo) / (hi - lo)
    # white -> blue ramp
    r = round(255 - 224 * t)
    g = round(255 - 136 * t)
    b = round(255 - 75 * t)
    return f"rgb({r},{g},{b})"


def heatmap(
    title: str,
    x_label: str,
    y_label: str,
    x_values: Sequence[float],
    y_values: Sequence[float],
    grid: Sequence[Sequence[float]],
    below_one: Sequence[Sequence[bool]] | None = None,
) -> str:
    """Cell-grid heatmap; ``grid[i][j]`` is the value at (y_values[i],
    x_values[j]).  Cells flagged in ``below_one`` are drawn red."""
    flat = [v for row in grid for v in row]
    lo, hi = min(flat), max(flat)
    cw = PLOT_W / len(x_values)
    ch = PLOT_H / len(y_values)

    out = _header(title)
    for i in range(len(y_values)):
        for j in range(len(x_values)):
            color = _cell_color(grid[i][j], lo, hi, below_one is not None and below_one[i][j])
            x = MARGIN_LEFT + j * cw
            y = MARGIN_TOP + PLOT_H - (i + 1) * ch
            out.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cw)}" height="{_fmt(ch)}" '
                f'fill="{color}" stroke="#ddd" stroke-width="0.3"/>'
            )
    step_x = max(1, len(x_values) // 8)
    for j in range(0, len(x_values), step_x):
        out.append(_x_tick(MARGIN_LEFT + (j + 0.5) * cw, x_values[j]))
    step_y = max(1, len(y_values) // 8)
    for i in range(0, len(y_values), step_y):
        out.append(_y_tick(MARGIN_TOP + PLOT_H - (i + 0.5) * ch, y_values[i]))
    out.append(_x_label(x_label))
    out.append(
        f'<text x="18" y="{MARGIN_TOP + PLOT_H / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_TOP + PLOT_H / 2})">{_escape(y_label)}</text>'
    )
    out.append(f'<text x="{LEGEND_X}" y="{MARGIN_TOP + 10}">min = {_fmt(lo)}</text>')
    out.append(f'<text x="{LEGEND_X}" y="{MARGIN_TOP + 28}">max = {_fmt(hi)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
