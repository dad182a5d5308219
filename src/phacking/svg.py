"""Minimal deterministic SVG helpers: line charts and cell-grid
heatmaps, no external assets."""

from __future__ import annotations

from collections.abc import Sequence

WIDTH = 720
HEIGHT = 480
MARGIN_LEFT = 70
MARGIN_RIGHT = 170
MARGIN_TOP = 40
MARGIN_BOTTOM = 60

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
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x):
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = _header(title)
    out.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333"/>'
    )
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4
        yv = y_lo + (y_hi - y_lo) * i / 4
        out.append(
            f'<text x="{_fmt(px(xv))}" y="{HEIGHT - MARGIN_BOTTOM + 18}" text-anchor="middle">'
            f"{_fmt(xv)}</text>"
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(py(yv) + 4)}" text-anchor="end">{_fmt(yv)}</text>'
        )
    out.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2}" y="{HEIGHT - 14}" text-anchor="middle">'
        f"{_escape(x_label)}</text>"
    )
    legend_y = MARGIN_TOP + 10
    for i, (name, sx, sy) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(sx, sy))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        out.append(
            f'<line x1="{WIDTH - MARGIN_RIGHT + 10}" y1="{legend_y}" '
            f'x2="{WIDTH - MARGIN_RIGHT + 34}" y2="{legend_y}" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{WIDTH - MARGIN_RIGHT + 40}" y="{legend_y + 4}">{_escape(name)}</text>'
        )
        legend_y += 18
    for name, value in references:
        out.append(
            f'<line x1="{MARGIN_LEFT}" y1="{_fmt(py(value))}" x2="{MARGIN_LEFT + plot_w}" '
            f'y2="{_fmt(py(value))}" stroke="#555" stroke-width="1" stroke-dasharray="5,4"/>'
        )
        out.append(
            f'<text x="{WIDTH - MARGIN_RIGHT + 10}" y="{legend_y + 4}" fill="#555">'
            f"{_escape(name)} = {_fmt(value)}</text>"
        )
        legend_y += 18
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _cell_color(value: float, lo: float, hi: float, below_one: bool | None) -> str:
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
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    cw = plot_w / len(x_values)
    ch = plot_h / len(y_values)

    out = _header(title)
    for i, yv in enumerate(y_values):
        for j, xv in enumerate(x_values):
            flag = bool(below_one[i][j]) if below_one is not None else None
            color = _cell_color(grid[i][j], lo, hi, flag)
            x = MARGIN_LEFT + j * cw
            y = MARGIN_TOP + plot_h - (i + 1) * ch
            out.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cw)}" height="{_fmt(ch)}" '
                f'fill="{color}" stroke="#ddd" stroke-width="0.3"/>'
            )
    step_x = max(1, len(x_values) // 8)
    for j in range(0, len(x_values), step_x):
        x = MARGIN_LEFT + (j + 0.5) * cw
        out.append(
            f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN_BOTTOM + 18}" text-anchor="middle">'
            f"{_fmt(x_values[j])}</text>"
        )
    step_y = max(1, len(y_values) // 8)
    for i in range(0, len(y_values), step_y):
        y = MARGIN_TOP + plot_h - (i + 0.5) * ch
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" text-anchor="end">{_fmt(y_values[i])}</text>'
        )
    out.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2}" y="{HEIGHT - 14}" text-anchor="middle">'
        f"{_escape(x_label)}</text>"
    )
    out.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2})">{_escape(y_label)}</text>'
    )
    out.append(
        f'<text x="{WIDTH - MARGIN_RIGHT + 10}" y="{MARGIN_TOP + 10}">'
        f"min = {_fmt(lo)}</text>"
    )
    out.append(
        f'<text x="{WIDTH - MARGIN_RIGHT + 10}" y="{MARGIN_TOP + 28}">'
        f"max = {_fmt(hi)}</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
