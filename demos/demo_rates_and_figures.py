#!/usr/bin/env python3
"""Walk through the closed-form rate model and the figure sweeps.

Run: python3 demos/demo_rates_and_figures.py [outdir]
"""

import sys
from pathlib import Path

from phacking import (
    PAPER_DESIGN,
    fpr_regime,
    render_csv,
    render_svg,
    rr_regime,
    sweep_figure1,
    sweep_figure3,
    sweep_figure5,
    table_regime,
)

old = PAPER_DESIGN  # cutoff 0.05, power 0.80, prior odds 1:10 in favor of H1
new = PAPER_DESIGN.with_alpha(0.005)

print("Without P-hacking, lowering the cutoff looks great:")
print(f"  FPR at 0.05:  {fpr_regime(old):.4f}   (RR {rr_regime(old):.4f})")
print(f"  FPR at 0.005: {fpr_regime(new):.4f}   (RR {rr_regime(new):.4f})")

print("\nWith hacking (all hacked P-values significant at the cutoff):")
for h in (0.05, 0.15):
    print(f"  h={h}: FPR {fpr_regime(old, h):.4f} at 0.05  ->  "
          f"{fpr_regime(new, h):.4f} at 0.005 (full persistence)")

print("\nEven at modest persistence the improvement fades (h=0.15):")
for pi in (0.1, 0.25, 0.5, 1.0):
    print(f"  pi={pi:4}: lower-bound FPR at 0.005 is {fpr_regime(new, 0.15, pi):.4f}")

print("\nThe proportion table behind the h=0.15, psi=0.5 scenario:")
table = table_regime(new, 0.15, 0.5)
for name, cell in table.cells().items():
    print(f"  {name:24s} {cell:.5f}")

outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_output")
outdir.mkdir(parents=True, exist_ok=True)
for result in (sweep_figure1(), sweep_figure3(0.15), sweep_figure5(0.15)):
    (outdir / f"{result.figure_id}.csv").write_text(render_csv(result))
    (outdir / f"{result.figure_id}.svg").write_text(render_svg(result))
    print(f"wrote {outdir / result.figure_id}.csv / .svg")
