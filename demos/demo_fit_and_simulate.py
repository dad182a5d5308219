#!/usr/bin/env python3
"""Fit the hacking rate to the psychology replication counts and verify
the closed forms against the Monte Carlo oracle.

Run: python3 demos/demo_fit_and_simulate.py
"""

from phacking import (
    PSYCH_REP,
    HackingRegime,
    SimConfig,
    TestDesign,
    crosscheck,
    fit_h,
    fit_h_stratified,
    rr_regime,
    solve_psi_for_rr_ratio,
)

phi = 10 / 11
old = TestDesign(0.05, 0.20, phi)
new = TestDesign(0.005, 0.20, phi)

print(f"Observed replication rate: {PSYCH_REP.replicated}/{PSYCH_REP.total} "
      f"= {PSYCH_REP.rate:.4f}")
print(f"Predicted with no hacking: {rr_regime(old):.4f}")

h = fit_h(PSYCH_REP, old)
print(f"\nHacking rate explaining the gap: h = {h:.4f}")
est = fit_h_stratified(PSYCH_REP, old)
print(f"Stratified range: [{est.range_low:.4f}, {est.range_high:.4f}]")
for rec in est.residuals:
    print(f"  stratum {rec['p_range']}: observed {rec['observed']:.3f}, "
          f"root {rec['root']}")

print("\nHow low must persistence be for RR to double at the 0.005 cutoff?")
for hh in (0.05, 0.15):
    sol = solve_psi_for_rr_ratio(2.0, new, old, hh)
    print(f"  h={hh}: psi* = {sol.psi:.4f} (achievable={sol.achievable})")

print("\nMonte Carlo oracle vs closed forms (n=10^6, seed 42):")
for hh, cutoff in ((0.0, 0.05), (0.05, 0.05), (0.15, 0.005)):
    cfg = SimConfig(
        n_tests=10**6,
        seed=42,
        design=TestDesign(cutoff, 0.20, phi),
        hacking=HackingRegime(hh, 0.05, psi=1.0),
        cutoff=cutoff,
    )
    report = crosscheck(cfg)
    for row in report.rows:
        print(f"  h={hh}, cutoff={cutoff}, {row.name}: closed {row.closed_form:.4f}, "
              f"empirical {row.empirical:.4f}, z={row.z_score:+.2f}")
