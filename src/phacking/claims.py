"""The paper's headline numbers, checked by ``phacking reproduce`` and the
acceptance tests.  Only ``reproduce`` imports this module."""

from collections import namedtuple

from . import estimator, rates
from .rates import PAPER_DESIGN


class Claim(namedtuple("Claim", "label compute want tol info", defaults=(False,))):
    """One headline number: ``compute()`` must lie within ``tol`` of
    ``want``.  ``info`` marks a documented gap between a derived value
    and a number the source read off its own figures; it is reported as
    INFO and fails only under ``reproduce --strict``."""

    __slots__ = ()


_NEW_50 = rates.TestDesign(0.005, 0.50, rates.DEFAULT_PHI)


def _fpr_claim(alpha: float, h: float, want: float) -> Claim:
    design = PAPER_DESIGN.with_alpha(alpha)
    return Claim(f"fpr(alpha={alpha}, h={h}, power=0.80, psi=1)",
                 lambda: rates.fpr_regime(design, h), want, 0.005)


def _h_fit() -> float:
    return estimator.fit_h(estimator.PSYCH_REP, PAPER_DESIGN)


def _doubling_psi(h: float) -> float:
    new = PAPER_DESIGN.with_alpha(0.005)
    return estimator.solve_psi_for_rr_ratio(2.0, new, PAPER_DESIGN, h).psi


#: The paper's headline numbers, in report order.
CLAIMS = (
    _fpr_claim(0.05, 0.0, 0.38),
    _fpr_claim(0.005, 0.0, 0.06),
    _fpr_claim(0.05, 0.05, 0.57),
    _fpr_claim(0.005, 0.05, 0.44),
    _fpr_claim(0.05, 0.15, 0.75),
    _fpr_claim(0.005, 0.15, 0.71),
    Claim("rr_sound(0.05, power=0.80, odds 1:10)",
          lambda: rates.rr_regime(PAPER_DESIGN), 0.615, 0.005),
    Claim("psych-rep observed rate 36/97",
          lambda: estimator.PSYCH_REP.rate, 36.0 / 97.0, 0.0),
    Claim("fit_h(36/97) within [0.070, 0.080]", _h_fit, 0.075, 0.005),
    Claim("fit_h self-consistency: rr_hacked(h_fit) - 36/97",
          lambda: rates.rr_regime(PAPER_DESIGN, _h_fit()) - 36.0 / 97.0, 0.0, 1e-9),
    Claim("paper h point estimate 0.075 vs derived root (documented gap)",
          _h_fit, 0.075, 0.005, info=True),
    Claim("stratified range low vs 0.05",
          lambda: estimator.fit_h_stratified(estimator.PSYCH_REP, PAPER_DESIGN).range_low,
          0.05, 0.03),
    Claim("stratified range high vs 0.15",
          lambda: estimator.fit_h_stratified(estimator.PSYCH_REP, PAPER_DESIGN).range_high,
          0.15, 0.03),
    Claim("rr ratio at power 0.50, h=0.05, psi=0.75",
          lambda: rates.rr_ratio(_NEW_50, PAPER_DESIGN, 0.05, 0.75), 1.19, 0.01),
    Claim("rr ratio at power 0.50, h=0.15, psi=1",
          lambda: rates.rr_ratio(_NEW_50, PAPER_DESIGN, 0.15, 1.0), 0.81, 0.01),
    Claim("rr at power 0.50, h=0.05, psi=0.75",
          lambda: rates.rr_regime(_NEW_50, 0.05, 0.75), 0.51, 0.005),
    Claim("rr at power 0.50, h=0.15, psi=1",
          lambda: rates.rr_regime(_NEW_50, 0.15, 1.0), 0.20, 0.005),
    Claim("doubling persistence threshold at h=0.05",
          lambda: _doubling_psi(0.05), 0.154, 0.02),
    Claim("doubling threshold at h=0.15: derived root vs figure-read 0.35 (documented gap)",
          lambda: _doubling_psi(0.15), 0.35, 0.02, info=True),
    Claim("bound FPR at pi=0.25, h=0.15 exceeds 0.20",
          lambda: float(rates.fpr_bound(PAPER_DESIGN.with_alpha(0.005), 0.15, 0.25) > 0.20),
          1.0, 0.0),
)


def report(strict: bool) -> int:
    """Print one PASS, FAIL or INFO line per claim and return the number
    of failures; ``strict`` counts INFO entries as checks."""
    failures = 0
    for claim in CLAIMS:
        got = claim.compute()
        ok = abs(got - claim.want) <= claim.tol
        if claim.info and not strict:
            status = "INFO"
        else:
            status = "PASS" if ok else "FAIL"
            failures += not ok
        print(f"{status:4s}  {claim.label}: computed {got:.6g}, "
              f"reference {claim.want:.6g}, tol {claim.tol:g}")
    return failures
