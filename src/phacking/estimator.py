"""Fitting the hacking rate to observed replication counts and solving
inverse persistence problems.

The psychology replication counts (36/97 overall; 24/47 for original
P < 0.005 and 12/50 for 0.005 < P < 0.05) ship as ``PSYCH_REP``.
"""

from collections import namedtuple

from .errors import DomainError, NoRootError
from .rates import TestDesign, masses, power_at_new_cutoff, rr_ratio, rr_regime

class ReplicationStratum(namedtuple("ReplicationStratum", "p_low p_high total replicated")):
    __slots__ = ()

    def __new__(cls, p_low: float, p_high: float, total: int, replicated: int):
        if not 0.0 <= p_low < p_high:
            raise DomainError(f"bad P-value range ({p_low}, {p_high})")
        if replicated < 0 or total <= 0 or replicated > total:
            raise DomainError(f"bad counts {replicated}/{total}")
        return tuple.__new__(cls, (p_low, p_high, total, replicated))

    @property
    def rate(self) -> float:
        return self.replicated / self.total


class ReplicationData(namedtuple("ReplicationData", "total replicated strata")):
    """Observed replication counts, overall and stratified by the
    original study's P-value range."""

    __slots__ = ()

    def __new__(cls, total: int, replicated: int, strata: tuple[ReplicationStratum, ...] = ()):
        if total <= 0:
            raise DomainError("overall total must be positive")
        if replicated < 0 or replicated > total:
            raise DomainError(f"bad counts {replicated}/{total}")
        return tuple.__new__(cls, (total, replicated, strata))

    @property
    def rate(self) -> float:
        return self.replicated / self.total


#: Replication counts from the psychology replication project.
PSYCH_REP = ReplicationData(
    total=97,
    replicated=36,
    strata=(
        ReplicationStratum(0.0, 0.005, total=47, replicated=24),
        ReplicationStratum(0.005, 0.05, total=50, replicated=12),
    ),
)


class HackingEstimate(namedtuple("HackingEstimate", "point range_low range_high residuals",
                                 defaults=((),))):
    """Pooled point estimate plus the stratified range.

    ``residuals`` holds one record per stratum: observed rate, the
    model's rate at the root (at h = 0 when no root exists), the root
    itself (None if absent) and a ``no_root`` flag.
    The point comes from the pooled fit, so it need not lie inside
    [range_low, range_high].
    """

    __slots__ = ()


def fit_h(data: ReplicationData, design: TestDesign) -> float:
    """Hacking rate whose predicted replication rate matches the pooled
    observed rate, as the exact root of rr_regime(design, h) = rate.

    rr_regime is linear-fractional and strictly decreasing in h (when the
    design has positive true-positive mass), so the root is unique and
    closed-form.  Raises NoRootError when the observed rate is 0 or at
    least the no-hacking prediction.
    """
    fp, tp = masses(design)
    rate = data.rate
    root = _h_root(rate, fp, tp)
    if root is not None:
        return root
    if rate <= 0.0:
        raise NoRootError(f"observed rate {rate} <= 0: no h in [0, 1) fits")
    raise NoRootError(
        f"observed rate {rate} >= no-hacking prediction {tp / (fp + tp):.6g}: "
        "bracket [0, 1) contains no root"
    )


def _h_root(rate: float, fp: float, tp: float) -> float | None:
    """The h in (0, 1) at which tp(1-h) / ((fp+tp)(1-h) + h) = rate, or None.

    Cross-multiplying gives K(1-h) = rate*h with K = tp - rate*(fp+tp), so
    h = K / (K + rate), which lies in (0, 1) exactly when rate > 0 and K > 0.
    """
    k = tp - rate * (fp + tp)
    return k / (k + rate) if rate > 0.0 and k > 0.0 else None


def _stratum_split(design: TestDesign, stratum: ReplicationStratum) -> tuple[float, float, float]:
    """(false-positive, true-positive) mass of the significant sound
    P-values that fall in the stratum, with no hacking, and the share of
    hacked P-values it holds under threshold clustering.

    Only the part of the stratum below the cutoff counts.  True-null
    sound P-values are uniform on [0, alpha]; false-null sound P-values
    follow the one-sided normal shift calibrated to the design's power,
    whose CDF is 0 at 0 and the power at alpha.  At power 0 or 1 the
    shift is infinite and the CDF takes its limit, the power, on (0, alpha].
    Hacked P-values cluster just below the cutoff, so the stratum with
    p_low < alpha <= p_high holds all of them and every other none.
    """
    a, power = design.alpha, design.power

    def cdf(x):
        if x == 0.0:
            return 0.0
        if x == a or power in (0.0, 1.0):
            return power
        return power_at_new_cutoff(power, a, x)

    lo, hi = min(stratum.p_low, a), min(stratum.p_high, a)
    hacked = 1.0 if stratum.p_low < a <= stratum.p_high else 0.0
    return design.phi * (hi - lo), (1.0 - design.phi) * (cdf(hi) - cdf(lo)), hacked


def _clustered_stratum_rate(design: TestDesign, stratum: ReplicationStratum,
                            h: float) -> float | None:
    """Predicted replication rate inside one stratum when all hacked
    P-values cluster just below the operative threshold; None when the
    stratum predicts no significant P-value."""
    fp, tp, hacked = _stratum_split(design, stratum)
    sound = 1.0 - h
    den = (tp + fp) * sound + hacked * h
    return tp * sound / den if den != 0.0 else None


def fit_h_stratified(
    data: ReplicationData,
    design: TestDesign,
    model: str = "per_stratum_rate",
) -> HackingEstimate:
    """Pooled point estimate plus a range from per-stratum fits.

    Two stratum models are available:

    * ``per_stratum_rate`` (default): each stratum's observed replication
      rate is fitted with the pooled hacked-replication formula, as if it
      were an independent observation of the overall rate.  On the
      psychology counts this yields endpoints near 0.02 and 0.16,
      bracketing the published 0.05-0.15 range.
    * ``threshold_clustering``: hacked P-values are assigned entirely to
      the stratum just below the baseline cutoff; sound P-values split
      between strata by the uniform law (true nulls) and the normal-shift
      law (false nulls), each over the stratum's own bounds clipped at
      the cutoff.  Under this model a stratum below the cutoff has a
      predicted rate that does not depend on h, and a stratum wholly at
      or above it predicts nothing, so neither yields a root (flagged in
      residuals, with ``fitted`` None for the empty stratum).

    Under either model a stratum's rate is tp(1-h) / ((fp+tp)(1-h) +
    hacked*h), so when the stratum holds the hacked P-values (hacked = 1)
    ``_h_root`` of its masses is its root; otherwise its rate does not
    move with h and it has none.
    """
    if model not in ("per_stratum_rate", "threshold_clustering"):
        raise DomainError(f"unknown stratum model {model!r}")
    if not data.strata:
        raise DomainError("stratified fit requires strata")
    point = fit_h(data, design)
    clustered = model == "threshold_clustering"
    roots = []
    residuals = []
    for stratum in data.strata:
        fp, tp, hacked = _stratum_split(design, stratum) if clustered else (*masses(design), 1.0)
        root = _h_root(stratum.rate, fp, tp) if hacked else None
        if root is not None:
            roots.append(root)
        h = 0.0 if root is None else root
        residuals.append({
            "p_range": (stratum.p_low, stratum.p_high),
            "observed": stratum.rate,
            "root": root,
            "fitted": _clustered_stratum_rate(design, stratum, h) if clustered else rr_regime(design, h),
            "no_root": root is None,
        })
    if not roots:
        raise NoRootError("no stratum admitted a root")
    return HackingEstimate(point=point, range_low=min(roots), range_high=max(roots),
                           residuals=tuple(residuals))


PsiSolution = namedtuple("PsiSolution", "psi achievable")


def solve_psi_for_rr_ratio(
    target_ratio: float,
    design_new: TestDesign,
    design_old: TestDesign,
    h: float,
) -> PsiSolution:
    """Persistence at which the replication-rate ratio equals
    ``target_ratio``.

    The ratio is linear-fractional and strictly decreasing in psi (for
    h > 0), so the root is unique and closed-form.  When the target lies
    outside the attainable range the nearest boundary is returned with
    ``achievable=False``.
    """
    if not target_ratio > 0.0:  # also rejects NaN
        raise DomainError(f"target_ratio={target_ratio} must be positive")
    if h <= 0.0:
        raise DomainError("solve requires h > 0 (psi has no effect at h = 0)")

    def gap(psi):
        return rr_ratio(design_new, design_old, h, psi) - target_ratio

    at0, at1 = gap(0.0), gap(1.0)
    for boundary, value in ((0.0, at0), (1.0, at1)):
        if value == 0.0:
            return PsiSolution(boundary, True)
    if at0 < 0.0 or at1 > 0.0:
        return PsiSolution(0.0 if at0 < 0.0 else 1.0, False)
    # rr_regime = tp / (c + h*psi + tp) = target * rr_old, solved for psi
    c, tp = masses(design_new, h, 0.0)
    psi = (tp / (target_ratio * rr_regime(design_old, h)) - (c + tp)) / h
    return PsiSolution(min(max(psi, 0.0), 1.0), True)
