"""Fitting the hacking rate to observed replication counts and solving
inverse persistence problems.

The psychology replication counts (36/97 overall; 24/47 for original
P < 0.005 and 12/50 for 0.005 < P < 0.05) ship as ``PSYCH_REP``.
"""

from collections import namedtuple

from .rates import DomainError, NoRootError, TestDesign, masses, power_at_new_cutoff, rr_old

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


def _h_root(rate: float, fp: float, tp: float, share: float = 1) -> float | None:
    """The h in (0, 1) at which ``_stratum_rate(fp, tp, share, h)`` = rate, or None.

    Cross-multiplying gives K(1-h) = rate*share*h with K = tp - rate*(fp+tp),
    so h = K / (K + rate*share), in (0, 1) exactly when rate*share > 0 and
    K > 0; a root within rounding of 1 is the largest float below 1.
    """
    k = tp - rate * (fp + tp)
    pull = rate * share
    return min(k / (k + pull), 1.0 - 2.0**-53) if pull > 0 and k > 0 else None


def _stratum_split(design: TestDesign, stratum: ReplicationStratum) -> tuple[float, float, float]:
    """(false-positive, true-positive) mass of the significant sound
    P-values that fall in the stratum, with no hacking, and the share of
    the hacked P-values it holds under threshold clustering.

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
    share = 1.0 if stratum.p_low < a <= stratum.p_high else 0.0
    return design.phi * (hi - lo), (1.0 - design.phi) * (cdf(hi) - cdf(lo)), share


def _stratum_rate(fp: float, tp: float, share: float, h: float) -> float | None:
    """Replication rate of a stratum with no-hacking masses (fp, tp) and
    share ``share`` of the hacked P-values, summed as ``masses`` sums;
    None when the stratum predicts no significant P-value."""
    sound = 1.0 - h
    fp, tp = fp * sound + share * h, tp * sound
    return tp / (fp + tp) if fp + tp != 0.0 else None


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

    Under either model a stratum's rate is ``_stratum_rate`` of its
    no-hacking masses and its share of the hacked P-values (1 under
    ``per_stratum_rate``), and ``_h_root`` of the same three values is its
    root; a stratum with share 0 has none, as its rate does not move with h.
    """
    split = {"per_stratum_rate": lambda design, stratum: (*masses(design), 1.0),
             "threshold_clustering": _stratum_split}.get(model)
    if split is None:
        raise DomainError(f"unknown stratum model {model!r}")
    if not data.strata:
        raise DomainError("stratified fit requires strata")
    point = fit_h(data, design)
    roots = []
    residuals = []
    for stratum in data.strata:
        root = _h_root(stratum.rate, *split(design, stratum))
        if root is not None:
            roots.append(root)
        residuals.append({
            "p_range": (stratum.p_low, stratum.p_high),
            "observed": stratum.rate,
            "root": root,
            # split again, as at the root: splitting once ran fits 6-9% faster but raised
            # peak RSS 3-5% (bound 5%), as RSS follows the op count; see ROADMAP item 1
            "fitted": _stratum_rate(*split(design, stratum), 0.0 if root is None else root),
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
    """Persistence at which the replication-rate ratio equals ``target_ratio``.

    The ratio is linear-fractional and strictly decreasing in psi (for
    h > 0), so the root is unique and closed-form.  When the target lies
    outside the attainable range the nearest boundary is returned with
    ``achievable=False``.  Each design's masses are evaluated once.
    """
    if not target_ratio > 0.0:  # also rejects NaN
        raise DomainError(f"target_ratio={target_ratio} must be positive")
    if h <= 0.0:
        raise DomainError("solve requires h > 0 (psi has no effect at h = 0)")
    old = rr_old(design_old, h)
    c, tp = masses(design_new, h, 0.0)  # ratio at psi: tp / (c + h*psi + tp) / old, as masses sums
    at0 = tp / (c + tp) / old - target_ratio
    if at0 <= 0.0:
        return PsiSolution(0.0, at0 == 0.0)
    at1 = tp / (c + h + tp) / old - target_ratio  # at1 <= at0: the ratio never rises with psi
    if at1 >= 0.0:
        return PsiSolution(1.0, at1 == 0.0)
    psi = (tp / (target_ratio * old) - (c + tp)) / h
    return PsiSolution(min(max(psi, 0.0), 1.0), True)
