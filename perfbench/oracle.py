"""Independent oracle for the phacking model, standard library only.

Every value the benchmark checks is recomputed here from the model's
definitions, without importing the program or scipy.  Normal quantiles
and CDFs come from ``statistics.NormalDist``; the inverse solves are the
exact algebraic roots of the linear-fractional rate formulas, not
bisection, so a disagreement with the program points at one of the two
methods rather than at a shared implementation.

Conventions follow the paper: ``alpha`` is the operative cutoff,
``beta`` the Type-II rate at that cutoff, ``phi`` the share of true
nulls, ``h`` the share of hacked P-values (all significant at the
baseline cutoff) and ``psi`` the share of hacked P-values that stay
significant after the cutoff is lowered.
"""

from __future__ import annotations

import math
from statistics import NormalDist

STD_NORMAL = NormalDist()

#: phi for prior odds 1:10 in favour of H1, the paper's default.
PAPER_PHI = 10.0 / 11.0

#: The six outcome-table cells, in the program's order.
CELLS = (
    "sound_true_reject",
    "sound_true_notreject",
    "unsound_reject",
    "unsound_notreject",
    "sound_false_reject",
    "sound_false_notreject",
)


class NoRoot(Exception):
    """No hacking rate in [0, 1) reproduces the observed rate."""


# --- forward closed forms -------------------------------------------------

def table(alpha, beta, phi, h=0.0, psi=1.0):
    """Outcome-table probabilities at the operative cutoff ``alpha``."""
    sound = 1.0 - h
    return {
        "sound_true_reject": alpha * phi * sound,
        "sound_true_notreject": (1.0 - alpha) * phi * sound,
        "unsound_reject": h * psi,
        "unsound_notreject": h * (1.0 - psi),
        "sound_false_reject": (1.0 - beta) * (1.0 - phi) * sound,
        "sound_false_notreject": beta * (1.0 - phi) * sound,
    }


def fpr(alpha, beta, phi, h=0.0, psi=1.0):
    """Share of significant results that are false positives: true-null
    sound rejections plus persistent hacked results, over all rejections."""
    t = table(alpha, beta, phi, h, psi)
    false_pos = t["sound_true_reject"] + t["unsound_reject"]
    return false_pos / (false_pos + t["sound_false_reject"])


def rr(alpha, beta, phi, h=0.0, psi=1.0):
    """Replication rate under perfect reproducibility: sound true
    positives over all rejections."""
    t = table(alpha, beta, phi, h, psi)
    true_pos = t["sound_false_reject"]
    return true_pos / (t["sound_true_reject"] + t["unsound_reject"] + true_pos)


def resolve_psi(new_alpha, baseline_alpha=0.05, psi=None, pi=None, naive_cdf=0.0):
    """Persistence at ``new_alpha``: 1 at the baseline cutoff, else the
    direct value, or pi + (1 - pi) * naive_cdf when given via pi."""
    if new_alpha == baseline_alpha:
        return 1.0
    if pi is not None:
        return pi + (1.0 - pi) * naive_cdf
    return 1.0 if psi is None else psi


def rr_ratio(new, old, h, psi):
    """RR at the new design with persistence psi over the hacked RR at
    the old design; ``new`` and ``old`` are (alpha, beta, phi)."""
    return rr(*new, h, psi) / rr(*old, h, 1.0)


# --- exact inverses -------------------------------------------------------

def _linear_fractional_root(tp, fp, rate):
    """Root in [0, 1) of tp(1-h) / ((tp + fp)(1-h) + h) = rate.

    Cross-multiplying gives (1-h) K = rate h with K = tp - rate (tp + fp),
    so h = K / (K + rate).  A root exists only for 0 < rate < tp/(tp+fp).
    """
    if rate <= 0.0:
        raise NoRoot(f"rate {rate} <= 0")
    k = tp - rate * (tp + fp)
    if k <= 0.0:
        raise NoRoot(f"rate {rate} >= no-hacking rate {tp / (tp + fp)}")
    return k / (k + rate)


def fit_h(rate, alpha, beta, phi):
    """Hacking rate at which the hacked replication rate equals ``rate``."""
    return _linear_fractional_root((1.0 - beta) * (1.0 - phi), alpha * phi, rate)


def solve_psi(target, new, old, h):
    """Persistence at which rr_ratio(new, old, h, psi) equals ``target``.

    Returns (psi, achievable); outside [0, 1] the nearest boundary is
    returned with achievable False, as the program documents.
    """
    alpha, beta, phi = new
    tp = (1.0 - beta) * (1.0 - phi) * (1.0 - h)
    c = alpha * phi * (1.0 - h) + tp
    psi = (tp / (target * rr(*old, h, 1.0)) - c) / h
    if psi < 0.0:
        return 0.0, False
    if psi > 1.0:
        return 1.0, False
    return psi, True


# --- stratified clustering model -------------------------------------------

def false_null_cdf(x, alpha, beta):
    """P(P < x) for a sound false-null P-value under the one-sided normal
    shift calibrated so that P(P < alpha) = 1 - beta."""
    if x <= 0.0:
        return 0.0
    delta = STD_NORMAL.inv_cdf(1.0 - beta) + STD_NORMAL.inv_cdf(1.0 - alpha)
    return STD_NORMAL.cdf(delta - STD_NORMAL.inv_cdf(1.0 - x))


def stratum_masses(p_low, p_high, alpha, beta, phi):
    """(true-positive mass, false-positive mass, holds hacked results) of
    the significant sound results whose P-value lies in [p_low, p_high).

    Hacked P-values cluster just below the operative cutoff, so they fall
    in the stratum whose range contains alpha from below.
    """
    top = min(p_high, alpha)
    lo = min(p_low, alpha)
    tp_frac = (false_null_cdf(top, alpha, beta) - false_null_cdf(lo, alpha, beta)) / (1.0 - beta)
    fp_frac = (top - lo) / alpha
    holds_hacked = p_low < alpha <= p_high
    return (
        (1.0 - beta) * (1.0 - phi) * tp_frac,
        alpha * phi * fp_frac,
        holds_hacked,
    )


def clustered_rate(p_low, p_high, alpha, beta, phi, h):
    """Predicted replication rate inside one stratum at hacking rate h."""
    tp, fp, holds_hacked = stratum_masses(p_low, p_high, alpha, beta, phi)
    sound = 1.0 - h
    return tp * sound / ((tp + fp) * sound + (h if holds_hacked else 0.0))


def clustered_root(p_low, p_high, alpha, beta, phi, rate):
    """Exact root of clustered_rate(h) = rate; a stratum without hacked
    results has an h-independent rate and hence no root."""
    tp, fp, holds_hacked = stratum_masses(p_low, p_high, alpha, beta, phi)
    if not holds_hacked:
        raise NoRoot("stratum rate does not depend on h")
    return _linear_fractional_root(tp, fp, rate)


# --- figure grids -----------------------------------------------------------

def _steps(start, step, count, digits):
    return [round(start + step * i, digits) for i in range(count)]


POWER_FINE = _steps(0.05, 0.01, 95, 2)  # 0.05 .. 0.99
POWER_COARSE = _steps(0.05, 0.05, 19, 2)  # 0.05 .. 0.95
H_COARSE = _steps(0.0, 0.05, 20, 2)  # 0 .. 0.95
PI_GRID = _steps(0.0, 0.005, 201, 3)  # 0 .. 1
PSI_COARSE = _steps(0.0, 0.05, 21, 2)  # 0 .. 1


def figure_rows(figure, h=None):
    """Rows (axis values..., value columns...) of one figure, in
    row-major axis order, straight from the paper's definitions."""
    phi = PAPER_PHI
    if figure == 1:
        return [
            (a, hh, p, fpr(a, 1.0 - p, phi, hh))
            for a in (0.05, 0.005) for hh in (0.0, 0.05, 0.15) for p in POWER_FINE
        ]
    if figure == 2:
        return [
            (a, p, fpr(a, 1.0 - p, phi), rr(a, 1.0 - p, phi))
            for a in (0.05, 0.005) for p in POWER_FINE
        ]
    if figure == 3:
        return [(pi, fpr(0.005, 0.2, phi, h, pi)) for pi in PI_GRID]
    if figure == 4:
        return [
            (p, hh, fpr(0.05, 1.0 - p, phi, hh), fpr(0.005, 1.0 - p, phi, hh))
            for p in POWER_COARSE for hh in H_COARSE
        ]
    if figure == 5:
        rows = []
        for p in POWER_COARSE:
            for psi in PSI_COARSE:
                ratio = rr_ratio((0.005, 1.0 - p, phi), (0.05, 0.2, phi), h, psi)
                rows.append((p, psi, ratio, float(ratio < 1.0)))
        return rows
    raise ValueError(f"unknown figure {figure}")


def figure_shape(figure):
    """(kind, grid lengths) of a figure: heatmaps have one SVG cell per
    grid point."""
    return {
        1: ("line", (2, 3, len(POWER_FINE))),
        2: ("line", (2, len(POWER_FINE))),
        3: ("line", (len(PI_GRID),)),
        4: ("heatmap", (len(POWER_COARSE), len(H_COARSE))),
        5: ("heatmap", (len(POWER_COARSE), len(PSI_COARSE))),
    }[figure]


# --- comparison helpers -----------------------------------------------------

def close(got, want, tol=1e-12):
    """Absolute-or-relative closeness at ``tol``."""
    return abs(got - want) <= tol * max(1.0, abs(want))


def matches_6g(text, want):
    """A field printed to 6 significant digits matches ``want``: half a
    unit in the sixth digit, plus slack for the last bits of either side."""
    got = float(text)
    return abs(got - want) <= 5e-6 * abs(want) * (1.0 + 1e-9) + 1e-15


def binomial_z_bound(cells, family_alpha=1e-9):
    """Two-sided z-bound for ``cells`` simultaneous binomial tests with a
    Bonferroni-corrected family error rate."""
    return STD_NORMAL.inv_cdf(1.0 - family_alpha / (2 * cells))


def cell_z(count, n, p):
    """z-score of a binomial count against probability p; a cell of
    probability 0 or 1 must be hit exactly."""
    if p <= 0.0 or p >= 1.0:
        return 0.0 if count == round(n * p) else math.inf
    return (count - n * p) / math.sqrt(n * p * (1.0 - p))
