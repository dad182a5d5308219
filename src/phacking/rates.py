"""Closed-form false positive and replication rates under NHST,
with and without P-hacking, and the outcome proportion tables behind them.

Conventions used throughout:

* ``alpha`` is the operative significance cutoff, ``beta`` the Type-II
  error rate at that cutoff (power = 1 - beta), ``phi`` the proportion of
  tested hypotheses with a true null (prior odds in favor of H1 are
  ``(1 - phi) / phi``).
* ``h`` is the proportion of all observed P-values that are hacked; by
  convention every hacked P-value is significant at the baseline cutoff.
* ``psi`` is the persistence: the proportion of hacked P-values that stay
  significant after the cutoff is lowered.  It is defined only for a
  cutoff at or below the baseline; ``resolve_psi`` is the one place that
  checks a cutoff against the baseline, for the Monte Carlo oracle too.

The package's three exception types live here, the module every path loads.
"""

import math
from collections import namedtuple


class ModelError(Exception):
    """Base class of every error the model raises; the CLI exits 3 on any."""


class DomainError(ModelError, ValueError):
    """An input is outside the domain the model is defined on: an argument
    out of its range, a design with no rejections, a cutoff above the
    baseline, a bad simulation setting or a figure shape no renderer
    draws."""


class NoRootError(ModelError):
    """No hacking rate in [0, 1) is consistent with the observed rate."""


#: Absolute tolerance for internal identity checks (complementarity,
#: table cell sums).  Paper-value regressions use a looser 5e-3 because
#: the source reports two decimals.
IDENTITY_ATOL = 1e-12


def _check_prob(name, value, *, open_lo=False, open_hi=False):
    if not (0.0 <= value <= 1.0) or (open_lo and value == 0.0) or (open_hi and value == 1.0):
        lo_b = "(" if open_lo else "["
        hi_b = ")" if open_hi else "]"
        raise DomainError(f"{name}={value!r} outside {lo_b}0.0, 1.0{hi_b}")


class TestDesign(namedtuple("TestDesign", "alpha beta phi")):
    """Significance level, Type-II error rate and true-null proportion
    for a family of tests.

    ``beta`` is interpreted at ``alpha``, i.e. power = 1 - beta is the
    rejection probability of a sound test of a false null at this cutoff.
    """

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float, phi: float):
        _check_prob("alpha", alpha, open_lo=True, open_hi=True)
        _check_prob("beta", beta)
        _check_prob("phi", phi)
        return tuple.__new__(cls, (alpha, beta, phi))

    @property
    def power(self) -> float:
        return 1.0 - self.beta

    def with_alpha(self, alpha: float) -> "TestDesign":
        return TestDesign(alpha, self.beta, self.phi)


#: Benjamin et al.'s (2017) design, the paper's reference: cutoff 0.05, power 0.80, odds 1:10.
PAPER_DESIGN = TestDesign(0.05, 0.2, 10.0 / 11.0)


def interpolated_psi(pi: float, naive_cdf: float = 0.0) -> float:
    """Persistence interpolated between the naive CDF value of hacked
    P-values below the new cutoff (pi = 0) and full persistence (pi = 1):
    pi + (1 - pi) * naive_cdf, symmetric in the two and computed from the
    larger one, so that it never rounds below either.

    The default naive_cdf = 0 is the conservative lower bound psi = pi:
    any interpolated persistence with the same pi is at least this large.
    """
    _check_prob("pi", pi)
    _check_prob("naive_cdf", naive_cdf)
    hi, lo = max(pi, naive_cdf), min(pi, naive_cdf)
    return hi + (1.0 - hi) * lo


# The benchmark in perfbench/ is the only caller of these two names, and it
# changes only together with the benchmark; delete them when it does.
InterpolatedPsi = interpolated_psi
DirectPsi = float


class HackingRegime(namedtuple("HackingRegime", "h baseline_alpha psi")):
    """Hacking rate plus the persistence ``psi`` of hacked P-values below a
    baseline cutoff, at which all hacked P-values are significant."""

    __slots__ = ()

    def __new__(cls, h: float, baseline_alpha: float = 0.05, psi: float = 1.0):
        # psi first, so the CLI names a bad --psi before a bad --h, as it does --pi.
        _check_prob("psi", psi)
        _check_prob("h", h, open_hi=True)
        _check_prob("baseline_alpha", baseline_alpha, open_lo=True, open_hi=True)
        return tuple.__new__(cls, (h, baseline_alpha, psi))


def resolve_psi(regime: HackingRegime, alpha: float) -> float:
    """Persistence of hacked P-values at the cutoff ``alpha``.

    At the baseline cutoff the answer is exactly 1, below it ``regime.psi``.
    Raises DomainError for alpha outside (0, 1) or above baseline_alpha:
    the monotonicity assumption only covers lowering the cutoff.
    """
    _check_prob("alpha", alpha, open_lo=True, open_hi=True)
    if alpha > regime.baseline_alpha:
        raise DomainError(f"alpha={alpha} > baseline_alpha={regime.baseline_alpha}")
    if alpha == regime.baseline_alpha:
        return 1.0
    return regime.psi


class OutcomeTable(namedtuple("OutcomeTable", (
        "sound_true_reject sound_true_notreject unsound_reject unsound_notreject "
        "sound_false_reject sound_false_notreject phi_sound mass_unsound mass_sound_false"))):
    """The nine-cell proportion table: sound/unsound columns split by
    H0 status and reject/not-reject rows, plus the three column masses.

    Cells sum to 1; with h = 0 the unsound column vanishes and the table
    reduces to the classical no-hacking proportions.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, cell in self.cells().items():
            if cell < 0:
                raise DomainError(f"negative cell {name}={cell}")
        total = sum(self.cells().values())
        if abs(total - 1.0) > IDENTITY_ATOL:
            raise DomainError(f"cells sum to {total}, not 1")
        checks = [
            (self.sound_true_reject + self.sound_true_notreject, self.phi_sound),
            (self.unsound_reject + self.unsound_notreject, self.mass_unsound),
            (self.sound_false_reject + self.sound_false_notreject, self.mass_sound_false),
        ]
        for got, declared in checks:
            if abs(got - declared) > IDENTITY_ATOL:
                raise DomainError(f"column sum {got} != declared mass {declared}")
        return self

    def cells(self) -> dict[str, float]:
        return dict(zip(CELLS, self))

    def rates(self) -> "Rates":
        """FPR/RR computed directly from the reject-row cells."""
        total = self.sound_true_reject + self.unsound_reject + self.sound_false_reject
        if total == 0.0:
            raise DomainError("no rejections: rates undefined")
        fpr = (self.sound_true_reject + self.unsound_reject) / total
        return Rates(fpr=fpr, rr=self.sound_false_reject / total)


#: The six cell names, in table order; ``mc.SimOutcome`` counts the same cells.
CELLS = OutcomeTable._fields[:6]


class Rates(namedtuple("Rates", "fpr rr")):
    __slots__ = ()

    def __new__(cls, fpr: float, rr: float):
        if abs(fpr + rr - 1.0) > IDENTITY_ATOL:
            raise DomainError(f"fpr + rr = {fpr + rr} != 1")
        return tuple.__new__(cls, (fpr, rr))


def masses(design: TestDesign, h: float = 0.0, psi: float = 1.0) -> tuple[float, float]:
    """False-positive and true-positive masses of the significant results
    at the operative cutoff ``design.alpha``:

        fp = alpha*phi*(1-h) + h*psi,   tp = (1-beta)*(1-phi)*(1-h).

    Every FPR is fp / (fp + tp) and every RR is tp / (fp + tp); h = 0
    gives the no-hacking masses and psi = 1 the baseline-cutoff ones.
    """
    _check_prob("h", h, open_hi=True)
    _check_prob("psi", psi)
    sound = 1.0 - h
    fp = design.alpha * design.phi * sound + h * psi
    tp = (1.0 - design.beta) * (1.0 - design.phi) * sound
    if fp + tp == 0.0:
        raise DomainError(f"alpha={design.alpha!r}, beta={design.beta!r}, phi={design.phi!r}, "
                          f"h={h!r}, psi={psi!r}: no rejections occur (zero denominator)")
    return fp, tp


def fpr_regime(design: TestDesign, h: float = 0.0, psi: float = 1.0) -> float:
    """False positive rate fp / (fp + tp) of ``masses(design, h, psi)``.

    h = 0 gives the rate with no P-hacking,

        alpha*phi / (alpha*phi + (1-beta)*(1-phi)),

    and psi = 1 the rate when every hacked P-value is significant, as at
    the baseline cutoff,

        (alpha*phi*(1-h) + h) / (alpha*phi*(1-h) + h + (1-beta)*(1-phi)*(1-h)).
    """
    fp, tp = masses(design, h, psi)
    return fp / (fp + tp)


def rr_regime(design: TestDesign, h: float = 0.0, psi: float = 1.0) -> float:
    """Replication rate tp / (fp + tp) of ``masses(design, h, psi)``;
    complementary to fpr_regime under perfect reproducibility."""
    fp, tp = masses(design, h, psi)
    return tp / (fp + tp)


def rr_old(design_old: TestDesign, h: float) -> float:
    """Hacked replication rate under the old cutoff, the ratio's denominator; DomainError at 0."""
    old = rr_regime(design_old, h)
    if old == 0.0:
        raise DomainError("old replication rate is 0: ratio undefined")
    return old


def rr_ratio(design_new: TestDesign, design_old: TestDesign, h: float, psi: float) -> float:
    """Replication rate under the new cutoff relative to ``rr_old``."""
    old = rr_old(design_old, h)
    return rr_regime(design_new, h, psi) / old


def table_regime(design: TestDesign, h: float = 0.0, psi: float = 1.0) -> OutcomeTable:
    """Proportion table under hacking with persistence ``psi`` at the
    operative cutoff ``design.alpha``.

    psi = 1 gives the baseline-cutoff hacking table; h = 0 gives the
    classical table.
    """
    _check_prob("h", h, open_hi=True)
    _check_prob("psi", psi)
    a, b, p = design.alpha, design.beta, design.phi
    sound = 1.0 - h
    return OutcomeTable(
        sound_true_reject=a * p * sound,
        sound_true_notreject=(1.0 - a) * p * sound,
        unsound_reject=h * psi,
        unsound_notreject=h * (1.0 - psi),
        sound_false_reject=(1.0 - b) * (1.0 - p) * sound,
        sound_false_notreject=b * (1.0 - p) * sound,
        phi_sound=p * sound,
        mass_unsound=h,
        mass_sound_false=(1.0 - p) * sound,
    )


def power_at_new_cutoff(power_at_alpha: float, alpha: float, new_alpha: float) -> float:
    """Power at a lower cutoff under a one-sided normal shift with the
    sample size fixed.

    The effect delta is calibrated so the rejection probability at
    ``alpha`` equals ``power_at_alpha``; the returned value is the
    rejection probability of the same test at ``new_alpha``.  This is a
    convenience mapping, never applied implicitly by the rate formulas.
    """
    if not (0.0 < new_alpha <= alpha < 1.0):
        raise DomainError(f"need 0 < new_alpha <= alpha < 1, got {new_alpha}, {alpha}")
    z = normal_shift_delta(power_at_alpha, alpha) + _norm().inv_cdf(new_alpha)
    # erfc keeps the relative accuracy of small powers that 1 + erf(...) loses
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def normal_shift_delta(power: float, alpha: float) -> float:
    """Effect size of the one-sided z-test with the given power at alpha."""
    if not (0.0 < power < 1.0) or not (0.0 < alpha < 1.0):
        raise DomainError("power and alpha must lie in (0, 1)")
    norm = _norm()
    return norm.inv_cdf(power) - norm.inv_cdf(alpha)


def _norm():
    """``statistics.NormalDist()``, imported on first use so the light CLI
    paths skip the few ms it takes.  Upper quantiles are ``-inv_cdf(alpha)``:
    ``inv_cdf(1 - alpha)`` fails once 1 - alpha rounds to 1."""
    from statistics import NormalDist

    return NormalDist()
