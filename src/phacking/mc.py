"""Seeded Monte Carlo simulation of a test population, used as an
independent oracle for the closed-form rates.

Each simulated study is drawn independently: it is hacked with
probability h (in which case it is significant with the resolved
persistence probability and never replicable), otherwise sound with a
true null with probability phi.  Sound true-null P-values are uniform;
sound false-null P-values follow the one-sided normal shift calibrated
so the rejection probability at the operative cutoff equals the power.
Replication is perfect: a significant sound true positive replicates,
nothing else does.

Only the six cell counts are kept, and they are Multinomial(n, p), so
they are drawn as five conditional binomials rather than study by
study: time and memory do not grow with n.  Each binomial is exact:
Devroye's (1986) geometric waiting times when n*p < 10, otherwise
Hormann's (1993) BTRS transformed rejection with an accurate log-pmf
ratio.  All draws come from one ``random.Random(seed)`` (MT19937) in a
fixed order, so a given (seed, n_tests, parameters) always produces
identical counts.  The generator name is recorded in the outcome.
"""

import math
import random
from collections import namedtuple

from .errors import DomainError
from .rates import CELLS, HackingRegime, TestDesign, fpr_regime, resolve_psi, rr_regime

GENERATOR_NAME = "python-MT19937-binomial"

#: Largest n_tests: beyond 2**53 a float no longer holds every integer, so
#: the rejection sampler could not reach every count.
MAX_TESTS = 2**53

#: ``crosscheck`` fails a rate whose |z| against its closed form exceeds this.
Z_LIMIT = 4.0


class SimConfig(namedtuple("SimConfig", "n_tests seed design hacking cutoff")):
    """Simulation parameters.  ``n_tests`` and ``seed`` are ints;
    ``design.beta`` is interpreted at ``cutoff``, the operative
    significance level."""

    __slots__ = ()

    def __new__(cls, n_tests: int, seed: int, design: TestDesign, hacking: HackingRegime,
                cutoff: float):
        for name, value in (("n_tests", n_tests), ("seed", seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise DomainError(f"{name}={value!r} must be an integer")
        if not 1 <= n_tests <= MAX_TESTS:
            raise DomainError(f"n_tests={n_tests} must lie in [1, 2**53]")
        if seed < 0:
            raise DomainError(f"seed={seed} must be >= 0")
        if not (0.0 < cutoff <= hacking.baseline_alpha):
            raise DomainError(
                f"cutoff={cutoff} must lie in (0, baseline_alpha={hacking.baseline_alpha}]"
            )
        return tuple.__new__(cls, (n_tests, seed, design, hacking, cutoff))


class SimOutcome(namedtuple("SimOutcome", (
        "n_tests", "seed", "generator", *CELLS, "n_sound_true", "n_unsound", "n_sound_false",
        "empirical_fpr", "empirical_rr", "se_fpr", "se_rr", "empty_denominator"))):
    """Cell counts of the outcome table plus empirical rates.

    Rates are NaN with ``empty_denominator=True`` when no study is
    significant.  Standard errors are binomial over the significant
    count.
    """

    __slots__ = ()

    @property
    def n_significant(self) -> int:
        return self.sound_true_reject + self.unsound_reject + self.sound_false_reject

    def cells(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in CELLS}


def simulate(config: SimConfig) -> SimOutcome:
    """Run the simulation; deterministic for a fixed config."""
    n = config.n_tests
    design = config.design
    cutoff = config.cutoff
    psi = resolve_psi(config.hacking, cutoff)

    rng = random.Random(config.seed)
    # Fixed draw order: each count given the ones drawn before it.
    n_unsound = _binomial(rng, n, config.hacking.h)
    ur = _binomial(rng, n_unsound, psi)
    n_sound_true = _binomial(rng, n - n_unsound, design.phi)
    n_sound_false = n - n_unsound - n_sound_true
    str_ = _binomial(rng, n_sound_true, cutoff)
    sfr = _binomial(rng, n_sound_false, design.power)

    n_sig = str_ + sfr + ur
    if n_sig == 0:
        fpr = rr = se_fpr = se_rr = math.nan
        empty = True
    else:
        fpr = (str_ + ur) / n_sig
        rr = sfr / n_sig
        se_fpr = math.sqrt(fpr * (1.0 - fpr) / n_sig)
        se_rr = math.sqrt(rr * (1.0 - rr) / n_sig)
        empty = False

    return SimOutcome(
        n_tests=n,
        seed=config.seed,
        generator=GENERATOR_NAME,
        sound_true_reject=str_,
        sound_true_notreject=n_sound_true - str_,
        unsound_reject=ur,
        unsound_notreject=n_unsound - ur,
        sound_false_reject=sfr,
        sound_false_notreject=n_sound_false - sfr,
        n_sound_true=n_sound_true,
        n_unsound=n_unsound,
        n_sound_false=n_sound_false,
        empirical_fpr=fpr,
        empirical_rr=rr,
        se_fpr=se_fpr,
        se_rr=se_rr,
        empty_denominator=empty,
    )


CheckRow = namedtuple("CheckRow", "name closed_form empirical z_score ok")


class CrosscheckReport(namedtuple("CrosscheckReport", "outcome rows")):
    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return not self.outcome.empty_denominator and all(r.ok for r in self.rows)


def crosscheck(config: SimConfig) -> CrosscheckReport:
    """Compare empirical rates against the closed forms at the same
    parameters; |z| above ``Z_LIMIT`` marks a failure."""
    outcome = simulate(config)
    design_new = config.design.with_alpha(config.cutoff)
    psi = resolve_psi(config.hacking, config.cutoff)
    closed_fpr = fpr_regime(design_new, config.hacking.h, psi)
    closed_rr = rr_regime(design_new, config.hacking.h, psi)
    if outcome.empty_denominator:
        return CrosscheckReport(outcome=outcome, rows=())
    rows = []
    for name, closed, emp in (
        ("fpr", closed_fpr, outcome.empirical_fpr),
        ("rr", closed_rr, outcome.empirical_rr),
    ):
        # Two roots, so that a closed form near 5e-324 gives a positive se, not 0.
        se = math.sqrt(closed) * math.sqrt((1.0 - closed) / outcome.n_significant)
        z = 0.0 if se == 0.0 and emp == closed else (emp - closed) / se if se > 0.0 else math.inf
        rows.append(CheckRow(name=name, closed_form=closed, empirical=emp, z_score=z, ok=abs(z) <= Z_LIMIT))
    return CrosscheckReport(outcome=outcome, rows=tuple(rows))


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One exact Bin(n, p) draw for n <= 2**53, using only ``rng.random()``."""
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)  # 1 - p is exact here
    if n == 0 or p == 0.0:
        return 0
    if n * p < 10.0:
        # Geometric waiting times (Devroye 1986): the count is the number
        # of successes whose wait ends within the n trials.
        c = math.log1p(-p)
        k = trials = 0
        while True:
            wait = math.log(1.0 - rng.random()) / c  # floor(wait) failures, then a success
            if wait >= n - trials:
                return k
            trials += math.floor(wait) + 1
            k += 1

    # BTRS (Hormann 1993): transformed rejection with a squeeze.
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    log_at_mode = _log_pmf(n, math.floor((n + 1) * p), p)
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:  # random() returned 0.0
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = 1.0 - rng.random()  # in (0, 1], so log(v) is finite
        if us >= 0.07 and v <= vr:
            return k
        v *= alpha / (a / (us * us) + b)
        if math.log(v) <= _log_pmf(n, k, p) - log_at_mode:
            return k


def _log_pmf(n: int, k: int, p: float) -> float:
    """log of the Bin(n, p) probability of k, by Loader's (2000) saddle
    point form: unlike a difference of lgammas, which loses whole units
    once n nears 2**53, it keeps full relative accuracy."""
    q = 1.0 - p
    if k == 0:
        return -_bd0(n, n * q) - n * p
    if k == n:
        return -_bd0(n, n * p) - n * q
    return (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * p) - _bd0(n - k, n * q)
            + 0.5 * math.log(n / (math.tau * k * (n - k))))


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2*pi*n) * (n/e)**n) for n >= 1."""
    if n <= 15:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(math.tau)
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * nn)) / nn) / nn) / n


def _bd0(x: int, m: float) -> float:
    """x*log(x/m) + m - x for x >= 1, without cancellation when x is near m."""
    if abs(x - m) < 0.1 * (x + m):
        v = (x - m) / (x + m)
        s = (x - m) * v
        term = 2.0 * x * v
        v *= v
        j = 1
        while True:
            term *= v
            j += 2
            s1 = s + term / j
            if s1 == s:
                return s
            s = s1
    return x * math.log(x / m) + m - x
