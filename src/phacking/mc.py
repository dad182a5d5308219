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

The generator is numpy's PCG64 (via ``default_rng``), drawn ``CHUNK``
studies at a time in a fixed order, so a given (seed, n_tests, parameters)
always produces identical output on any platform, in bounded memory.  The
generator name is recorded in the outcome.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DegenerateConfigError
from .rates import HackingRegime, TestDesign, _norm, fpr_regime, normal_shift_delta, resolve_psi, rr_regime

__all__ = ["SimConfig", "SimOutcome", "CheckRow", "CrosscheckReport", "simulate", "crosscheck"]

GENERATOR_NAME = "numpy-PCG64"

#: Studies drawn and counted at a time.
CHUNK = 2**20


class SimConfig(namedtuple("SimConfig", "n_tests seed design hacking cutoff")):
    """Simulation parameters.  ``design.beta`` is interpreted at
    ``cutoff``, the operative significance level."""

    __slots__ = ()

    def __new__(cls, n_tests: int, seed: int, design: TestDesign, hacking: HackingRegime,
                cutoff: float):
        if n_tests < 1:
            raise DegenerateConfigError("n_tests must be >= 1")
        if seed < 0:
            raise DegenerateConfigError(f"seed={seed} must be >= 0")
        if not (0.0 < cutoff <= hacking.baseline_alpha):
            raise DegenerateConfigError(
                f"cutoff={cutoff} must lie in (0, baseline_alpha={hacking.baseline_alpha}]"
            )
        return tuple.__new__(cls, (n_tests, seed, design, hacking, cutoff))


class SimOutcome(namedtuple("SimOutcome", (
        "n_tests seed generator sound_true_reject sound_true_notreject unsound_reject "
        "unsound_notreject sound_false_reject sound_false_notreject n_sound_true n_unsound "
        "n_sound_false empirical_fpr empirical_rr se_fpr se_rr empty_denominator"))):
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
        return {
            "sound_true_reject": self.sound_true_reject,
            "sound_true_notreject": self.sound_true_notreject,
            "unsound_reject": self.unsound_reject,
            "unsound_notreject": self.unsound_notreject,
            "sound_false_reject": self.sound_false_reject,
            "sound_false_notreject": self.sound_false_notreject,
        }


def simulate(config: SimConfig) -> SimOutcome:
    """Run the simulation; deterministic for a fixed config."""
    import numpy as np

    n = config.n_tests
    design = config.design
    h = config.hacking.h
    cutoff = config.cutoff
    psi = resolve_psi(config.hacking, cutoff)
    # A sound false-null study rejects when z_alt + delta > z_crit: always
    # at beta = 0, never at beta = 1.
    if design.beta in (0.0, 1.0):
        delta = math.inf if design.beta == 0.0 else -math.inf
    else:
        delta = normal_shift_delta(1.0 - design.beta, cutoff)
    z_crit = -_norm().inv_cdf(cutoff)

    rng = np.random.default_rng(config.seed)
    str_ = sfr = ur = n_sound_true = n_sound_false = n_unsound = 0
    for start in range(0, n, CHUNK):
        m = min(CHUNK, n - start)
        # Fixed draw order, one vector per decision, so results do not
        # depend on branch frequencies.
        u_hack = rng.random(m)
        u_null = rng.random(m)
        u_pnull = rng.random(m)
        z_alt = rng.standard_normal(m)
        u_hacksig = rng.random(m)
        hacked = u_hack < h
        h0_true = ~hacked & (u_null < design.phi)
        h0_false = ~(hacked | h0_true)
        str_ += int(np.count_nonzero(h0_true & (u_pnull < cutoff)))
        sfr += int(np.count_nonzero(h0_false & (z_alt + delta > z_crit)))
        ur += int(np.count_nonzero(hacked & (u_hacksig < psi)))
        n_sound_true += int(np.count_nonzero(h0_true))
        n_sound_false += int(np.count_nonzero(h0_false))
        n_unsound += int(np.count_nonzero(hacked))

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


class CrosscheckReport(namedtuple("CrosscheckReport", "outcome rows empty_denominator")):
    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return not self.empty_denominator and all(r.ok for r in self.rows)


def crosscheck(config: SimConfig, z_limit: float = 4.0) -> CrosscheckReport:
    """Compare empirical rates against the closed forms at the same
    parameters; |z| above ``z_limit`` marks a failure."""
    outcome = simulate(config)
    design_new = config.design.with_alpha(config.cutoff)
    psi = resolve_psi(config.hacking, config.cutoff)
    closed_fpr = fpr_regime(design_new, config.hacking.h, psi)
    closed_rr = rr_regime(design_new, config.hacking.h, psi)
    if outcome.empty_denominator:
        return CrosscheckReport(outcome=outcome, rows=(), empty_denominator=True)
    rows = []
    for name, closed, emp in (
        ("fpr", closed_fpr, outcome.empirical_fpr),
        ("rr", closed_rr, outcome.empirical_rr),
    ):
        se = math.sqrt(closed * (1.0 - closed) / outcome.n_significant)
        z = 0.0 if se == 0.0 and emp == closed else (emp - closed) / se if se > 0.0 else math.inf
        rows.append(CheckRow(name=name, closed_form=closed, empirical=emp, z_score=z, ok=abs(z) <= z_limit))
    return CrosscheckReport(outcome=outcome, rows=tuple(rows), empty_denominator=False)
