import math
import tracemalloc

import pytest
from scipy.stats import norm

from phacking import (
    DegenerateConfigError,
    DirectPsi,
    HackingRegime,
    SimConfig,
    TestDesign,
    crosscheck,
    fpr_regime,
    simulate,
)
from phacking.mc import CHUNK, GENERATOR_NAME
from phacking.rates import normal_shift_delta

PHI = 10.0 / 11.0
N = 200_000


def config(n=N, seed=42, alpha=0.05, beta=0.20, phi=PHI, h=0.0, psi=1.0, cutoff=None):
    return SimConfig(
        n_tests=n,
        seed=seed,
        design=TestDesign(alpha if cutoff is None else cutoff, beta, phi),
        hacking=HackingRegime(h, 0.05, DirectPsi(psi)),
        cutoff=cutoff if cutoff is not None else alpha,
    )


class TestSimulate:
    def test_deterministic(self):
        cfg = config(h=0.1, psi=0.5, cutoff=0.005)
        assert simulate(cfg) == simulate(cfg)

    def test_generator_recorded(self):
        out = simulate(config(n=100))
        assert out.generator == GENERATOR_NAME
        assert out.seed == 42

    def test_cell_conservation(self):
        # the last case ends in a second chunk of one study
        for seed, n in ((0, N), (1, N), (2, CHUNK + 1)):
            out = simulate(config(n=n, seed=seed, h=0.2, psi=0.3, cutoff=0.01))
            assert sum(out.cells().values()) == out.n_tests
            assert out.n_sound_true + out.n_unsound + out.n_sound_false == out.n_tests

    def test_rates_equal_cell_ratios(self):
        out = simulate(config(h=0.1))
        n_sig = out.n_significant
        assert out.empirical_fpr == (out.sound_true_reject + out.unsound_reject) / n_sig
        assert out.empirical_rr == out.sound_false_reject / n_sig

    def test_no_hacking_matches_closed_form(self):
        out = simulate(config(n=10**6))
        se = math.sqrt(0.3846 * (1 - 0.3846) / out.n_significant)
        assert abs(out.empirical_fpr - 0.3846) <= 3 * se + 5e-4

    def test_almost_all_hacked_kills_replication(self):
        out = simulate(config(n=50_000, h=1.0 - 1e-9))
        assert out.empirical_rr == 0.0
        assert out.unsound_notreject == 0  # psi = 1

    def test_single_study(self):
        out = simulate(config(n=1, seed=7))
        assert sum(out.cells().values()) == 1
        assert sum(1 for v in out.cells().values() if v) == 1

    def test_power_calibration(self):
        cfg = config(cutoff=0.005, beta=0.5, h=0.0)
        out = simulate(cfg)
        # among sound false-null draws the rejection fraction must match power
        frac = out.sound_false_reject / (out.sound_false_reject + out.sound_false_notreject)
        se = math.sqrt(0.5 * 0.5 / (out.sound_false_reject + out.sound_false_notreject))
        assert abs(frac - 0.5) <= 4 * se

    def test_pvalue_law_matches_normal_shift(self):
        # sanity for the alternative P-value model: exceedance at a cutoff
        # other than the operative one follows the shifted normal
        cfg = config(cutoff=0.05, beta=0.2, phi=0.0, h=0.0)
        out = simulate(cfg)
        delta = normal_shift_delta(0.8, 0.05)
        expected = float(norm.cdf(delta - norm.ppf(1 - 0.05)))
        frac = out.sound_false_reject / out.n_tests
        assert frac == pytest.approx(expected, abs=4 * math.sqrt(expected * (1 - expected) / N))

    def test_memory_bounded_in_n(self):
        def peak(n):
            tracemalloc.start()
            try:
                simulate(config(n=n, h=0.1, psi=0.5, cutoff=0.005))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * CHUNK) <= 1.5 * peak(CHUNK)

    def test_config_validation(self):
        with pytest.raises(DegenerateConfigError):
            config(n=0)
        with pytest.raises(DegenerateConfigError):
            config(cutoff=0.06)
        with pytest.raises(DegenerateConfigError):
            config(seed=-1)


class TestCrosscheck:
    def test_agreement_grid(self):
        for h in (0.0, 0.05, 0.15):
            for cutoff in (0.05, 0.005):
                for psi in (1.0, 0.25):
                    cfg = config(n=N, seed=hash((h, cutoff, psi)) % 2**32,
                                 h=h, psi=psi, cutoff=cutoff)
                    report = crosscheck(cfg)
                    assert report.all_ok, (h, cutoff, psi, report.rows)

    def test_reduction_chain(self):
        cfg = config(h=0.0, cutoff=0.05)
        report = crosscheck(cfg)
        fpr_row = next(r for r in report.rows if r.name == "fpr")
        design = TestDesign(0.05, 0.20, PHI)
        assert fpr_row.closed_form == pytest.approx(fpr_regime(design, 0.0, 1.0), abs=1e-15)

    def test_empty_denominator_flagged(self):
        # beta = 1 and all true nulls at a tiny cutoff: no rejections
        cfg = SimConfig(
            n_tests=20,
            seed=3,
            design=TestDesign(1e-6, 1.0, 1.0),
            hacking=HackingRegime(0.0, 0.05),
            cutoff=1e-6,
        )
        report = crosscheck(cfg)
        assert report.empty_denominator
        assert not report.all_ok
        assert math.isnan(report.outcome.empirical_rr)
