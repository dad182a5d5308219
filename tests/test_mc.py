import bisect
import math
import random
import time
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import binom, chi2, norm

from phacking import (
    DomainError,
    HackingRegime,
    SimConfig,
    TestDesign,
    crosscheck,
    fpr_regime,
    masses,
    resolve_psi,
    simulate,
    table_regime,
)
from phacking.mc import GENERATOR_NAME, MAX_TESTS, _binomial, _log_pmf
from phacking.rates import normal_shift_delta

PHI = 10.0 / 11.0
N = 200_000


def config(n=N, seed=42, alpha=0.05, beta=0.20, phi=PHI, h=0.0, psi=1.0, cutoff=None):
    return SimConfig(
        n_tests=n,
        seed=seed,
        design=TestDesign(alpha if cutoff is None else cutoff, beta, phi),
        hacking=HackingRegime(h, 0.05, psi),
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
        for seed, n in ((0, N), (1, 10**12), (2, MAX_TESTS)):
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

        peak(10**3)  # first call imports statistics
        assert peak(10**12) <= 1.5 * peak(10**3)

    def test_time_flat_in_n(self):
        def fastest(n):
            cfg = config(n=n, h=0.1, psi=0.5, cutoff=0.005)
            times = []
            for _ in range(20):
                t0 = time.perf_counter()
                simulate(cfg)
                times.append(time.perf_counter() - t0)
            return min(times)

        fastest(10**3)
        assert fastest(10**12) <= 5 * fastest(10**3)

    def test_largest_n(self):
        out = simulate(config(n=MAX_TESTS, h=0.05))
        assert sum(out.cells().values()) == MAX_TESTS
        with pytest.raises(DomainError, match=rf"n_tests={MAX_TESTS + 1} must lie in \[1, 2\*\*53\]"):
            config(n=MAX_TESTS + 1)

    def test_config_validation(self):
        with pytest.raises(DomainError, match=r"n_tests=0 must lie in \[1, 2\*\*53\]"):
            config(n=0)
        with pytest.raises(DomainError, match="^alpha=0.06 > baseline_alpha=0.05$"):
            config(cutoff=0.06)
        with pytest.raises(DomainError, match="seed=-1 must be >= 0"):
            config(seed=-1)
        # random.Random seeds a float by its hash, and a NaN hashes by identity
        for bad in ({"n": 1000.0}, {"n": True}, {"seed": math.nan}, {"seed": 1.0}, {"seed": False}):
            with pytest.raises(DomainError, match="must be an integer"):
                config(**bad)


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
        assert report.outcome.empty_denominator
        assert not report.all_ok
        assert report.outcome.empirical_rr is None


# h, psi, beta at the lowered cutoff 0.005 (psi counts only below the 0.05 baseline)
CELL_GRID = [(h, psi, beta) for h in (0.0, 0.1) for psi in (0.0, 0.3, 1.0) for beta in (0.0, 0.2, 1.0)]


class TestCellOracle:
    def test_every_cell_matches_table_regime(self):
        n = 10**6
        z_bound = NormalDist().inv_cdf(1.0 - 1e-6 / (2 * 6 * len(CELL_GRID)))  # Bonferroni, six cells
        for i, (h, psi, beta) in enumerate(CELL_GRID):
            cfg = config(n=n, seed=500 + i, beta=beta, h=h, psi=psi, cutoff=0.005)
            design = TestDesign(0.005, beta, PHI)
            resolved = resolve_psi(cfg.hacking, cfg.cutoff)
            table = table_regime(design, h, resolved)
            fp, tp = masses(design, h, resolved)
            assert table.sound_true_reject + table.unsound_reject == pytest.approx(fp, abs=1e-15)
            assert table.sound_false_reject == pytest.approx(tp, abs=1e-15)
            for cell, count in simulate(cfg).cells().items():
                p = getattr(table, cell)
                if p in (0.0, 1.0):
                    assert count == n * p, (h, psi, beta, cell)
                    continue
                z = (count - n * p) / math.sqrt(n * p * (1.0 - p))
                assert abs(z) <= z_bound, (h, psi, beta, cell, z)


def chi_square_pvalue(draws, n, p, bins=20):
    """Pearson chi-square p-value of ``draws`` against Bin(n, p), binned at
    about ``bins`` quantiles."""
    dist = binom(n, p)
    edges = sorted({int(k) for k in dist.ppf(np.linspace(0.0, 1.0, bins + 1)[1:-1])} - {n})
    probs = np.diff([0.0, *dist.cdf(edges), 1.0])
    observed = np.bincount([bisect.bisect_left(edges, k) for k in draws], minlength=len(probs))
    expected = len(draws) * probs
    return chi2.sf(float(np.sum((observed - expected) ** 2 / expected)), len(probs) - 1)


# (n, p): geometric waits just below n*p = 10, BTRS just above, p > 0.5
# through both, n = 0 and 1, huge n on both branches
BINOMIAL_GRID = [
    (1000, 0.0099), (1000, 0.0101), (12, 0.9), (200, 0.8), (1, 0.3), (40, 0.5),
    (10**12, 0.3), (10**12, 5e-12), (10**12, 1.0 - 2**-40),
]


class TestBinomial:
    def test_chi_square_against_exact_pmf(self):
        for i, (n, p) in enumerate(BINOMIAL_GRID):
            rng = random.Random(i)
            draws = [_binomial(rng, n, p) for _ in range(20_000)]
            assert chi_square_pvalue(draws, n, p) > 1e-4 / len(BINOMIAL_GRID), (n, p)

    @pytest.mark.parametrize("n, p, want", [(0, 0.3, 0), (0, 1.0, 0), (5, 0.0, 0), (5, 1.0, 5),
                                            (10**12, 0.0, 0), (10**12, 1.0, 10**12), (1, 0.0, 0),
                                            (1, 1.0, 1)])
    def test_degenerate(self, n, p, want):
        rng = random.Random(0)
        assert {_binomial(rng, n, p) for _ in range(100)} == {want}

    @given(st.integers(0, MAX_TESTS), st.floats(0.0, 1.0), st.integers(0, 2**32))
    def test_within_range(self, n, p, seed):
        assert 0 <= _binomial(random.Random(seed), n, p) <= n

    def test_random_zero_is_drawn_safely(self):
        class Zeros(random.Random):
            """Returns 0.0 first, then the ordinary stream."""

            def __init__(self):
                super().__init__(1)
                self.zeros = 2

            def random(self):
                if self.zeros:
                    self.zeros -= 1
                    return 0.0
                return super().random()

        for n, p in ((1000, 0.005), (10**6, 0.4)):
            assert 0 <= _binomial(Zeros(), n, p) <= n

    def test_log_pmf_is_accurate(self):
        for n, p in ((50, 0.3), (1000, 0.01), (40, 0.5)):
            for k in (0, 1, n // 3, n - 1, n):
                exact = math.log(math.comb(n, k)) + k * math.log(p) + (n - k) * math.log1p(-p)
                assert _log_pmf(n, k, p) == pytest.approx(exact, abs=1e-12)
        # near 2**53 a difference of lgammas is off by whole units; check the
        # ratio of neighbours and the value at the mode instead
        n, p = MAX_TESTS, 0.3
        mode = math.floor((n + 1) * p)
        assert _log_pmf(n, mode, p) == pytest.approx(-0.5 * math.log(math.tau * n * p * (1 - p)), abs=1e-12)
        for k in (mode - 10**8, mode + 1, mode + 5 * 10**8):
            ratio = math.log((n - k + 1) * p / (k * (1 - p)))
            assert _log_pmf(n, k, p) - _log_pmf(n, k - 1, p) == pytest.approx(ratio, abs=1e-14)

    def test_pinned_counts(self):
        # identical on every Python version: the stream is random.Random's
        pinned = {
            (0, 10**6, 0.15, 0.3, 0.2, 0.005): (3917, 768429, 45083, 105327, 61802, 15442),
            (12345, 10**12, 0.05, 1.0, 0.2, 0.05): (43181729215, 820454385233, 49999948550, 0,
                                                    69091127727, 17272809275),
            (7, 1000, 0.3, 0.5, 0.5, 0.01): (9, 650, 147, 145, 25, 24),
        }
        for (seed, n, h, psi, beta, cutoff), want in pinned.items():
            cells = simulate(config(n=n, seed=seed, h=h, psi=psi, beta=beta, cutoff=cutoff)).cells()
            assert tuple(cells.values()) == want, (seed, n, cells)
