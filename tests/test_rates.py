import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from phacking import (
    PAPER_DESIGN,
    DomainError,
    HackingRegime,
    Rates,
    TestDesign,
    fpr_regime,
    interpolated_psi,
    masses,
    power_at_new_cutoff,
    resolve_psi,
    rr_regime,
    table_regime,
)
from phacking.rates import normal_shift_delta

PHI = 10.0 / 11.0
OLD = TestDesign(0.05, 0.20, PHI)
NEW = TestDesign(0.005, 0.20, PHI)


def random_designs(n, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        alpha = rng.uniform(1e-4, 0.999)
        beta = rng.uniform(0.0, 0.95)
        phi = rng.uniform(0.01, 0.99)
        yield TestDesign(alpha, beta, phi)


# The whole domain: every design, h in [0, 1), psi, pi and naive_cdf in [0, 1].
UNIT = st.floats(0.0, 1.0)
HACKING_RATES = st.floats(0.0, 1.0, exclude_max=True)
CUTOFFS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
DESIGNS = st.builds(TestDesign, CUTOFFS, UNIT, UNIT)


def rejects(design, h, psi):
    """Whether any result is significant, i.e. the rates are defined."""
    try:
        masses(design, h, psi)
    except DomainError as exc:
        assert "no rejections occur" in str(exc)
        return False
    return True


class TestSoundRates:
    def test_paper_design(self):
        # cutoff 0.05, power 0.80, odds 1:10, bit for bit, as a checked TestDesign
        assert PAPER_DESIGN == OLD and type(PAPER_DESIGN) is TestDesign

    def test_paper_values(self):
        assert fpr_regime(OLD) == pytest.approx(0.3846, abs=5e-4)
        assert fpr_regime(NEW) == pytest.approx(0.0588, abs=5e-4)
        assert rr_regime(OLD) == pytest.approx(0.6154, abs=5e-4)

    def test_rr_at_new_cutoff_complementary(self):
        # frozen from 1 - fpr_regime(NEW), cross-checked by the MC oracle
        assert rr_regime(NEW) == pytest.approx(0.9411764705882353, abs=1e-12)

    def test_no_true_nulls_gives_zero_fpr(self):
        assert fpr_regime(TestDesign(0.05, 0.2, 0.0)) == 0.0

    def test_zero_power_gives_zero_rr(self):
        assert rr_regime(TestDesign(0.05, 1.0, 0.5)) == 0.0

    def test_degenerate_denominator(self):
        with pytest.raises(DomainError, match="no rejections occur"):
            fpr_regime(TestDesign(0.05, 1.0, 0.0))
        with pytest.raises(DomainError, match="no rejections occur"):
            rr_regime(TestDesign(0.05, 1.0, 0.0))
        with pytest.raises(DomainError, match="^no rejections: rates undefined$"):
            table_regime(TestDesign(0.05, 1.0, 0.0)).rates()

    def test_design_validation(self):
        with pytest.raises(DomainError):
            TestDesign(0.0, 0.2, 0.5)
        with pytest.raises(DomainError):
            TestDesign(0.05, 1.2, 0.5)
        with pytest.raises(DomainError):
            TestDesign(0.05, 0.2, -0.1)


class TestHackedRates:
    def test_paper_values(self):
        assert fpr_regime(OLD, 0.05) == pytest.approx(0.5742, abs=5e-4)
        assert fpr_regime(OLD, 0.15) == pytest.approx(0.7532, abs=5e-4)

    def test_h_zero_reduces_exactly(self):
        # h = 0 is the no-hacking rate alpha*phi / (alpha*phi + (1-beta)*(1-phi)), whatever psi
        for design in random_designs(1000, seed=1):
            try:
                expected = fpr_regime(design)
            except DomainError as exc:
                assert "no rejections occur" in str(exc)
                continue
            a, b, p = design
            assert expected == a * p / (a * p + (1.0 - b) * (1.0 - p))
            assert fpr_regime(design, 0.0, 0.7) == expected

    def test_rr_hacked_values(self):
        assert rr_regime(OLD, 0.15) == pytest.approx(1.0 - 0.7532, abs=5e-4)
        # h fitted to 36/97 reproduces the observed rate
        assert rr_regime(OLD, 0.07216494845390177) == pytest.approx(36 / 97, abs=1e-9)

    def test_rr_vanishes_as_h_to_one(self):
        assert rr_regime(OLD, 1.0 - 1e-9) < 1e-8

    def test_monotone_in_h(self):
        for design in random_designs(50, seed=2):
            if (1 - design.beta) * (1 - design.phi) == 0:
                continue
            hs = np.linspace(0.0, 0.99, 25)
            vals = [fpr_regime(design, h) for h in hs]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_complementarity(self):
        for design in random_designs(200, seed=3):
            for h in (0.0, 0.05, 0.3, 0.9):
                assert fpr_regime(design, h) + rr_regime(design, h) == pytest.approx(1.0, abs=1e-12)


class TestResolvePsi:
    def test_interpolated_extremes(self):
        regime = HackingRegime(0.1, 0.05, interpolated_psi(1.0, 0.3))
        assert resolve_psi(regime, 0.005) == 1.0
        regime = HackingRegime(0.1, 0.05, interpolated_psi(0.0, 0.3))
        assert resolve_psi(regime, 0.005) == pytest.approx(0.3)

    def test_lower_bound(self):
        regime = HackingRegime(0.1, 0.05, interpolated_psi(0.25))
        assert resolve_psi(regime, 0.005) == 0.25

    def test_baseline_is_one_regardless_of_mode(self):
        for psi in (0.4, interpolated_psi(0.2, 0.1), interpolated_psi(0.0)):
            assert resolve_psi(HackingRegime(0.1, 0.05, psi), 0.05) == 1.0

    def test_cutoff_above_baseline(self):
        with pytest.raises(DomainError, match="^alpha=0.06 > baseline_alpha=0.05$"):
            resolve_psi(HackingRegime(0.1, 0.05), 0.06)

    @pytest.mark.parametrize("pi, naive_cdf, message", [
        (1.5, 0.0, "pi=1.5 outside [0.0, 1.0]"),
        (-0.1, 0.0, "pi=-0.1 outside [0.0, 1.0]"),
        (0.5, -0.1, "naive_cdf=-0.1 outside [0.0, 1.0]"),
        (0.5, 1.5, "naive_cdf=1.5 outside [0.0, 1.0]"),
    ])
    def test_interpolated_psi_range(self, pi, naive_cdf, message):
        with pytest.raises(DomainError, match=message.replace("[", r"\[")):
            interpolated_psi(pi, naive_cdf)

    @given(HACKING_RATES, CUTOFFS, UNIT, UNIT, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(0.1, 0.05, 0.06, 0.9999999999999999, 0.5)  # pi + (1 - pi) * q rounds below q
    @example(0.1, 0.05, 0.9999999999999999, 0.2627273770768252, 0.5)  # q + (1 - q) * pi rounds below pi
    def test_resolved_at_least_pi(self, h, baseline, pi, q, fraction):
        regime = HackingRegime(h, baseline, interpolated_psi(pi, q))
        assert resolve_psi(regime, baseline) == 1.0
        below = baseline * fraction
        assume(0.0 < below < baseline)
        assert max(pi, q) <= resolve_psi(regime, below) <= 1.0


class TestRegimeRates:
    def test_paper_values(self):
        assert fpr_regime(NEW, 0.05, 1.0) == pytest.approx(0.4402, abs=5e-4)
        assert fpr_regime(NEW, 0.15, 1.0) == pytest.approx(0.7134, abs=5e-4)
        new_50 = TestDesign(0.005, 0.50, PHI)
        assert rr_regime(new_50, 0.05, 0.75) == pytest.approx(0.508, abs=5e-4)
        assert rr_regime(new_50, 0.15, 1.0) == pytest.approx(0.2007, abs=5e-4)

    def test_psi_one_equals_hacked_at_new_alpha(self):
        # psi = 1 is the hacked rate, every hacked P-value significant
        for design in random_designs(100, seed=5):
            a, b, p = design
            for h in (0.0, 0.1, 0.4):
                fp = a * p * (1.0 - h) + h
                hacked = fp / (fp + (1.0 - b) * (1.0 - p) * (1.0 - h))
                assert fpr_regime(design, h, 1.0) == pytest.approx(hacked, abs=1e-15)

    def test_every_rate_is_a_view_of_the_masses(self):
        rng = np.random.default_rng(6)
        for design in random_designs(200, seed=6):
            h, psi = rng.uniform(0.0, 0.95), rng.uniform(0.0, 1.0)
            fp, tp = masses(design, h, psi)
            assert fpr_regime(design, h, psi) == fp / (fp + tp)
            assert rr_regime(design, h, psi) == tp / (fp + tp)
            # the defaults h = 0 and psi = 1 are the kernel's
            fp, tp = masses(design, h)
            assert (fpr_regime(design, h), rr_regime(design, h)) == (fp / (fp + tp), tp / (fp + tp))
            fp, tp = masses(design)
            assert (fpr_regime(design), rr_regime(design)) == (fp / (fp + tp), tp / (fp + tp))

    def test_h_zero_ignores_psi(self):
        assert rr_regime(NEW, 0.0, 0.123) == pytest.approx(rr_regime(NEW), abs=1e-15)
        assert rr_regime(NEW, 0.0, 0.123) == pytest.approx(0.9412, abs=5e-4)

    def test_monotone_in_psi(self):
        psis = np.linspace(0.0, 1.0, 21)
        vals = [fpr_regime(NEW, 0.1, p) for p in psis]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_bound_dominance(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            pi, q, h = rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.01, 0.9)
            psi = resolve_psi(HackingRegime(h, 0.05, interpolated_psi(pi, q)), 0.005)
            assert fpr_regime(NEW, h, psi) >= fpr_regime(NEW, h, pi) - 1e-15

    def test_bound_examples(self):
        assert fpr_regime(NEW, 0.05, 0.0) == pytest.approx(0.0588, abs=5e-4)
        assert fpr_regime(NEW, 0.0, 0.7) == pytest.approx(fpr_regime(NEW), abs=1e-15)


class TestOutcomeTable:
    def test_sound_table_reject_row(self):
        table = table_regime(OLD, 0.0, 1.0)
        assert table.sound_true_reject == pytest.approx(0.05 * PHI, abs=1e-15)
        assert table.sound_false_reject == pytest.approx(0.8 * (1 - PHI), abs=1e-15)
        assert table.unsound_reject == 0.0

    def test_sound_table_edge_cases(self):
        table = table_regime(TestDesign(0.05, 0.2, 1.0), 0.0, 1.0)
        assert table.sound_false_reject == 0.0
        assert table.sound_false_notreject == 0.0
        perfect = table_regime(TestDesign(1e-12, 0.0, 0.4), 0.0, 1.0)
        assert perfect.sound_true_reject == pytest.approx(0.0, abs=1e-12)
        assert perfect.sound_false_reject == pytest.approx(0.6, abs=1e-12)

    def test_regime_table_cells(self):
        table = table_regime(NEW, 0.15, 0.5)
        assert table.unsound_reject == pytest.approx(0.075, abs=1e-15)
        assert table.unsound_notreject == pytest.approx(0.075, abs=1e-15)

    def test_psi_one_matches_baseline_hacking_table(self):
        full = table_regime(OLD, 0.1, 1.0)
        assert full.unsound_notreject == 0.0
        assert full.unsound_reject == pytest.approx(0.1, abs=1e-15)

    def test_h_zero_reduces_to_sound_table(self):
        assert table_regime(NEW, 0.0, 0.3) == table_regime(NEW, 0.0, 1.0)

    def test_cells_sum_and_rate_consistency(self):
        for design in random_designs(200, seed=7):
            h = 0.2
            psi = 0.6
            table = table_regime(design, h, psi)
            assert sum(table.cells().values()) == pytest.approx(1.0, abs=1e-12)
            rates_from_cells = table.rates()
            assert rates_from_cells.fpr == pytest.approx(fpr_regime(design, h, psi), abs=1e-12)
            assert rates_from_cells.rr == pytest.approx(rr_regime(design, h, psi), abs=1e-12)

    def test_rates_complementarity_enforced(self):
        with pytest.raises(DomainError, match=r"fpr \+ rr = 0\.8999999999999999 != 1"):
            Rates(fpr=0.3, rr=0.6)


class TestDomainProperties:
    @given(DESIGNS, HACKING_RATES, UNIT)
    def test_complementarity(self, design, h, psi):
        assume(rejects(design, h, psi))
        assert abs(fpr_regime(design, h, psi) + rr_regime(design, h, psi) - 1.0) <= 1e-12

    @given(DESIGNS, HACKING_RATES, HACKING_RATES, UNIT, UNIT)
    def test_fpr_does_not_decrease_in_h_or_psi(self, design, h1, h2, psi1, psi2):
        # Up to rounding: at psi = 0 the FPR is constant in h, and its float
        # value moves by an ulp either way (the bound-dominance tests use
        # the same 1e-15).
        (h1, h2), (psi1, psi2) = sorted((h1, h2)), sorted((psi1, psi2))
        assume(rejects(design, h1, psi1) and rejects(design, h2, psi1))
        assert fpr_regime(design, h1, psi1) <= fpr_regime(design, h1, psi2) + 1e-15
        assert fpr_regime(design, h1, psi1) <= fpr_regime(design, h2, psi1) + 1e-15

    @given(DESIGNS, HACKING_RATES, UNIT)
    def test_table_sums_to_one_and_rejects_are_the_masses(self, design, h, psi):
        table = table_regime(design, h, psi)
        assert abs(sum(table.cells().values()) - 1.0) <= 1e-12
        assume(rejects(design, h, psi))
        assert (table.sound_true_reject + table.unsound_reject,
                table.sound_false_reject) == masses(design, h, psi)


def _normal_cdf_quad(x):
    # independent oracle: quadrature over the density
    val, _ = quad(lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi), 0.0, x)
    return 0.5 + val


def _normal_quantile_quad(p):
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _normal_cdf_quad(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPowerTransfer:
    def test_identity_cutoff(self):
        assert power_at_new_cutoff(0.8, 0.05, 0.05) == pytest.approx(0.8, abs=1e-12)

    def test_against_quadrature_oracle(self):
        for power, alpha, new_alpha in [(0.8, 0.05, 0.005), (0.5, 0.05, 0.01), (0.9, 0.1, 0.001)]:
            delta = _normal_quantile_quad(power) + _normal_quantile_quad(1 - alpha)
            expected = _normal_cdf_quad(delta - _normal_quantile_quad(1 - new_alpha))
            assert power_at_new_cutoff(power, alpha, new_alpha) == pytest.approx(expected, abs=1e-6)

    @given(power=st.floats(1e-9, 1.0 - 1e-9), alpha=st.floats(1e-9, 0.999),
           fraction=st.floats(1e-6, 1.0))
    def test_against_scipy_norm(self, power, alpha, fraction):
        new_alpha = alpha * fraction
        delta = float(norm.ppf(power) + norm.isf(alpha))
        assert normal_shift_delta(power, alpha) == pytest.approx(delta, abs=1e-12)
        expected = float(norm.cdf(delta - norm.isf(new_alpha)))
        assert power_at_new_cutoff(power, alpha, new_alpha) == pytest.approx(expected, abs=1e-12)

    def test_small_power_keeps_relative_accuracy(self):
        for power, alpha, new_alpha in [(1e-6, 0.05, 1e-6), (0.01, 0.05, 1e-8)]:
            expected = float(norm.cdf(norm.ppf(power) + norm.isf(alpha) - norm.isf(new_alpha)))
            assert power_at_new_cutoff(power, alpha, new_alpha) == pytest.approx(expected, rel=1e-9)

    def test_frozen_value(self):
        assert power_at_new_cutoff(0.8, 0.05, 0.005) == pytest.approx(0.4644, abs=5e-4)

    def test_high_power_stays_high(self):
        # large-delta regime; quadrature oracle gives 0.98458
        assert power_at_new_cutoff(0.999, 0.05, 0.005) == pytest.approx(0.98458, abs=1e-4)
        assert power_at_new_cutoff(0.999, 0.05, 0.005) > 0.98

    def test_monotone_decreasing_in_new_alpha(self):
        cutoffs = [0.05, 0.02, 0.01, 0.005, 0.001]
        vals = [power_at_new_cutoff(0.8, 0.05, c) for c in cutoffs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v <= 0.8 + 1e-12 for v in vals)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            power_at_new_cutoff(1.0, 0.05, 0.005)
        with pytest.raises(DomainError):
            power_at_new_cutoff(0.8, 0.05, 0.0)
        with pytest.raises(DomainError):
            power_at_new_cutoff(0.8, 0.005, 0.05)
        with pytest.raises(DomainError):
            normal_shift_delta(0.0, 0.05)
        with pytest.raises(DomainError):
            normal_shift_delta(0.8, 0.0)
