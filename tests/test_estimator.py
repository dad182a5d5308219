import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phacking import (
    PSYCH_REP,
    DomainError,
    NoRootError,
    ReplicationData,
    ReplicationStratum,
    TestDesign,
    fit_h,
    fit_h_stratified,
    masses,
    rr_ratio,
    rr_regime,
    solve_psi_for_rr_ratio,
)
from phacking.estimator import _h_root, _stratum_split

PHI = 10.0 / 11.0
OLD = TestDesign(0.05, 0.20, PHI)
NEW = TestDesign(0.005, 0.20, PHI)

#: Every design: alpha in (0, 1), beta and phi in [0, 1].
DESIGNS = st.builds(TestDesign, alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    beta=st.floats(0.0, 1.0), phi=st.floats(0.0, 1.0))


def live_masses(design, h=0.0, psi=1.0):
    """``masses``, or None where the design rejects nothing."""
    try:
        return masses(design, h, psi)
    except DomainError as exc:
        assert "no rejections occur" in str(exc)
        return None


class TestFitH:
    def test_psych_rep_point(self):
        h = fit_h(PSYCH_REP, OLD)
        assert h == pytest.approx(0.0722, abs=5e-4)
        # published point estimate 0.075, within the documented +-0.005
        assert abs(h - 0.075) <= 0.005
        assert rr_regime(OLD, h) == pytest.approx(36 / 97, abs=1e-9)

    def test_near_ideal_replication_gives_tiny_h(self):
        rate = rr_regime(OLD) - 1e-6
        data = ReplicationData(total=10**9, replicated=round(rate * 10**9))
        assert fit_h(data, OLD) < 1e-4

    def test_inverse_of_rr_hacked_example(self):
        assert _h_root(rr_regime(OLD, 0.15), *masses(OLD)) == pytest.approx(0.15, abs=1e-9)

    def test_no_root_conditions(self):
        with pytest.raises(NoRootError):
            fit_h(ReplicationData(total=10, replicated=0), OLD)
        with pytest.raises(NoRootError):
            fit_h(ReplicationData(total=10, replicated=10), OLD)

    @settings(max_examples=500, deadline=None)
    @given(design=DESIGNS, h0=st.floats(0.0, 1.0, exclude_max=True))
    def test_round_trip_property(self, design, h0):
        # the h root shared by every fit inverts rr_regime wherever it moves with h
        assume(live_masses(design) is not None)
        fp, tp = masses(design)
        rate = rr_regime(design, h0)
        root = _h_root(rate, fp, tp)
        if tp == 0.0:
            assert root is None  # rate 0: no h fits
            return
        if root is None:
            assert h0 <= 1e-8  # rate within rounding of its h = 0 value
            return
        assert root == pytest.approx(h0, abs=1e-8)
        assert abs(rr_regime(design, root) - rate) <= 1e-9

    @settings(max_examples=500, deadline=None)
    @given(design=DESIGNS, counts=st.integers(1, 10**6).flatmap(
        lambda total: st.tuples(st.just(total), st.integers(0, total))))
    def test_fit_h_inverts_rr_hacked(self, design, counts):
        data = ReplicationData(*counts)
        if live_masses(design) is None:
            with pytest.raises(DomainError, match="no rejections occur"):
                fit_h(data, design)
            return
        fp, tp = masses(design)
        if not 0.0 < data.rate < tp / (fp + tp):
            with pytest.raises(NoRootError):
                fit_h(data, design)
            return
        try:
            h = fit_h(data, design)
        except NoRootError:  # rate within rounding of the no-hacking rate
            assert data.rate == pytest.approx(tp / (fp + tp), rel=1e-12)
            return
        assert 0.0 < h < 1.0
        assert abs(rr_regime(design, h) - data.rate) <= 1e-9

    def test_counts_validation(self):
        with pytest.raises(DomainError):
            ReplicationData(total=0, replicated=0)
        with pytest.raises(DomainError):
            ReplicationData(total=5, replicated=6)
        with pytest.raises(DomainError):
            ReplicationStratum(0.05, 0.005, 10, 5)
        with pytest.raises(DomainError):
            ReplicationStratum(0.0, 0.005, 0, 0)


class TestFitHStratified:
    def test_psych_rep_range(self):
        est = fit_h_stratified(PSYCH_REP, OLD)
        assert est.point == pytest.approx(0.0722, abs=5e-4)
        # published range 0.05-0.15, accepted within +-0.03 per endpoint
        assert abs(est.range_low - 0.05) <= 0.03
        assert abs(est.range_high - 0.15) <= 0.03
        assert 0.0 <= est.range_low <= est.range_high < 1.0
        assert len(est.residuals) == 2
        assert not any(r["no_root"] for r in est.residuals)

    def test_homogeneous_strata_collapse_to_pooled_point(self):
        data = ReplicationData(
            total=97,
            replicated=36,
            strata=(
                ReplicationStratum(0.0, 0.005, 970, 360),
                ReplicationStratum(0.005, 0.05, 970, 360),
            ),
        )
        est = fit_h_stratified(data, OLD)
        assert est.range_low == pytest.approx(est.point, abs=1e-6)
        assert est.range_high == pytest.approx(est.point, abs=1e-6)

    def test_perfect_replication_stratum_flagged(self):
        data = ReplicationData(
            total=20,
            replicated=11,
            strata=(
                ReplicationStratum(0.0, 0.005, 10, 10),
                ReplicationStratum(0.005, 0.05, 10, 1),
            ),
        )
        est = fit_h_stratified(data, OLD)
        flagged = [r for r in est.residuals if r["no_root"]]
        assert len(flagged) == 1
        assert flagged[0]["p_range"] == (0.0, 0.005)

    def test_threshold_clustering_model(self):
        est = fit_h_stratified(PSYCH_REP, OLD, model="threshold_clustering")
        # lower stratum rate is h-free under this model, so only the
        # upper stratum yields a root (near the low end of the range)
        lower = next(r for r in est.residuals if r["p_range"] == (0.0, 0.005))
        upper = next(r for r in est.residuals if r["p_range"] == (0.005, 0.05))
        assert lower["no_root"]
        assert not upper["no_root"]
        assert upper["root"] == pytest.approx(0.053, abs=2e-3)

    @pytest.mark.parametrize("strata, root", [
        (((0.0, 0.01, 60, 30), (0.01, 0.05, 40, 10)), 0.0273381),
        (((0.0, 0.02, 70, 40), (0.02, 0.05, 40, 8)), 0.0205182),
    ], ids=["split-0.01", "split-0.02"])
    def test_threshold_clustering_split_from_stratum_bounds(self, strata, root):
        data = ReplicationData(
            total=sum(s[2] for s in strata),
            replicated=sum(s[3] for s in strata),
            strata=tuple(ReplicationStratum(*s) for s in strata),
        )
        est = fit_h_stratified(data, OLD, model="threshold_clustering")
        lower, upper = est.residuals
        assert lower["no_root"]
        assert upper["root"] == pytest.approx(root, abs=5e-7)
        assert est.range_low == est.range_high == upper["root"]

    def test_threshold_clustering_stratum_above_cutoff(self):
        # psych-rep at alpha 0.01: the upper stratum reaches past the
        # cutoff and still holds the hacked P-values
        est = fit_h_stratified(PSYCH_REP, OLD.with_alpha(0.01), model="threshold_clustering")
        assert not est.residuals[1]["no_root"]
        data = ReplicationData(
            total=97,
            replicated=36,
            strata=(
                ReplicationStratum(0.0, 0.05, 47, 24),
                ReplicationStratum(0.05, 0.1, 50, 12),
            ),
        )
        est = fit_h_stratified(data, OLD, model="threshold_clustering")
        above = est.residuals[1]
        assert above["no_root"] and above["fitted"] is None
        assert not est.residuals[0]["no_root"]

    @settings(max_examples=300, deadline=None)
    @given(
        design=st.builds(TestDesign, alpha=st.floats(1e-3, 0.5), beta=st.floats(0.01, 0.99),
                         phi=st.floats(0.01, 0.99)),
        p_low=st.one_of(st.just(0.0), st.floats(0.0, 0.6)),
        width=st.floats(1e-4, 0.6),
        counts=st.integers(1, 1000).flatmap(lambda total: st.tuples(st.just(total), st.integers(0, total))),
    )
    def test_threshold_clustering_exact_root(self, design, p_low, width, counts):
        # random splits, strata wholly below, across and above the cutoff;
        # the pooled rate 1e-9 lies below every drawn design's no-hacking rate
        stratum = ReplicationStratum(p_low, p_low + width, *counts)
        data = ReplicationData(10**9, 1, (stratum,))
        rate = stratum.rate
        fp, tp, _ = _stratum_split(design, stratum)
        k = tp - rate * (tp + fp)
        holds = stratum.p_low < design.alpha <= stratum.p_high
        if rate <= 0.0 or k <= 0.0 or not holds:
            with pytest.raises(NoRootError):
                fit_h_stratified(data, design, model="threshold_clustering")
            return
        est = fit_h_stratified(data, design, model="threshold_clustering")
        (rec,) = est.residuals
        assert est.range_low == est.range_high == rec["root"]
        assert 0.0 < rec["root"] < 1.0
        assert abs(rec["fitted"] - rate) <= 1e-12

    @pytest.mark.parametrize("power, near", [(1.0, 1.0 - 1e-12), (0.0, 1e-12)],
                             ids=["power-1", "power-0"])
    def test_split_at_extreme_power_is_the_limit(self, power, near):
        for stratum in (*PSYCH_REP.strata, ReplicationStratum(0.01, 0.03, 10, 5)):
            at = _stratum_split(TestDesign(0.05, 1.0 - power, PHI), stratum)
            close = _stratum_split(TestDesign(0.05, 1.0 - near, PHI), stratum)
            assert at == pytest.approx(close, rel=0.0, abs=1e-9)

    def test_requires_strata(self):
        with pytest.raises(DomainError):
            fit_h_stratified(ReplicationData(total=10, replicated=4), OLD)

    def test_unknown_model(self):
        # named before the pooled fit, which finds no root for 10/10 replicated
        for data in (PSYCH_REP, ReplicationData(10, 10, PSYCH_REP.strata)):
            with pytest.raises(DomainError, match="unknown stratum model 'nope'"):
                fit_h_stratified(data, OLD, model="nope")


def test_identity_regime_over_random_designs():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        design = TestDesign(rng.uniform(1e-3, 0.5), rng.uniform(0.0, 0.9), rng.uniform(0.05, 0.95))
        h = rng.uniform(1e-3, 0.9)
        assert rr_regime(design, h, 1.0) == rr_regime(design, h)
        assert rr_ratio(design, design, h, 1.0) == 1.0
        assert solve_psi_for_rr_ratio(1.0, design, design, h) == (1.0, True)


class TestRRRatio:
    def test_paper_scenarios(self):
        new_50 = TestDesign(0.005, 0.50, PHI)
        assert rr_ratio(new_50, OLD, 0.05, 0.75) == pytest.approx(1.19, abs=5e-3)
        assert rr_ratio(new_50, OLD, 0.15, 1.0) == pytest.approx(0.81, abs=5e-3)

    def test_identical_designs_full_persistence(self):
        assert rr_ratio(OLD, OLD, 0.1, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decreasing_in_psi_and_h(self):
        psis = np.linspace(0.0, 1.0, 11)
        vals = [rr_ratio(NEW, OLD, 0.1, p) for p in psis]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # monotone in h holds at full persistence; at low psi the hacked
        # mass shrinks faster at the new cutoff and the ratio can rise
        hs = np.linspace(0.01, 0.9, 11)
        vals = [rr_ratio(NEW, OLD, h, 1.0) for h in hs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestSolvePsi:
    def test_doubling_thresholds(self):
        sol = solve_psi_for_rr_ratio(2.0, NEW, OLD, 0.05)
        assert sol.achievable
        assert sol.psi == pytest.approx(0.154, abs=1e-3)
        sol15 = solve_psi_for_rr_ratio(2.0, NEW, OLD, 0.15)
        assert sol15.achievable
        # derived root; the source's figure-read value is 0.35
        assert sol15.psi == pytest.approx(0.397, abs=1e-3)

    def test_identity_regime(self):
        sol = solve_psi_for_rr_ratio(1.0, OLD, OLD, 0.3)
        assert sol.achievable
        assert sol.psi == 1.0

    @settings(max_examples=500, deadline=None)
    @given(new=DESIGNS, old=DESIGNS, h=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           psi=st.floats(0.0, 1.0))
    def test_round_trip_with_rr_ratio(self, new, old, h, psi):
        # solve_psi_for_rr_ratio inverts rr_ratio wherever it calls the target achievable
        assume(live_masses(new, h, 0.0) is not None and live_masses(old, h) is not None)
        assume(masses(new, h, 0.0)[1] > 0.0 and rr_regime(old, h) > 0.0)
        target = rr_ratio(new, old, h, psi)
        sol = solve_psi_for_rr_ratio(target, new, old, h)
        if sol.achievable:
            assert 0.0 <= sol.psi <= 1.0
            assert abs(rr_ratio(new, old, h, sol.psi) - target) <= 1e-12 * target
        else:
            # only when rounding puts the target past the ratio at the boundary
            assert rr_ratio(new, old, h, sol.psi) == pytest.approx(target, rel=1e-12)

    def test_unachievable_boundaries(self):
        too_high = rr_ratio(NEW, OLD, 0.05, 0.0) * 2.0
        sol = solve_psi_for_rr_ratio(too_high, NEW, OLD, 0.05)
        assert not sol.achievable and sol.psi == 0.0
        too_low = rr_ratio(NEW, OLD, 0.05, 1.0) / 2.0
        sol = solve_psi_for_rr_ratio(too_low, NEW, OLD, 0.05)
        assert not sol.achievable and sol.psi == 1.0

    def test_requires_positive_h(self):
        with pytest.raises(DomainError):
            solve_psi_for_rr_ratio(2.0, NEW, OLD, 0.0)

    @pytest.mark.parametrize("target", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
    def test_requires_positive_target(self, target):
        with pytest.raises(DomainError, match=r"target_ratio=.* must be positive"):
            solve_psi_for_rr_ratio(target, NEW, OLD, 0.05)
