"""Exact-arithmetic oracle: the float closed forms and the h root against
the same formulas evaluated in ``Fraction``s of the same float inputs.

The model code keeps its float arithmetic; each test converts the floats
it passed in to ``Fraction``s and computes the exact value of the formula
at those inputs.  Every mass is a sum of non-negative products, so the
closed forms lose no digits to cancellation and stay within a fixed
number of ulps of the exact value.  The h root subtracts, and its bound
grows with the condition number (tp + rate*(fp + tp)) / K.

Inputs lie in [0, 1] with nothing in (0, 1e-70), so no product of three
of them underflows.  The bounds were measured first: over 300,000 random
points (uniform, log-uniform down to 1e-70, close below 1, and exact 0
and 1) the largest errors were 3.44 ulps for ``fpr_regime``, 3.18 for
``rr_regime``, 6.36 for ``rr_ratio`` and c = 1.09 for ``_h_root``; over
30,000 unseeded examples of each test below they were 3.15, 2.90, 4.18
and 0.65.  A first-order rounding count allows about 11, 11, 23 and 3.
"""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from phacking import PAPER_DESIGN, DomainError, TestDesign, fpr_regime, rr_ratio, rr_regime
from phacking.estimator import _h_root

EPS = sys.float_info.epsilon
#: Ulps of the exact value that each closed form may miss by.
RATE_ULPS = 6
RATIO_ULPS = 10
#: c in the h root's bound c*EPS*(tp + rate*(fp + tp))/K.
ROOT_C = 3
TINY = 1e-70


def unit(*, open_lo=False, open_hi=False):
    """Floats in [0, 1], or (0, 1] and [0, 1), with none in (0, TINY)."""
    positive = st.floats(TINY, 1.0, exclude_max=open_hi)
    return positive if open_lo else st.one_of(st.just(0.0), positive)


DESIGNS = st.builds(TestDesign, unit(open_lo=True, open_hi=True), unit(), unit())
HACKING_RATES = unit(open_hi=True)
PERSISTENCES = unit()


def exact_masses(design, h, psi):
    """``rates.masses`` in ``Fraction``s of its float inputs."""
    a, b, p, h, psi = map(Fraction, (*design, h, psi))
    return a * p * (1 - h) + h * psi, (1 - b) * (1 - p) * (1 - h)


def ulps(got: float, exact: Fraction) -> float:
    """|got - exact| in units of the last place of the exact value."""
    if exact == 0:
        return 0.0 if got == 0.0 else math.inf
    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact))))


@settings(max_examples=1000, deadline=None)
@given(DESIGNS, HACKING_RATES, PERSISTENCES)
@example(PAPER_DESIGN, 0.05, 1.0)
@example(PAPER_DESIGN.with_alpha(0.005), 0.15, 0.25)
def test_rates_within_ulps(design, h, psi):
    fp, tp = exact_masses(design, h, psi)
    if fp + tp == 0:
        for rate in fpr_regime, rr_regime:
            with pytest.raises(DomainError, match="no rejections occur"):
                rate(design, h, psi)
        return
    assert ulps(fpr_regime(design, h, psi), fp / (fp + tp)) <= RATE_ULPS
    assert ulps(rr_regime(design, h, psi), tp / (fp + tp)) <= RATE_ULPS


@settings(max_examples=1000, deadline=None)
@given(DESIGNS, DESIGNS, HACKING_RATES, PERSISTENCES)
@example(TestDesign(0.005, 0.5, PAPER_DESIGN.phi), PAPER_DESIGN, 0.05, 0.75)
def test_rr_ratio_within_ulps(new, old, h, psi):
    fp, tp = exact_masses(new, h, psi)
    fp_old, tp_old = exact_masses(old, h, 1)
    if fp + tp == 0 or tp_old == 0:
        with pytest.raises(DomainError):
            rr_ratio(new, old, h, psi)
        return
    exact = tp / (fp + tp) / (tp_old / (fp_old + tp_old))
    assert ulps(rr_ratio(new, old, h, psi), exact) <= RATIO_ULPS


@st.composite
def root_problems(draw):
    """(rate, fp, tp, share): the float masses of a design with no hacking,
    a rate that is either any rate or within 40 ulps of the h = 0 replication
    rate, where K cancels, and a share that is often the default 1."""
    design = draw(DESIGNS)
    fp, tp = exact_masses(design, 0.0, 1.0)
    assume(fp + tp > 0)
    fp, tp = float(fp), float(tp)
    rate = draw(unit())
    if draw(st.booleans()):
        rate = tp / (fp + tp)
        steps = draw(st.integers(-40, 40))
        for _ in range(abs(steps)):
            rate = math.nextafter(rate, math.copysign(2.0, steps))
        rate = min(max(rate, 0.0), 1.0)
    return rate, fp, tp, draw(st.one_of(st.just(1), unit()))


@settings(max_examples=1000, deadline=None)
@given(root_problems())
@example((36 / 97, *map(float, exact_masses(PAPER_DESIGN, 0.0, 1.0)), 1))
def test_h_root_within_condition_bound(problem):
    rate, fp, tp, share = problem
    got = _h_root(rate, fp, tp, share)
    r, fp, tp, share = map(Fraction, (rate, fp, tp, share))
    k = tp - r * (fp + tp)
    scale = EPS * (tp + r * (fp + tp))
    if r * share > 0 and k > 0:
        if got is None:
            assert k <= ROOT_C * scale  # the root is lost only where K rounds to 0
        else:
            exact = k / (k + r * share)
            assert abs(Fraction(got) - exact) <= ROOT_C * scale / k * exact
    elif got is not None:
        assert abs(k) <= ROOT_C * scale  # a root is found only where K rounds above 0
