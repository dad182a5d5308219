"""Record contract: each record is an immutable tuple that builds from
positional or keyword arguments and its defaults, runs its checks on
construction, hashes by value and keeps its repr."""

import copy
import pickle

import pytest

from phacking import (
    DomainError,
    HackingEstimate,
    HackingRegime,
    OutcomeTable,
    PsiSolution,
    Rates,
    ReplicationData,
    ReplicationStratum,
    SimConfig,
    SimOutcome,
    SweepResult,
    TestDesign,
)
from phacking.claims import Claim
from phacking.mc import CheckRow, CrosscheckReport

DESIGN = TestDesign(0.05, 0.2, 0.9)
REGIME = HackingRegime(0.1)
STRATUM = ReplicationStratum(0.0, 0.005, 47, 24)
OUTCOME_ARGS = (10, 1, "python-MT19937-binomial", 0, 9, 1, 0, 0, 0, 9, 1, 0, 1.0, 0.0, 0.0, 0.0, False)
ROW = CheckRow("fpr", 0.5, 0.5, 0.0, True)
TABLE_ARGS = (0.25, 0.25, 0.0, 0.0, 0.25, 0.25, 0.5, 0.0, 0.5)

_REGIME_REPR = "HackingRegime(h=0.1, baseline_alpha=0.05, psi=1.0)"
_OUTCOME_REPR = (
    "SimOutcome(n_tests=10, seed=1, generator='python-MT19937-binomial', sound_true_reject=0, "
    "sound_true_notreject=9, unsound_reject=1, unsound_notreject=0, sound_false_reject=0, "
    "sound_false_notreject=0, n_sound_true=9, n_unsound=1, n_sound_false=0, empirical_fpr=1.0, "
    "empirical_rr=0.0, se_fpr=0.0, se_rr=0.0, empty_denominator=False)"
)
_ROW_REPR = "CheckRow(name='fpr', closed_form=0.5, empirical=0.5, z_score=0.0, ok=True)"

# (record type, positional arguments, repr); the reprs are those of the
# earlier frozen-dataclass records.
RECORDS = [
    (TestDesign, (0.05, 0.2, 0.9), "TestDesign(alpha=0.05, beta=0.2, phi=0.9)"),
    (HackingRegime, (0.1, 0.05, 1.0), _REGIME_REPR),
    (OutcomeTable, TABLE_ARGS,
     "OutcomeTable(sound_true_reject=0.25, sound_true_notreject=0.25, unsound_reject=0.0, "
     "unsound_notreject=0.0, sound_false_reject=0.25, sound_false_notreject=0.25, "
     "phi_sound=0.5, mass_unsound=0.0, mass_sound_false=0.5)"),
    (Rates, (0.25, 0.75), "Rates(fpr=0.25, rr=0.75)"),
    (ReplicationStratum, (0.0, 0.005, 47, 24),
     "ReplicationStratum(p_low=0.0, p_high=0.005, total=47, replicated=24)"),
    (ReplicationData, (97, 36, (STRATUM,)),
     "ReplicationData(total=97, replicated=36, strata=(ReplicationStratum(p_low=0.0, "
     "p_high=0.005, total=47, replicated=24),))"),
    (HackingEstimate, (0.1, 0.05, 0.15, ()),
     "HackingEstimate(point=0.1, range_low=0.05, range_high=0.15, residuals=())"),
    (PsiSolution, (0.5, True), "PsiSolution(psi=0.5, achievable=True)"),
    (SimConfig, (10, 1, DESIGN, REGIME, 0.05),
     f"SimConfig(n_tests=10, seed=1, design=TestDesign(alpha=0.05, beta=0.2, phi=0.9), "
     f"hacking={_REGIME_REPR}, cutoff=0.05)"),
    (SimOutcome, OUTCOME_ARGS, _OUTCOME_REPR),
    (CheckRow, ("fpr", 0.5, 0.5, 0.0, True), _ROW_REPR),
    (CrosscheckReport, (SimOutcome(*OUTCOME_ARGS), (ROW,)),
     f"CrosscheckReport(outcome={_OUTCOME_REPR}, rows=({_ROW_REPR},))"),
    (SweepResult, ("f", "line", (("x", (0.0,)),), ("v",), (((0.0,), (1.0,)),), (("r", 0.5),)),
     "SweepResult(figure_id='f', kind='line', axes=(('x', (0.0,)),), columns=('v',), "
     "rows=(((0.0,), (1.0,)),), references=(('r', 0.5),))"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, args, want", RECORDS, ids=IDS)
def test_construction_and_repr(cls, args, want):
    record = cls(*args)
    assert repr(record) == want
    assert cls(**dict(zip(cls._fields, args))) == record
    assert tuple(record) == args  # records unpack and compare like tuples


@pytest.mark.parametrize("cls, args, want", RECORDS, ids=IDS)
def test_immutable(cls, args, want):
    record = cls(*args)
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], args[0])
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, args, want", RECORDS, ids=IDS)
def test_equal_values_hash_equal(cls, args, want):
    a, b = cls(*args), cls(*copy.deepcopy(args))
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a


def test_defaults():
    assert HackingRegime(0.1) == HackingRegime(0.1, 0.05, 1.0)
    assert ReplicationData(97, 36).strata == ()
    assert HackingEstimate(0.1, 0.05, 0.15).residuals == ()
    assert SweepResult("f", "line", (), (), ()).references == ()
    assert Claim("x", float, 0.0, 0.0).info is False


@pytest.mark.parametrize("make, error", [
    (lambda: TestDesign(0.0, 0.2, 0.5), DomainError),
    (lambda: TestDesign(alpha=1.0, beta=0.2, phi=0.5), DomainError),
    (lambda: TestDesign(0.05, 1.2, 0.5), DomainError),
    (lambda: TestDesign(0.05, 0.2, -0.1), DomainError),
    (lambda: HackingRegime(1.0), DomainError),
    (lambda: HackingRegime(0.1, psi=1.5), DomainError),
    (lambda: HackingRegime(0.1, 0.05, -0.1), DomainError),
    (lambda: HackingRegime(0.1, baseline_alpha=0.0), DomainError),
    (lambda: OutcomeTable(-0.25, 0.5, *TABLE_ARGS[2:]), DomainError),
    (lambda: OutcomeTable(0.5, *TABLE_ARGS[1:]), DomainError),
    (lambda: OutcomeTable(*TABLE_ARGS[:6], 0.4, 0.1, 0.5), DomainError),
    (lambda: Rates(fpr=0.3, rr=0.6), DomainError),
    (lambda: ReplicationStratum(0.05, 0.005, 10, 5), DomainError),
    (lambda: ReplicationStratum(0.0, 0.005, 0, 0), DomainError),
    (lambda: ReplicationStratum(0.0, 0.005, total=10, replicated=11), DomainError),
    (lambda: ReplicationData(total=0, replicated=0), DomainError),
    (lambda: ReplicationData(total=5, replicated=6), DomainError),
    (lambda: SimConfig(0, 1, DESIGN, REGIME, 0.05), DomainError),
    (lambda: SimConfig(10, -1, DESIGN, REGIME, 0.05), DomainError),
    (lambda: SimConfig(n_tests=10, seed=1, design=DESIGN, hacking=REGIME, cutoff=0.06),
     DomainError),
])
def test_checks_raise(make, error):
    with pytest.raises(error):
        make()
