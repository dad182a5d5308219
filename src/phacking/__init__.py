"""False positive and replication rates under NHST with P-hacking.

Closed-form rate model, hacking-rate estimation from replication counts,
a seeded Monte Carlo oracle, and sweep/report generators for the
significance-cutoff policy analysis.
"""

from .errors import (
    CutoffAboveBaselineError,
    DegenerateConfigError,
    DegenerateDesignError,
    DomainError,
    ModelError,
    NoRootError,
    UnachievableError,
    UnsupportedShapeError,
)
from .rates import (
    DirectPsi,
    HackingRegime,
    InterpolatedPsi,
    LowerBoundPsi,
    OutcomeTable,
    Rates,
    TestDesign,
    fpr_bound,
    fpr_hacked,
    fpr_regime,
    fpr_sound,
    masses,
    power_at_new_cutoff,
    resolve_psi,
    rr_hacked,
    rr_regime,
    rr_sound,
    table_regime,
    table_sound,
)
from .estimator import (
    PSYCH_REP,
    HackingEstimate,
    PsiSolution,
    ReplicationData,
    ReplicationStratum,
    fit_h,
    fit_h_stratified,
    rr_ratio,
    solve_psi_for_rr_ratio,
)
from .mc import CrosscheckReport, SimConfig, SimOutcome, crosscheck, simulate
from .sweeps import (
    SweepResult,
    render_csv,
    render_svg,
    sweep_figure1,
    sweep_figure2,
    sweep_figure3,
    sweep_figure4,
    sweep_figure5,
)

__version__ = "0.1.0"
