"""False positive and replication rates under NHST with P-hacking.

Closed-form rate model, hacking-rate estimation from replication counts,
a seeded Monte Carlo oracle, and sweep/report generators for the
significance-cutoff policy analysis.

Each public name is imported from its submodule on first access, so
``import phacking`` loads no submodule.
"""

import importlib

__version__ = "0.1.0"

#: Submodule -> the public names it provides.
_EXPORTS = {
    "rates": (
        "DirectPsi", "DomainError", "HackingRegime", "InterpolatedPsi", "ModelError",
        "NoRootError", "OutcomeTable", "PAPER_DESIGN", "Rates", "TestDesign", "fpr_regime",
        "interpolated_psi", "masses", "power_at_new_cutoff", "resolve_psi", "rr_ratio",
        "rr_regime", "table_regime",
    ),
    "estimator": (
        "PSYCH_REP", "HackingEstimate", "PsiSolution", "ReplicationData", "ReplicationStratum",
        "fit_h", "fit_h_stratified", "solve_psi_for_rr_ratio",
    ),
    "mc": ("CrosscheckReport", "SimConfig", "SimOutcome", "crosscheck", "simulate"),
    "sweeps": (
        "SweepResult", "render_csv", "sweep_figure1", "sweep_figure2", "sweep_figure3",
        "sweep_figure4", "sweep_figure5",
    ),
    "svg": ("render_svg",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:  # the submodule itself, bound here by its import
        return importlib.import_module(f".{name}", __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    # Later lookups find the name here and never call __getattr__ again.
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
