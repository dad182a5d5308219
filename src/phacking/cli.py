"""Command-line interface.

Subcommands: ``rates``, ``fit``, ``sweep``, ``simulate``, ``reproduce``.
Exit codes: 0 success, 1 reproduction failure, 2 usage error, 3
domain/math error or an output path, standard output included, that
cannot be written.  Each subcommand imports the modules it runs when it
runs.  The ``PHACKING_OUT_DIR`` environment variable sets the default output
directory for file-writing subcommands.

``--pi X`` is the persistence ``rates.interpolated_psi(X)``, the
conservative bound psi = X, so it resolves as ``--psi X`` does.
``fit`` takes exactly one of ``--builtin`` or ``--data`` (exit 2 for
neither or both), and ``fit --data FILE --stratified`` needs a non-empty
``strata`` list in FILE.  ``sweep --h`` applies only to the figures that
take a hacking rate in ``sweeps.FIGURES``.  ``reproduce`` writes every
figure and checks each entry of ``claims.CLAIMS``.  ``simulate`` prints
the rates it cannot estimate, those with no significant study, as JSON
``null``.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import rates
from .errors import DomainError, ModelError

EXIT_OK = 0
EXIT_REPRODUCE_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

def _parse_prior_odds(text: str) -> float:
    """``A:B`` odds in favor of H1, both parts non-negative with a finite,
    positive sum -> phi = B / (A + B)."""
    try:
        a, b = (float(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}")
    if a < 0 or b < 0 or not 0 < a + b < math.inf:
        raise argparse.ArgumentTypeError(f"bad odds {text!r}")
    return b / (a + b)


def _add_design_flags(parser, default_alpha=0.05):
    parser.add_argument("--alpha", type=float, default=default_alpha,
                        help="operative significance cutoff (default %(default)s)")
    g = parser.add_mutually_exclusive_group()
    g.add_argument("--beta", type=float, help="Type-II error rate at the cutoff")
    g.add_argument("--power", type=float, help="power at the cutoff (default 0.8)")
    g = parser.add_mutually_exclusive_group()
    g.add_argument("--phi", type=float, help="proportion of true nulls")
    g.add_argument("--prior-odds", type=_parse_prior_odds, metavar="A:B",
                   help="odds in favor of H1 (default 1:10)")


def _add_hacking_flags(parser):
    parser.add_argument("--h", type=float, default=0.0, help="hacking rate (default 0)")
    g = parser.add_mutually_exclusive_group()
    g.add_argument("--psi", type=float, help="persistence at the cutoff (default 1)")
    g.add_argument("--pi", type=float,
                   help="persistence parameter; uses the conservative bound psi = pi")
    parser.add_argument("--baseline-alpha", type=float, default=0.05,
                        help="baseline cutoff at which all hacked P-values are "
                             "significant (default %(default)s)")


def _design_from(args) -> rates.TestDesign:
    if args.power is not None:
        rates._check_prob("power", args.power)  # before 1 - power turns it into a beta
    beta = args.beta if args.beta is not None else 1.0 - (args.power if args.power is not None else 0.8)
    phi = args.phi if args.phi is not None else (args.prior_odds if args.prior_odds is not None else rates.DEFAULT_PHI)
    return rates.TestDesign(args.alpha, beta, phi)


def _regime_from(args) -> rates.HackingRegime:
    return rates.HackingRegime(args.h, args.baseline_alpha,
                               rates.interpolated_psi(args.pi) if args.pi is not None
                               else 1.0 if args.psi is None else args.psi)


def _figure_id(text: str) -> int:
    from .sweeps import FIGURES

    figure = int(text) if text.strip().isdigit() else None
    if figure not in FIGURES:
        raise argparse.ArgumentTypeError(f"unknown figure id {text}")
    return figure


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("PHACKING_OUT_DIR") or "."
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ModelError(f"cannot write {path}: {exc.strerror or exc}")
    return path


def _write(path: Path, text: str) -> Path:
    try:
        path.write_text(text)
    except OSError as exc:
        raise ModelError(f"cannot write {path}: {exc.strerror or exc}")
    return path


def _emit(record: dict) -> None:
    print(json.dumps(record, indent=2, sort_keys=True))


def cmd_rates(args) -> int:
    design = _design_from(args)
    regime = _regime_from(args)
    psi = rates.resolve_psi(regime, design.alpha)
    fpr = rates.fpr_regime(design, regime.h, psi)
    rr = rates.rr_regime(design, regime.h, psi)
    table = rates.table_regime(design, regime.h, psi)
    _emit({
        "inputs": {**design._asdict(), "h": regime.h, "baseline_alpha": regime.baseline_alpha},
        "resolved_psi": psi,
        "fpr": fpr,
        "rr": rr,
        "table": table._asdict(),
    })
    return EXIT_OK


def _field(path: Path, record, where: str, key: str, kind):
    """``record[key]`` from a ``--data`` file, checked for presence and type."""
    if not isinstance(record, dict):
        raise ModelError(f"{path}: {where} is not a JSON object")
    if key not in record:
        raise ModelError(f"{path}: missing key {key!r} in {where}")
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ModelError(f"{path}: key {key!r} in {where} has type {type(value).__name__}")
    return value


def _build(path: Path, where: str, record, *fields):
    """``record(*fields)``, with a value it rejects reported against the
    ``--data`` file and the place in it, as ``_field`` reports a key."""
    try:
        return record(*fields)
    except DomainError as exc:
        raise DomainError(f"{path}: {where}: {exc}") from None


def _read_replication(path: Path, stratified: bool):
    """The ``--data`` file's counts; a stratified fit needs its strata."""
    from .estimator import ReplicationData, ReplicationStratum

    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ModelError(f"cannot read {path}: {exc.strerror or exc}")
    except ValueError as exc:
        raise ModelError(f"{path} is not valid JSON: {exc}")
    total, replicated = (_field(path, doc, "top level", key, int) for key in ("total", "replicated"))
    strata = []
    if "strata" in doc or stratified:
        for i, s in enumerate(_field(path, doc, "top level", "strata", list)):
            where = f"strata[{i}]"
            bounds = [_field(path, s, where, key, (int, float)) for key in ("p_low", "p_high")]
            counts = [_field(path, s, where, key, int) for key in ("total", "replicated")]
            strata.append(_build(path, where, ReplicationStratum, *bounds, *counts))
    data = _build(path, "top level", ReplicationData, total, replicated, tuple(strata))
    if stratified and not data.strata:
        raise ModelError(f"{path}: key 'strata' in top level is empty")
    return data


def cmd_fit(args) -> int:
    from . import estimator

    if args.model and not args.stratified:
        print("error: --model applies only with --stratified", file=sys.stderr)
        return EXIT_USAGE
    model = args.model or "per_stratum_rate"
    data = (estimator.PSYCH_REP if args.builtin
            else _read_replication(Path(args.data), args.stratified))
    design = _design_from(args)
    record = {"design": design._asdict(), "observed_rate": data.rate}
    if args.stratified:
        est = estimator.fit_h_stratified(data, design, model=model)
        record.update(est._asdict(), model=model)
    else:
        record["point"] = estimator.fit_h(data, design)
    _emit(record)
    return EXIT_OK


def _write_results(results, out: Path, want_svg: bool) -> list[Path]:
    from . import sweeps

    written = []
    for result in results:
        written.append(_write(out / f"{result.figure_id}.csv", sweeps.render_csv(result)))
        if want_svg:
            written.append(_write(out / f"{result.figure_id}.svg", sweeps.render_svg(result)))
    return written


def cmd_sweep(args) -> int:
    from . import sweeps

    results = sweeps.figure_results(args.figure, args.h)
    written = _write_results(results, _out_dir(args), args.svg)
    for path in written:
        print(path)
    return EXIT_OK


def _finite_or_null(value: float) -> float | None:
    """JSON has no NaN or infinity (RFC 8259), so such a value prints as null."""
    return value if math.isfinite(value) else None


def cmd_simulate(args) -> int:
    from . import mc

    design = _design_from(args)
    regime = _regime_from(args)
    config = mc.SimConfig(n_tests=args.n, seed=args.seed, design=design,
                          hacking=regime, cutoff=design.alpha)
    report = mc.crosscheck(config)
    out = report.outcome
    _emit({
        "generator": out.generator,
        "seed": out.seed,
        "n_tests": out.n_tests,
        "cells": out.cells(),
        "column_counts": {
            "sound_true": out.n_sound_true,
            "unsound": out.n_unsound,
            "sound_false": out.n_sound_false,
        },
        "empirical_fpr": _finite_or_null(out.empirical_fpr),
        "empirical_rr": _finite_or_null(out.empirical_rr),
        "se_fpr": _finite_or_null(out.se_fpr),
        "se_rr": _finite_or_null(out.se_rr),
        "empty_denominator": out.empty_denominator,
        "crosscheck": [row._asdict() for row in report.rows],
    })
    return EXIT_OK


def cmd_reproduce(args) -> int:
    from . import claims, sweeps

    out = _out_dir(args)
    written = []
    for figure in sweeps.FIGURES:
        written.extend(_write_results(sweeps.figure_results(figure), out, want_svg=True))
    failures = claims.report(args.strict)
    print(f"wrote {sum(1 for p in written if p.suffix == '.csv')} CSV and "
          f"{sum(1 for p in written if p.suffix == '.svg')} SVG files to {out}")
    return EXIT_OK if failures == 0 else EXIT_REPRODUCE_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phacking",
        description="False positive and replication rates under NHST with P-hacking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="closed-form FPR/RR and the outcome table")
    _add_design_flags(p)
    _add_hacking_flags(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("fit", help="fit the hacking rate to replication counts")
    _add_design_flags(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--builtin", choices=["psych-rep"], help="use a built-in dataset")
    g.add_argument("--data", help="JSON file with total, replicated, strata[]")
    p.add_argument("--stratified", action="store_true", help="also fit per-stratum range")
    p.add_argument("--model", choices=["per_stratum_rate", "threshold_clustering"],
                   help="stratum model for the range fit (needs --stratified; "
                        "default per_stratum_rate)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sweep", help="write figure CSV (and SVG) files")
    # Written out so that building the parser does not import sweeps;
    # tests/test_cli.py checks both against sweeps.FIGURES.
    p.add_argument("--figure", type=_figure_id, required=True, help="figure id: 1, 2, 3, 4, 5")
    p.add_argument("--h", type=float, help="hacking rate for figures 3 and 5")
    p.add_argument("--out", help="output directory")
    p.add_argument("--svg", action="store_true", help="also write SVG files")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="run the Monte Carlo oracle")
    _add_design_flags(p)
    _add_hacking_flags(p)
    p.add_argument("--n", type=int, default=100_000, help="number of simulated studies")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce", help="write all figures and check the headline numbers")
    p.add_argument("--out", help="output directory")
    p.add_argument("--strict", action="store_true",
                   help="promote documented-gap INFO entries to failures")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        # Files and directories raise ModelError, so this is stdout, e.g. a
        # closed pipe.  Point it at the null device so the flush at exit
        # does not fail again.
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_DOMAIN


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
