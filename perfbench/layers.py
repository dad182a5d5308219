"""Per-layer probe for the traced run.

Every layer of the program (``import``, ``cli``, ``rates``, ``estimator``,
``mc``, ``sweeps``, ``svg``) is timed from outside, by spans around calls
into its public functions.  The inputs are fixed, so the numbers compare
across workloads and commits.  Cheap calls run in batches under one span
whose ``n`` records the batch size.
"""

from __future__ import annotations

import contextlib
import io
import re
import statistics
from pathlib import Path

import oracle as O
from common import PHACKING, PRINT_VM_HWM, parse_vm_hwm_kb, python_cmd, run_child

REPEATS = 3
BATCHES = 5
BATCH = 1000
MC_N = 10_000_000

#: (metric name, unit, better) of every per-layer metric, in report order.
METRICS = [
    ("import.bare_python_ms", "ms", "lower"),
    ("import.numpy_ms", "ms", "lower"),
    ("import.phacking_ms", "ms", "lower"),
    ("import.scipy_stats_ms", "ms", "lower"),
    ("import.phacking_rss_mb", "MB", "lower"),
    *[(f"cli.process_ms.{c}", "ms", "lower") for c in ("rates", "fit", "sweep", "simulate", "reproduce")],
    *[(f"cli.main_ms.{c}", "ms", "lower") for c in ("rates", "fit", "sweep", "simulate", "reproduce")],
    ("rates.design_us", "us", "lower"),
    ("rates.fpr_regime_us", "us", "lower"),
    ("rates.rr_regime_us", "us", "lower"),
    ("rates.table_regime_us", "us", "lower"),
    ("rates.resolve_psi_us", "us", "lower"),
    ("estimator.fit_h_us", "us", "lower"),
    ("estimator.fit_stratified_us", "us", "lower"),
    ("estimator.fit_clustered_us", "us", "lower"),
    ("estimator.solve_psi_us", "us", "lower"),
    ("estimator.attempts", "count", "higher"),
    ("estimator.roots_found", "count", "higher"),
    ("mc.crosscheck_ms", "ms", "lower"),
    ("mc.simulate_ms", "ms", "lower"),
    ("mc.draws_ref_ms", "ms", "lower"),
    ("mc.classify_ms", "ms", "lower"),
    ("mc.studies_per_s", "1/s", "higher"),
    ("mc.rss_bytes_per_study", "B", "lower"),
    *[(f"sweeps.figure{k}_ms", "ms", "lower") for k in range(1, 6)],
    ("sweeps.csv_ms", "ms", "lower"),
    ("sweeps.cells", "count", "higher"),
    ("sweeps.csv_bytes", "B", "lower"),
    ("svg.line_ms", "ms", "lower"),
    ("svg.heatmap_ms", "ms", "lower"),
    ("svg.bytes", "B", "lower"),
]
UNITS = {name: unit for name, unit, _ in METRICS}


def _cli_argv(out: Path) -> dict[str, list[str]]:
    return {
        "rates": ["rates", "--alpha", "0.005", "--power", "0.8", "--prior-odds", "1:10", "--h", "0.15",
                  "--psi", "1"],
        "fit": ["fit", "--builtin", "psych-rep", "--stratified"],
        "sweep": ["sweep", "--figure", "5", "--h", "0.15", "--svg", "--out", str(out / "sweep")],
        "simulate": ["simulate", "--n", "100000", "--seed", "1", "--h", "0.05"],
        "reproduce": ["reproduce", "--out", str(out / "reproduce")],
    }


class Probe:
    def __init__(self, tracer, work: Path):
        self.tracer = tracer
        self.work = work
        self.metrics: dict[str, float] = {}

    def _median_ms(self, spans) -> float:
        return statistics.median(s.ms / s.n for s in spans)

    def _child(self, name, argv, tag):
        with self.tracer.span(name) as span:
            result = run_child(argv, self.work / tag)
        if result.returncode != 0:
            raise RuntimeError(f"{' '.join(argv[:4])} exited {result.returncode}: {result.stderr[-300:]}")
        return span, result

    def run(self) -> dict[str, float]:
        with self.tracer.span("probe"):
            with self.tracer.span("import.phacking"):  # in-process; free if set-up imported it
                import phacking  # noqa: F401
            self.imports()
            self.cli()
            self.rates()
            self.estimator()
            self.mc()
            self.sweeps()
        return {name: self.metrics[name] for name, _, _ in METRICS}

    # --- layers ------------------------------------------------------------

    def imports(self):
        m = self.metrics
        for metric, code in (("import.bare_python_ms", "pass"), ("import.numpy_ms", "import numpy")):
            spans = [self._child(f"import.{metric[7:-3]}", python_cmd(code), f"import-{k}")[0]
                     for k in range(REPEATS)]
            m[metric] = self._median_ms(spans)
        runs = [self._child("import.phacking", python_cmd("import phacking\n" + PRINT_VM_HWM), f"import-{k}")
                for k in range(REPEATS)]
        m["import.phacking_ms"] = self._median_ms([span for span, _ in runs])
        m["import.phacking_rss_mb"] = statistics.median(parse_vm_hwm_kb(r.stdout)[0] for _, r in runs) / 1024
        _, timed = self._child("import.importtime", python_cmd("import phacking", flags=("-X", "importtime")),
                               "importtime")
        m["import.scipy_stats_ms"] = scipy_stats_import_ms(timed.stderr)

    def cli(self):
        out = self.work / "cli"
        for command, args in _cli_argv(out).items():
            span, _ = self._child(f"cli.process.{command}", python_cmd(PHACKING, *args), f"cli-{command}")
            self.metrics[f"cli.process_ms.{command}"] = span.ms
        from phacking import cli

        for command, args in _cli_argv(out).items():
            spans = []
            for _ in range(REPEATS):
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    with self.tracer.span(f"cli.main.{command}") as span:
                        code = cli.main(args)
                if code != 0:
                    raise RuntimeError(f"cli.main({args}) returned {code}: {sink.getvalue()[-300:]}")
                spans.append(span)
            self.metrics[f"cli.main_ms.{command}"] = self._median_ms(spans)

    def _batches(self, name, fn, *args):
        spans = []
        for _ in range(BATCHES):
            with self.tracer.span(name, n=BATCH) as span:
                for _ in range(BATCH):
                    fn(*args)
            spans.append(span)
        return self._median_ms(spans) * 1000.0

    def rates(self):
        from phacking import rates

        design = rates.TestDesign(0.005, 0.2, O.PAPER_PHI)
        regime = rates.HackingRegime(0.15, 0.05, rates.InterpolatedPsi(0.25, 0.1))
        m = self.metrics
        m["rates.design_us"] = self._batches("rates.design", rates.TestDesign, 0.005, 0.2, O.PAPER_PHI)
        m["rates.fpr_regime_us"] = self._batches("rates.fpr_regime", rates.fpr_regime, design, 0.15, 0.5)
        m["rates.rr_regime_us"] = self._batches("rates.rr_regime", rates.rr_regime, design, 0.15, 0.5)
        m["rates.table_regime_us"] = self._batches("rates.table_regime", rates.table_regime, design, 0.15, 0.5)
        m["rates.resolve_psi_us"] = self._batches("rates.resolve_psi", rates.resolve_psi, regime, 0.005)

    def estimator(self):
        """Fixed solves, with and without roots, under each method."""
        import phacking as ph

        old = ph.TestDesign(0.05, 0.2, O.PAPER_PHI)
        new = ph.TestDesign(0.005, 0.2, O.PAPER_PHI)
        pooled = [ph.ReplicationData(97, r) for r in (0, 20, 36, 50, 70)]
        off_split = ph.ReplicationData(100, 40, (ph.ReplicationStratum(0.0, 0.01, 60, 30),
                                                 ph.ReplicationStratum(0.01, 0.05, 40, 10)))
        cases = {
            "estimator.fit_h": [(ph.fit_h, (d, old), {}) for d in pooled],
            "estimator.fit_stratified": [(ph.fit_h_stratified, (d, old), {}) for d in (ph.PSYCH_REP, off_split)],
            "estimator.fit_clustered": [(ph.fit_h_stratified, (d, old), {"model": "threshold_clustering"})
                                        for d in (ph.PSYCH_REP, off_split)],
            "estimator.solve_psi": [(ph.solve_psi_for_rr_ratio, (t, new, old, h), {})
                                    for t in (1.5, 2.0, 4.0) for h in (0.05, 0.15)],
        }
        attempts = found = 0
        for name, calls in cases.items():
            spans = []
            for fn, args, kwargs in calls * REPEATS:
                with self.tracer.span(name) as span:
                    try:
                        got = fn(*args, **kwargs)
                    except ph.NoRootError:
                        got = None
                spans.append(span)
                attempts += 1
                found += got is not None and getattr(got, "achievable", True)
            self.metrics[f"{name}_us"] = self._median_ms(spans) * 1000.0
        self.metrics["estimator.attempts"] = attempts
        self.metrics["estimator.roots_found"] = found

    def mc(self):
        import numpy as np
        import phacking as ph

        design = ph.TestDesign(0.05, 0.2, O.PAPER_PHI)
        config = ph.SimConfig(n_tests=MC_N, seed=7, design=design, hacking=ph.HackingRegime(0.05), cutoff=0.05)
        m = self.metrics
        with self.tracer.span("mc.crosscheck") as span:
            ph.crosscheck(config)
        m["mc.crosscheck_ms"] = span.ms
        with self.tracer.span("mc.simulate") as span:
            ph.simulate(config)
        m["mc.simulate_ms"] = span.ms
        with self.tracer.span("mc.draws_ref") as span:
            rng = np.random.default_rng(7)
            draws = [rng.random(MC_N), rng.random(MC_N), rng.random(MC_N), rng.standard_normal(MC_N),
                     rng.random(MC_N)]
        del draws
        m["mc.draws_ref_ms"] = span.ms
        m["mc.classify_ms"] = m["mc.simulate_ms"] - m["mc.draws_ref_ms"]
        m["mc.studies_per_s"] = MC_N / (m["mc.simulate_ms"] / 1000.0)
        code = ("import phacking as ph\n" + PRINT_VM_HWM
                + f"ph.simulate(ph.SimConfig({MC_N}, 7, ph.TestDesign(0.05, 0.2, 10 / 11), "
                "ph.HackingRegime(0.05), 0.05))\n" + PRINT_VM_HWM)
        _, result = self._child("mc.rss", python_cmd(code), "mc-rss")
        before, after = parse_vm_hwm_kb(result.stdout)
        m["mc.rss_bytes_per_study"] = (after - before) * 1024 / MC_N

    def sweeps(self):
        import phacking as ph

        makers = [(1, ph.sweep_figure1, ()), (2, ph.sweep_figure2, ()), (3, ph.sweep_figure3, (0.05,)),
                  (4, ph.sweep_figure4, ()), (5, ph.sweep_figure5, (0.15,))]
        sweep_ms = {k: [] for k, _, _ in makers}
        csv_ms, line_ms, heat_ms = [], [], []
        for _ in range(REPEATS):
            results = []
            for k, fn, args in makers:
                with self.tracer.span(f"sweeps.figure{k}") as span:
                    results.append(fn(*args))
                sweep_ms[k].append(span.ms)
            with self.tracer.span("sweeps.csv", n=len(results)) as span:
                csvs = [ph.render_csv(r) for r in results]
            csv_ms.append(span.ms)
            with self.tracer.span("svg.line") as span:
                lines = [ph.render_svg(r) for r in results if r.kind == "line"]
            line_ms.append(span.ms)
            with self.tracer.span("svg.heatmap") as span:
                heats = [ph.render_svg(r) for r in results if r.kind == "heatmap"]
            heat_ms.append(span.ms)
        m = self.metrics
        for k, values in sweep_ms.items():
            m[f"sweeps.figure{k}_ms"] = statistics.median(values)
        m["sweeps.csv_ms"] = statistics.median(csv_ms)
        m["sweeps.cells"] = sum(len(r.rows) for r in results)
        m["sweeps.csv_bytes"] = sum(len(c.encode()) for c in csvs)
        m["svg.line_ms"] = statistics.median(line_ms)
        m["svg.heatmap_ms"] = statistics.median(heat_ms)
        m["svg.bytes"] = sum(len(s.encode()) for s in lines + heats)


def scipy_stats_import_ms(importtime_log: str) -> float:
    """Cumulative import time of ``scipy.stats`` from ``-X importtime``
    output; 0 when the program no longer imports it."""
    for line in importtime_log.splitlines():
        match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if match and match.group(2) == "scipy.stats":
            return int(match.group(1)) / 1000.0
    return 0.0
