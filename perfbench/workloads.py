"""The four workloads.

Each workload is a closed loop with one client.  ``plan(i)`` builds the
inputs of operation ``i`` from the workload seed (untimed), ``op`` runs it
against the program (timed), and ``record`` and ``verdict`` compare its
output with the oracle straight away (untimed), so a run keeps one short
verdict per operation and its memory does not grow with its length.  Operations come in rounds of ``round_size``
with a fixed mix of kinds, so every run attempts whole rounds and a known
fault fails the same share of operations whatever the seed or run length.

Kinds listed in ``known_faults`` are operations that fail today because
of a fault in the program; they count as failed without making the run
incorrect.  Any other failure makes the run incorrect.
"""

from __future__ import annotations

import json
import random
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

import oracle as O
from common import PHACKING, ChildResult, own_peak_rss_mb, python_cmd, run_child

PSYCH_REP = (97, 36, ((0.0, 0.005, 47, 24), (0.005, 0.05, 50, 12)))
H_MAX = 1.0 - 1e-12
ROOT_TOL = 1e-9


class Verdict(NamedTuple):
    kind: str
    ok: bool
    detail: str


class Workload:
    name = ""
    round_size = 1
    known_faults: frozenset = frozenset()

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.rng = random.Random(f"{self.name}:{seed}")

    def op_rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def setup(self, tracer) -> None:
        raise NotImplementedError

    def plan(self, i: int):
        raise NotImplementedError

    def op(self, plan, tracer):
        raise NotImplementedError

    def record(self, i: int, plan, result):
        """What the checks need from one operation, as (kind, payload)."""
        raise NotImplementedError

    def problems(self, kind: str, payload) -> list[str]:
        raise NotImplementedError

    def verdict(self, kind: str, payload) -> Verdict:
        try:
            problems = self.problems(kind, payload)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        return Verdict(kind, not problems, "; ".join(problems))

    def run_checks(self) -> list[str]:
        """Run-level problems found after the measured phase."""
        return []

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def _import_phacking(self, tracer):
        with tracer.span("import.phacking"):
            import phacking
        return phacking


# --- shared checks --------------------------------------------------------

def expected_fit(rate, design):
    try:
        return O.fit_h(rate, *design)
    except O.NoRoot:
        return None


def expected_strata(strata, design, model):
    """Oracle roots per stratum (None where no root) for either model."""
    roots = []
    for lo, hi, total, rep in strata:
        try:
            if model == "per_stratum_rate":
                roots.append(O.fit_h(rep / total, *design))
            else:
                roots.append(O.clustered_root(lo, hi, *design, rep / total))
        except O.NoRoot:
            roots.append(None)
    return roots


def stratified_problems(got, total, rep, strata, design, model) -> list[str]:
    """Compare a stratified fit (point, range, residuals as plain values,
    or the exception it raised) with the oracle."""
    point = expected_fit(rep / total, design)
    roots = expected_strata(strata, design, model)
    found = [r for r in roots if r is not None]
    if point is None or not found:
        return [] if got == "NoRootError" else [f"expected NoRootError, got {got!r}"]
    if not isinstance(got, dict):
        return [f"expected a fit, got {got!r}"]
    problems = []
    if abs(got["point"] - point) > ROOT_TOL:
        problems.append(f"point {got['point']} vs oracle {point}")
    if abs(got["range_low"] - min(max(r, 0.0) for r in found)) > ROOT_TOL:
        problems.append(f"range_low {got['range_low']} vs oracle {min(found)}")
    if abs(got["range_high"] - max(min(r, H_MAX) for r in found)) > ROOT_TOL:
        problems.append(f"range_high {got['range_high']} vs oracle {max(found)}")
    for (lo, hi, n, r), res, want in zip(strata, got["residuals"], roots):
        if res["no_root"] != (want is None):
            problems.append(f"stratum [{lo}, {hi}) no_root={res['no_root']}, oracle root {want}")
        elif want is not None:
            if abs(res["root"] - want) > ROOT_TOL:
                problems.append(f"stratum [{lo}, {hi}) root {res['root']} vs oracle {want}")
            if model == "threshold_clustering":
                rate = O.clustered_rate(lo, hi, *design, res["root"])
                if abs(rate - r / n) > ROOT_TOL:
                    problems.append(f"stratum [{lo}, {hi}) root reproduces rate {rate}, observed {r / n}")
    return problems


def clear_of_edges(design, total, rep, strata, margin=1e-6) -> bool:
    """True when every observed rate lies further than ``margin``
    (relative) from the rate at which its root appears or vanishes, so the
    program's bracket tests and the oracle's sign tests cannot disagree by
    rounding."""
    rr0 = O.rr(*design)
    edges = [(rep / total, rr0)]
    for lo, hi, n, r in strata:
        tp, fp, _ = O.stratum_masses(lo, hi, *design)
        edges += [(r / n, rr0), (r / n, tp / (tp + fp))]
    return all(abs(rate - edge) > margin * edge for rate, edge in edges)


def csv_problems(text: str, figure: int, h) -> list[str]:
    """A figure CSV against the oracle: header, row count, axis values and
    every value to 6 significant digits."""
    lines = text.splitlines()
    want = O.figure_rows(figure, h)
    if len(lines) - 1 != len(want):
        return [f"figure {figure}: {len(lines) - 1} rows, grid has {len(want)}"]
    problems = []
    for line, row in zip(lines[1:], want):
        fields = line.split(",")
        if len(fields) != len(row) or not all(O.matches_6g(f, v) for f, v in zip(fields, row)):
            problems.append(f"figure {figure} h={h}: row {line!r} vs oracle {row}")
            if len(problems) > 3:
                break
    return problems


def svg_problems(text: str, figure: int) -> list[str]:
    try:
        doc = ET.fromstring(text.encode())
    except ET.ParseError as exc:
        return [f"figure {figure}: SVG does not parse: {exc}"]
    kind, shape = O.figure_shape(figure)
    if kind == "heatmap":
        cells = sum(1 for el in doc.iter() if el.tag.endswith("rect") and el.get("stroke") == "#ddd")
        if cells != shape[0] * shape[1]:
            return [f"figure {figure}: {cells} heatmap cells, grid has {shape[0] * shape[1]}"]
    return []


# --- cli-session ------------------------------------------------------------

CLI_H = (0.02, 0.05, 0.1, 0.15, 0.2, 0.25)


class CliSession(Workload):
    """Fresh ``phacking`` processes, one after another.  A round is eight
    processes covering all five subcommands plus two calls that hit known
    faults: a stratum with total 0 and a negative simulation seed."""

    name = "cli-session"
    round_size = 8
    known_faults = frozenset({"fit-zero-total", "simulate-negative-seed"})
    _ROUND = ("rates", "fit", "sweep", "fit", "simulate", "fit-zero-total", "reproduce",
              "simulate-negative-seed")

    def setup(self, tracer):
        with tracer.span("setup.inputs"):
            self.inputs = self.work / "inputs"
            self.inputs.mkdir(parents=True, exist_ok=True)
            self.data_files = [self._write_data(k) for k in range(6)]
            self.zero_file = self.inputs / "zero_total.json"
            self.zero_file.write_text(json.dumps({
                "total": 50, "replicated": 20,
                "strata": [{"p_low": 0.0, "p_high": 0.005, "total": 0, "replicated": 0},
                           {"p_low": 0.005, "p_high": 0.05, "total": 50, "replicated": 20}],
            }))
            self.offset = self.rng.randrange(6)
        with tracer.span("cli.process.warmup"):
            warm = run_child(python_cmd(PHACKING, "--help"), self.work / "warmup")
        if warm.returncode != 0:
            raise RuntimeError(f"phacking --help exited {warm.returncode}: {warm.stderr[-500:]}")
        self.children: list[ChildResult] = []

    def _write_data(self, k):
        """A replication data file with strata split at 0.005 below a
        cutoff of 0.05 or 0.01, drawn so each rate sits clear of the edge
        where a root stops existing."""
        rng = random.Random(f"{self.name}:{self.seed}:data:{k}")
        while True:
            design = (rng.choice((0.05, 0.01)), rng.uniform(0.1, 0.5), rng.uniform(0.5, 0.95))
            n1, n2 = rng.randint(30, 120), rng.randint(30, 120)
            h = rng.uniform(0.02, 0.3)
            r1 = rng.randint(0, n1)
            r2 = max(1, round(O.clustered_rate(0.005, design[0], *design, h) * n2))
            strata = ((0.0, 0.005, n1, r1), (0.005, design[0], n2, r2))
            if r2 <= n2 and clear_of_edges(design, n1 + n2, r1 + r2, strata):
                break
        doc = {"total": n1 + n2, "replicated": r1 + r2,
               "strata": [{"p_low": 0.0, "p_high": 0.005, "total": n1, "replicated": r1},
                          {"p_low": 0.005, "p_high": design[0], "total": n2, "replicated": r2}]}
        path = self.inputs / f"data_{k}.json"
        path.write_text(json.dumps(doc))
        return path, design, doc

    def plan(self, i):
        rng = self.op_rng(i)
        rnd, slot = divmod(i, self.round_size)
        kind = self._ROUND[slot]
        out = self.work / "ops" / str(i)
        if kind == "rates":
            args, expect = self._rates_args(rng)
        elif kind == "fit":
            variant = (self.offset + 2 * rnd + (slot == 3)) % 6
            args, expect = self._fit_args(rng, variant)
        elif kind == "sweep":
            figure = (self.offset + rnd) % 5 + 1
            h = rng.choice(CLI_H) if figure in (3, 5) else None
            args = ["sweep", "--figure", str(figure), "--svg", "--out", str(out / "files")]
            args += ["--h", repr(h)] if h is not None else []
            expect = (figure, h)
        elif kind == "simulate":
            args, expect = self._simulate_args(rng)
        elif kind == "fit-zero-total":
            args, expect = ["fit", "--data", str(self.zero_file), "--stratified"], None
        elif kind == "reproduce":
            args, expect = ["reproduce", "--out", str(out / "files")], None
        else:
            args, expect = ["simulate", "--n", "1000", "--seed", "-1"], None
        return kind, args, expect, out

    def _rates_args(self, rng):
        alpha = rng.choice((0.05, 0.01, 0.005))
        power = rng.choice((0.5, 0.6, 0.7, 0.8, 0.9, 0.95))
        odds = rng.choice((1, 4, 10, 20))
        h = rng.choice((0.0, 0.05, 0.15, 0.3))
        persist = round(rng.uniform(0.05, 0.95), 3)
        args = ["rates", "--alpha", repr(alpha)]
        beta = 1.0 - power
        args += ["--power", repr(power)] if rng.random() < 0.5 else ["--beta", repr(beta)]
        phi = odds / (1.0 + odds)
        args += ["--prior-odds", f"1:{odds}"] if rng.random() < 0.5 else ["--phi", repr(phi)]
        args += ["--h", repr(h)]
        args += ["--psi" if rng.random() < 0.5 else "--pi", repr(persist)]
        return args, (alpha, beta, phi, h, O.resolve_psi(alpha, psi=persist))

    def _fit_args(self, rng, variant):
        """Variants: built-in counts or a generated file, each pooled,
        stratified per stratum, and stratified by threshold clustering."""
        from_file, mode = divmod(variant, 3)
        if from_file:
            path, design, doc = self.data_files[rng.randrange(len(self.data_files))]
            source = ["--data", str(path)]
            total, rep = doc["total"], doc["replicated"]
            strata = tuple((s["p_low"], s["p_high"], s["total"], s["replicated"]) for s in doc["strata"])
        else:
            source = ["--builtin", "psych-rep"]
            total, rep, strata = PSYCH_REP
            design = (rng.choice((0.05, 0.01)), rng.uniform(0.1, 0.4), 10.0 / 11.0)
            while not clear_of_edges(design, total, rep, strata):
                design = (rng.choice((0.05, 0.01)), rng.uniform(0.1, 0.4), 10.0 / 11.0)
        args = ["fit", *source, "--alpha", repr(design[0]), "--beta", repr(design[1]),
                "--phi", repr(design[2])]
        model = (None, "per_stratum_rate", "threshold_clustering")[mode]
        if model:
            args += ["--stratified", "--model", model]
        return args, (design, total, rep, strata, model)

    def _simulate_args(self, rng):
        alpha = rng.choice((0.05, 0.005))
        power = rng.choice((0.5, 0.8, 0.9))
        h = rng.choice((0.0, 0.05, 0.15))
        psi = round(rng.uniform(0.1, 0.9), 3)
        seed = rng.randrange(2**32)
        args = ["simulate", "--n", "100000", "--seed", str(seed), "--alpha", repr(alpha),
                "--power", repr(power), "--prior-odds", "1:10", "--h", repr(h), "--psi", repr(psi)]
        return args, (alpha, 1.0 - power, 10.0 / 11.0, h, O.resolve_psi(alpha, psi=psi))

    def op(self, plan, tracer):
        kind, args, _, out = plan
        with tracer.span(f"cli.process.{args[0]}"):
            return run_child(python_cmd(PHACKING, *args), out)

    def record(self, i, plan, result):
        self.children.append(result)
        return plan[0], (plan, result)

    def peak_rss_mb(self):
        return max(c.maxrss_mb for c in self.children)

    def problems(self, kind, payload):
        (_, args, expect, out), res = payload
        if kind in self.known_faults:
            if res.returncode in (2, 3) and "Traceback" not in res.stderr:
                return []
            return [f"{' '.join(args)} exited {res.returncode}: {res.stderr.strip().splitlines()[-1:]}"]
        if res.returncode != 0:
            if kind == "fit" and res.returncode == 3 and "error:" in res.stderr:
                return self._fit_problems(expect, "NoRootError")
            return [f"{' '.join(args)} exited {res.returncode}: {res.stderr[-300:]}"]
        if kind == "rates":
            return self._rates_problems(json.loads(res.stdout), expect)
        if kind == "fit":
            return self._fit_problems(expect, json.loads(res.stdout))
        if kind == "sweep":
            return self._files_problems(out / "files", [expect])
        if kind == "simulate":
            return self._simulate_problems(json.loads(res.stdout), expect)
        figures = [(f, h) for f in (1, 2, 3, 4, 5) for h in ((0.05, 0.15) if f in (3, 5) else (None,))]
        problems = [line for line in res.stdout.splitlines() if line.startswith("FAIL")]
        return problems + self._files_problems(out / "files", figures)

    @staticmethod
    def _rates_problems(doc, expect):
        alpha, beta, phi, h, psi = expect
        problems = []
        if not (O.close(doc["inputs"]["beta"], beta) and O.close(doc["inputs"]["phi"], phi)):
            problems.append(f"inputs echoed as {doc['inputs']}")
        if not O.close(doc["resolved_psi"], psi):
            problems.append(f"resolved_psi {doc['resolved_psi']} vs oracle {psi}")
        for key, want in (("fpr", O.fpr(alpha, beta, phi, h, psi)), ("rr", O.rr(alpha, beta, phi, h, psi))):
            if not O.close(doc[key], want):
                problems.append(f"{key} {doc[key]} vs oracle {want}")
        table = O.table(alpha, beta, phi, h, psi)
        for cell, want in table.items():
            if not O.close(doc["table"][cell], want):
                problems.append(f"{cell} {doc['table'][cell]} vs oracle {want}")
        if abs(sum(doc["table"][c] for c in O.CELLS) - 1.0) > 1e-12:
            problems.append("table does not sum to 1")
        return problems

    @staticmethod
    def _fit_problems(expect, got):
        design, total, rep, strata, model = expect
        if model is None:
            want = expected_fit(rep / total, design)
            if want is None:
                return [] if got == "NoRootError" else [f"expected NoRootError, got {got!r}"]
            if not isinstance(got, dict) or abs(got["point"] - want) > ROOT_TOL:
                return [f"point {got!r} vs oracle {want}"]
            return []
        return stratified_problems(got, total, rep, strata, design, model)

    @staticmethod
    def _files_problems(folder, figures):
        problems = []
        for figure, h in figures:
            stem = f"figure{figure}" if h is None else f"figure{figure}_h{h:g}"
            try:
                csv_text = (folder / f"{stem}.csv").read_text()
                svg_text = (folder / f"{stem}.svg").read_text()
            except OSError as exc:
                problems.append(f"missing output: {exc}")
                continue
            problems += csv_problems(csv_text, figure, h) + svg_problems(svg_text, figure)
        return problems

    @staticmethod
    def _simulate_problems(doc, expect):
        n = doc["n_tests"]
        cells = doc["cells"]
        problems = []
        if sum(cells.values()) != n:
            problems.append(f"cells sum to {sum(cells.values())}, not {n}")
        if not all(row["ok"] for row in doc["crosscheck"]) or not doc["crosscheck"]:
            problems.append(f"crosscheck failed: {doc['crosscheck']}")
        problems += cell_problems(cells, n, O.table(*expect))
        return problems


def cell_problems(cells, n, probs) -> list[str]:
    bound = O.binomial_z_bound(len(O.CELLS))
    return [f"{cell}: count {cells[cell]} of {n}, z = {z:.2f} beyond {bound:.2f}"
            for cell in O.CELLS
            for z in [O.cell_z(cells[cell], n, probs[cell])]
            if abs(z) > bound]


# --- mc-oracle ----------------------------------------------------------------

MC_N = 10_000_000
# (cutoff, h, persistence given via pi); psi is irrelevant at the 0.05
# baseline, so only the lowered cutoff alternates between the two forms.
MC_POINTS = (
    (0.05, 0.0, False), (0.05, 0.05, False), (0.05, 0.15, False), (0.005, 0.0, False),
    (0.005, 0.05, False), (0.005, 0.15, False), (0.005, 0.05, True), (0.005, 0.15, True),
)


class McOracle(Workload):
    """One ``mc.crosscheck`` at n = 1e7 per operation, rotating through
    both cutoffs, three hacking rates and both ways of giving psi."""

    name = "mc-oracle"
    round_size = 2

    def setup(self, tracer):
        self.ph = self._import_phacking(tracer)
        with tracer.span("setup.inputs"):
            self.offset = self.rng.randrange(len(MC_POINTS))
            self.base_seed = self.rng.randrange(2**32)
            self.psi = round(self.rng.uniform(0.1, 0.9), 4)
            self.pi = round(self.rng.uniform(0.1, 0.8), 4)
            self.naive_cdf = round(self.rng.uniform(0.0, 0.5), 4)

    def plan(self, i):
        cutoff, h, via_pi = MC_POINTS[(self.offset + i) % len(MC_POINTS)]
        return cutoff, h, via_pi, (self.base_seed + i) % 2**32

    def _config(self, plan):
        ph = self.ph
        cutoff, h, via_pi, seed = plan
        spec = ph.InterpolatedPsi(self.pi, self.naive_cdf) if via_pi else ph.DirectPsi(self.psi)
        return ph.SimConfig(n_tests=MC_N, seed=seed, design=ph.TestDesign(cutoff, 0.2, O.PAPER_PHI),
                            hacking=ph.HackingRegime(h, 0.05, spec), cutoff=cutoff)

    def op(self, plan, tracer):
        config = self._config(plan)
        with tracer.span("mc.crosscheck"):
            return self.ph.crosscheck(config)

    def record(self, i, plan, report):
        out = report.outcome
        if i == 0:
            self.first_cells = out.cells()
        closed = {row.name: row.closed_form for row in report.rows}
        columns = (out.n_sound_true, out.n_unsound, out.n_sound_false)
        return "crosscheck", (plan, out.n_tests, out.cells(), columns, closed)

    def problems(self, kind, payload):
        (cutoff, h, via_pi, _), n, cells, columns, closed = payload
        psi = O.resolve_psi(cutoff, psi=self.psi, pi=self.pi if via_pi else None, naive_cdf=self.naive_cdf)
        problems = []
        if sum(cells.values()) != n:
            problems.append(f"cells sum to {sum(cells.values())}, not {n}")
        pairs = (("sound_true_reject", "sound_true_notreject"),
                 ("unsound_reject", "unsound_notreject"),
                 ("sound_false_reject", "sound_false_notreject"))
        if tuple(cells[a] + cells[b] for a, b in pairs) != columns:
            problems.append(f"column counts {columns} disagree with cells")
        for name, want in (("fpr", O.fpr(cutoff, 0.2, O.PAPER_PHI, h, psi)),
                           ("rr", O.rr(cutoff, 0.2, O.PAPER_PHI, h, psi))):
            if name not in closed or not O.close(closed[name], want):
                problems.append(f"closed-form {name} {closed.get(name)} vs oracle {want}")
        return problems + cell_problems(cells, n, O.table(cutoff, 0.2, O.PAPER_PHI, h, psi))

    def run_checks(self):
        again = self.ph.simulate(self._config(self.plan(0))).cells()
        if again != self.first_cells:
            return [f"same seed gave different counts: {self.first_cells} then {again}"]
        return []


# --- figures ------------------------------------------------------------------

class Figures(Workload):
    """One figure per operation: sweep, CSV, SVG, cycling through 1-5.
    Figures 3 and 5 take h from a seeded set of four."""

    name = "figures"
    round_size = 5

    def setup(self, tracer):
        self.ph = self._import_phacking(tracer)
        with tracer.span("setup.inputs"):
            grid = [round(0.01 * k, 2) for k in range(1, 31)]
            self.h3 = self.rng.sample(grid, 4)
            self.h5 = self.rng.sample(grid, 4)
        self.first = {}
        self.checked = {}
        self.sweep = {1: self.ph.sweep_figure1, 2: self.ph.sweep_figure2, 3: self.ph.sweep_figure3,
                      4: self.ph.sweep_figure4, 5: self.ph.sweep_figure5}

    def plan(self, i):
        rnd, slot = divmod(i, self.round_size)
        figure = slot + 1
        h = {3: self.h3, 5: self.h5}.get(figure)
        return figure, None if h is None else h[rnd % len(h)]

    def op(self, plan, tracer):
        figure, h = plan
        ph = self.ph
        with tracer.span(f"sweeps.figure{figure}"):
            result = self.sweep[figure]() if h is None else self.sweep[figure](h)
        with tracer.span("sweeps.csv"):
            csv_text = ph.render_csv(result)
        with tracer.span("svg.heatmap" if result.kind == "heatmap" else "svg.line"):
            svg_text = ph.render_svg(result)
        return result, csv_text, svg_text

    def record(self, i, plan, output):
        """Keep the first output of each (figure, h) for the oracle; later
        ones must repeat it exactly."""
        first = self.first.setdefault(plan, output)
        same = first is output or (output[1] == first[1] and output[2] == first[2]
                                   and output[0].rows == first[0].rows)
        return f"figure{plan[0]}", (plan, same)

    def problems(self, kind, payload):
        key, same = payload
        if key not in self.checked:
            self.checked[key] = self._first_problems(key, *self.first[key])
        return self.checked[key] + ([] if same else [f"figure {key} output differs from its first computation"])

    @staticmethod
    def _first_problems(key, result, csv_text, svg_text):
        figure, h = key
        want = O.figure_rows(figure, h)
        problems = []
        got = [(*point, *values) for point, values in result.rows]
        if len(got) != len(want):
            problems.append(f"figure {figure}: {len(got)} cells, grid has {len(want)}")
        bad = [(g, w) for g, w in zip(got, want) if not all(O.close(a, b) for a, b in zip(g, w))]
        if bad:
            problems.append(f"figure {figure} h={h}: {len(bad)} cells disagree, first {bad[0]}")
        if figure == 2 and any(abs(r[2] + r[3] - 1.0) > 1e-12 for r in got):
            problems.append("figure 2: fpr + rr != 1")
        if figure == 5 and any(r[3] != float(r[2] < 1.0) for r in got):
            problems.append("figure 5: below_one disagrees with ratio")
        return problems + csv_problems(csv_text, figure, h) + svg_problems(svg_text, figure)


# --- fits -----------------------------------------------------------------------

#: Threshold-clustering inputs whose strata split at 0.01 and 0.02 rather
#: than 0.005; the program's stratum split ignores the bounds, so these
#: fail the oracle until that is mended.  They do not depend on the seed.
OFF_SPLIT = (
    ((0.05, 0.2, O.PAPER_PHI), 100, 40, ((0.0, 0.01, 60, 30), (0.01, 0.05, 40, 10))),
    ((0.05, 0.2, O.PAPER_PHI), 110, 48, ((0.0, 0.02, 70, 40), (0.02, 0.05, 40, 8))),
)


class Fits(Workload):
    """One inverse solve per operation.  A round of 13 holds four fit_h
    (one without a root), four solve_psi (one unattainable), two
    per-stratum fits, two clustering fits split at 0.005 and one
    clustering fit split elsewhere (a known fault)."""

    name = "fits"
    _ROUND = ("fit_h", "solve_psi", "per_stratum", "fit_h", "clustered", "solve_psi", "fit_h",
              "clustered-off-split", "solve_psi", "per_stratum", "fit_h-no-root", "clustered",
              "solve_psi-unattainable")
    round_size = len(_ROUND)
    known_faults = frozenset({"clustered-off-split"})

    def setup(self, tracer):
        self.ph = self._import_phacking(tracer)

    def _design(self, rng, alphas=(0.05, 0.01, 0.1)):
        odds = rng.uniform(1.0, 20.0)
        return rng.choice(alphas), rng.uniform(0.05, 0.6), odds / (1.0 + odds)

    def _counts_with_root(self, rng, limit):
        """(total, replicated) with 0 < rate < limit, clear of the edge."""
        while True:
            total = rng.randint(40, 300)
            rep = rng.randint(1, total)
            if rep / total < limit * (1 - 1e-6):
                return total, rep

    def plan(self, i):
        rng = self.op_rng(i)
        rnd, slot = divmod(i, self.round_size)
        kind = self._ROUND[slot]
        ph = self.ph
        if kind.startswith("fit_h"):
            design = self._design(rng)
            rr0 = O.rr(*design)
            if kind == "fit_h":
                total, rep = self._counts_with_root(rng, rr0)
            else:
                total = rng.randint(40, 300)
                rep = 0 if rnd % 2 else min(total, int(rr0 * (1 + 1e-6) * total) + 1)
            args = (ph.ReplicationData(total, rep), ph.TestDesign(*design))
            return kind, args, (design, rep / total)
        if kind.startswith("solve_psi"):
            phi = self._design(rng)[2]
            new, old = (0.005, rng.uniform(0.05, 0.6), phi), (0.05, rng.uniform(0.05, 0.6), phi)
            h = rng.uniform(0.02, 0.3)
            if kind == "solve_psi":
                target = O.rr_ratio(new, old, h, rng.uniform(0.05, 0.95))
            elif rnd % 2:
                target = O.rr_ratio(new, old, h, 0.0) * rng.uniform(1.05, 1.5)
            else:
                target = O.rr_ratio(new, old, h, 1.0) * rng.uniform(0.5, 0.95)
            args = (target, ph.TestDesign(*new), ph.TestDesign(*old), h)
            return kind, args, (target, new, old, h)
        if kind == "clustered-off-split":
            design, total, rep, strata = OFF_SPLIT[rnd % len(OFF_SPLIT)]
            model = "threshold_clustering"
        elif kind == "clustered":
            design, total, rep, strata = self._clustered_input(rng)
            model = "threshold_clustering"
        else:
            design, total, rep, strata = self._per_stratum_input(rng)
            model = "per_stratum_rate"
        data = ph.ReplicationData(total, rep, tuple(ph.ReplicationStratum(*s) for s in strata))
        return kind, (data, ph.TestDesign(*design), model), (design, total, rep, strata, model)

    def _per_stratum_input(self, rng):
        """Strata split at a seeded bound (the per-stratum model ignores
        bounds); the pooled rate and the first stratum admit a root, the
        second may not."""
        while True:
            design = self._design(rng)
            rr0 = O.rr(*design)
            split = round(rng.uniform(0.001, design[0] * 0.9), 4)
            n1, r1 = self._counts_with_root(rng, rr0)
            n2 = rng.randint(40, 300)
            r2 = rng.randint(0, n2)
            strata = ((0.0, split, n1, r1), (split, design[0], n2, r2))
            if (r1 + r2) / (n1 + n2) < rr0 and clear_of_edges(design, n1 + n2, r1 + r2, strata):
                return design, n1 + n2, r1 + r2, strata

    def _clustered_input(self, rng):
        """Strata [0, 0.005) and [0.005, alpha); the upper stratum's rate
        comes from a seeded hacking rate, so it admits a root."""
        while True:
            design = self._design(rng, alphas=(0.05, 0.01))
            n1, n2 = rng.randint(30, 200), rng.randint(30, 200)
            r1 = rng.randint(0, n1)
            r2 = round(O.clustered_rate(0.005, design[0], *design, rng.uniform(0.02, 0.5)) * n2)
            tp, fp, _ = O.stratum_masses(0.005, design[0], *design)
            strata = ((0.0, 0.005, n1, r1), (0.005, design[0], n2, r2))
            if (0 < r2 / n2 < tp / (tp + fp) and (r1 + r2) / (n1 + n2) < O.rr(*design)
                    and clear_of_edges(design, n1 + n2, r1 + r2, strata)):
                return design, n1 + n2, r1 + r2, strata

    _SPANS = {"fit_h": "estimator.fit_h", "solve_psi": "estimator.solve_psi",
              "per_stratum": "estimator.fit_stratified", "clustered": "estimator.fit_clustered"}

    def op(self, plan, tracer):
        kind, args, _ = plan
        ph = self.ph
        base = kind.split("-", 1)[0]
        try:
            with tracer.span(self._SPANS[base]):
                if base == "fit_h":
                    return ph.fit_h(*args)
                if base == "solve_psi":
                    return ph.solve_psi_for_rr_ratio(*args)
                est = ph.fit_h_stratified(*args[:2], model=args[2])
                return {"point": est.point, "range_low": est.range_low,
                        "range_high": est.range_high, "residuals": est.residuals}
        except ph.NoRootError:
            return "NoRootError"
        except Exception as exc:  # a crash is an outcome to report, not to stop on
            return exc

    def record(self, i, plan, result):
        return plan[0], (plan[2], result)

    def problems(self, kind, payload):
        expect, got = payload
        if isinstance(got, Exception):
            return [f"raised {type(got).__name__}: {got}"]
        if kind.startswith("fit_h"):
            design, rate = expect
            want = expected_fit(rate, design)
            if want is None:
                return [] if got == "NoRootError" else [f"expected NoRootError, got {got!r}"]
            return [] if got != "NoRootError" and abs(got - want) <= ROOT_TOL else [f"root {got!r} vs oracle {want}"]
        if kind.startswith("solve_psi"):
            target, new, old, h = expect
            psi, achievable = O.solve_psi(target, new, old, h)
            if got == "NoRootError" or got.achievable != achievable or abs(got.psi - psi) > ROOT_TOL:
                return [f"solution {got!r} vs oracle psi={psi} achievable={achievable}"]
            return []
        design, total, rep, strata, model = expect
        return stratified_problems(got, total, rep, strata, design, model)


WORKLOADS = {w.name: w for w in (CliSession, McOracle, Figures, Fits)}
