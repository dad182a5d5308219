import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phacking.cli import main
from phacking.mc import GENERATOR_NAME
from phacking.sweeps import FIGURES

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestRates:
    def test_paper_value(self, capsys):
        code, out, _ = run(capsys, "rates", "--alpha", "0.005", "--power", "0.8",
                           "--prior-odds", "1:10", "--h", "0.15", "--psi", "1")
        assert code == 0
        record = json.loads(out)
        assert record["fpr"] == pytest.approx(0.7134, abs=5e-4)
        assert record["resolved_psi"] == 1.0
        assert sum(record["table"][k] for k in (
            "sound_true_reject", "sound_true_notreject", "unsound_reject",
            "unsound_notreject", "sound_false_reject", "sound_false_notreject",
        )) == pytest.approx(1.0, abs=1e-12)

    def test_no_hacking(self, capsys):
        code, out, _ = run(capsys, "rates", "--alpha", "0.05", "--power", "0.8",
                           "--prior-odds", "1:10", "--h", "0")
        assert code == 0
        assert json.loads(out)["fpr"] == pytest.approx(0.3846, abs=5e-4)

    def test_phi_zero(self, capsys):
        code, out, _ = run(capsys, "rates", "--alpha", "0.05", "--power", "0.8", "--phi", "0")
        assert code == 0
        assert json.loads(out)["fpr"] == 0.0

    def test_degenerate_design_exit_3(self, capsys):
        code, _, err = run(capsys, "rates", "--phi", "0", "--beta", "1")
        assert code == 3
        assert "error" in err

    def test_conflicting_flags_exit_2(self, capsys):
        code, _, _ = run(capsys, "rates", "--beta", "0.2", "--power", "0.8")
        assert code == 2
        code, _, _ = run(capsys, "rates", "--psi", "1", "--pi", "0.5")
        assert code == 2
        code, _, _ = run(capsys, "rates", "--phi", "0.5", "--prior-odds", "1:4")
        assert code == 2

    def test_pi_is_its_lower_bound(self, capsys):
        by_pi = run(capsys, "rates", "--alpha", "0.005", "--h", "0.1", "--pi", "0.3")
        assert by_pi == run(capsys, "rates", "--alpha", "0.005", "--h", "0.1", "--psi", "0.3")
        assert json.loads(by_pi[1])["resolved_psi"] == 0.3

    @pytest.mark.parametrize("odds", ["1:inf", "nan:1", "inf:1", "1e308:1e308"])
    def test_non_finite_prior_odds_exit_2(self, capsys, odds):
        code, out, err = run(capsys, "rates", "--prior-odds", odds, "--h", "0.1")
        assert (code, out) == (2, "")
        assert f"bad odds '{odds}'" in err

    @pytest.mark.parametrize("flag", ["--pi", "--psi"])
    def test_persistence_out_of_range_exit_3(self, capsys, flag):
        code, out, err = run(capsys, "rates", "--alpha", "0.005", flag, "1.5")
        assert (code, out, err) == (3, "", f"error: {flag[2:]}=1.5 outside [0.0, 1.0]\n")

    @pytest.mark.parametrize("argv, alpha, baseline", [
        (["rates", "--alpha", "0.05", "--h", "0.1", "--baseline-alpha", "0.01"], 0.05, 0.01),
        (["simulate", "--alpha", "0.06"], 0.06, 0.05),
        (["simulate", "--baseline-alpha", "0.01"], 0.05, 0.01),
    ])
    def test_cutoff_above_baseline_names_alpha(self, capsys, argv, alpha, baseline):
        assert run(capsys, *argv) == (3, "", f"error: alpha={alpha} > baseline_alpha={baseline}\n")

    @pytest.mark.parametrize("command", ["rates", "simulate"])
    @pytest.mark.parametrize("power", ["nan", "inf", "2", "-1"])
    def test_power_out_of_range_names_power(self, capsys, command, power):
        code, out, err = run(capsys, command, "--power", power)
        assert (code, out, err) == (3, "", f"error: power={float(power)!r} outside [0.0, 1.0]\n")

    def test_json_round_trip(self, capsys):
        args = ["rates", "--alpha", "0.01", "--power", "0.7", "--phi", "0.8", "--h", "0.1"]
        _, first, _ = run(capsys, *args)
        record = json.loads(first)
        again = ["rates",
                 "--alpha", repr(record["inputs"]["alpha"]),
                 "--beta", repr(record["inputs"]["beta"]),
                 "--phi", repr(record["inputs"]["phi"]),
                 "--h", repr(record["inputs"]["h"])]
        _, second, _ = run(capsys, *again)
        assert first == second


class TestFit:
    def test_builtin_point(self, capsys):
        code, out, _ = run(capsys, "fit", "--builtin", "psych-rep")
        assert code == 0
        assert json.loads(out)["point"] == pytest.approx(0.072, abs=1e-3)

    def test_builtin_stratified(self, capsys):
        code, out, _ = run(capsys, "fit", "--builtin", "psych-rep", "--stratified")
        assert code == 0
        record = json.loads(out)
        assert abs(record["range_low"] - 0.05) <= 0.03
        assert abs(record["range_high"] - 0.15) <= 0.03

    def test_perfect_replication_exit_3(self, capsys, tmp_path):
        doc = {"total": 10, "replicated": 10, "strata": []}
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "fit", "--data", str(path))
        assert code == 3
        assert "bracket" in err

    def test_data_file(self, capsys, tmp_path):
        doc = {
            "total": 97, "replicated": 36,
            "strata": [
                {"p_low": 0.0, "p_high": 0.005, "total": 47, "replicated": 24},
                {"p_low": 0.005, "p_high": 0.05, "total": 50, "replicated": 12},
            ],
        }
        path = tmp_path / "psych.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "fit", "--data", str(path), "--stratified")
        assert code == 0
        assert json.loads(out)["point"] == pytest.approx(0.0722, abs=5e-4)

    @pytest.mark.parametrize("source", [[], ["--builtin", "psych-rep", "--data", "x.json"]],
                             ids=["neither", "both"])
    def test_missing_input_exit_2(self, capsys, source):
        code, out, err = run(capsys, "fit", *source)
        assert (code, out) == (2, "")
        assert "--builtin" in err and "--data" in err

    @pytest.mark.parametrize("name, detail", [
        ("replication_no_strata.json", "missing key 'strata' in top level"),
        ("replication_empty_strata.json", "key 'strata' in top level is empty"),
    ], ids=["no-strata", "empty-strata"])
    def test_stratified_data_needs_strata(self, capsys, name, detail):
        path = GOLDEN / name
        code, out, err = run(capsys, "fit", "--data", str(path), "--stratified")
        assert (code, out, err) == (3, "", f"error: {path}: {detail}\n")
        # the pooled fit reads the same file
        assert run(capsys, "fit", "--data", str(path))[0] == 0

    def test_zero_total_stratum_exit_3(self, capsys, tmp_path):
        doc = {
            "total": 50, "replicated": 20,
            "strata": [
                {"p_low": 0.0, "p_high": 0.005, "total": 0, "replicated": 0},
                {"p_low": 0.005, "p_high": 0.05, "total": 50, "replicated": 20},
            ],
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "fit", "--data", str(path), "--stratified")
        assert code == 3
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("content, detail", [
        (None, "cannot read"),
        ('{"total": 97, "replicated": 36', "is not valid JSON"),
        ("[" * 100_000, "is not valid JSON"),
        ('{"total": 97}', "missing key 'replicated' in top level"),
        ('{"total": "97", "replicated": 36}', "key 'total' in top level has type str"),
        ('[97, 36]', "top level is not a JSON object"),
        ('{"total": 97, "replicated": 1.5}', "key 'replicated' in top level has type float"),
        ('{"total": 97, "replicated": 36, "strata": [{"p_low": 0, "p_high": 0.05, "total": true, '
         '"replicated": 0}]}', "key 'total' in strata[0] has type bool"),
        ('{"total": 97, "replicated": 36, "strata": [{"p_low": 0, "p_high": 0.05, "total": 0, '
         '"replicated": 0}]}', ": strata[0]: bad counts 0/0"),
        ('{"total": 97, "replicated": 36, "strata": [{"p_low": 0, "p_high": 0.05, "total": 1, '
         '"replicated": 0}, {"p_low": 0.005, "p_high": 0.005, "total": 1, "replicated": 0}]}',
         ": strata[1]: bad P-value range (0.005, 0.005)"),
        ('{"total": 5, "replicated": 6}', ": top level: bad counts 6/5"),
    ], ids=["missing-file", "invalid-json", "deep-json", "missing-key", "wrong-type", "not-an-object",
            "float-count", "bool-count", "zero-total", "empty-p-range", "replicated-above-total"])
    def test_bad_data_file_exit_3(self, capsys, tmp_path, content, detail):
        path = tmp_path / "data.json"
        if content is not None:
            path.write_text(content)
        code, out, err = run(capsys, "fit", "--data", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and str(path) in err and detail in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("flag", [["--power", "1"], ["--beta", "0"]], ids=["power-1", "beta-0"])
    def test_clustered_at_full_power(self, capsys, flag):
        # the split takes its limit at power 1: no stratum's rate moves with h
        code, _, err = run(capsys, "fit", "--builtin", "psych-rep", "--stratified",
                           "--model", "threshold_clustering", *flag)
        assert "power and alpha must lie in (0, 1)" not in err
        assert (code, err) == (3, "error: no stratum admitted a root\n")


class TestSweep:
    def test_figure1(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", "--figure", "1", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "figure1.csv").exists()
        assert "figure1.csv" in out
        header, first = (tmp_path / "figure1.csv").read_text().splitlines()[:2]
        assert header == "alpha,h,power,fpr"
        assert first.startswith("0.05,0,")

    def test_figure5_with_svg(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", "--figure", "5", "--h", "0.15",
                           "--out", str(tmp_path), "--svg")
        assert code == 0
        csv = (tmp_path / "figure5_h0.15.csv").read_text()
        assert "below_one" in csv.splitlines()[0]
        assert (tmp_path / "figure5_h0.15.svg").read_text().startswith("<?xml")

    @pytest.mark.parametrize("figure", ["3", "5"])
    def test_figure_id_keeps_every_digit_of_h(self, capsys, tmp_path, figure):
        code, out, _ = run(capsys, "sweep", "--figure", figure, "--h", "0.99999999",
                           "--out", str(tmp_path))
        assert (code, out) == (0, f"{tmp_path / f'figure{figure}_h0.99999999.csv'}\n")

    def test_help_names_every_figure(self, capsys):
        assert main(["sweep", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "figure id: " + ", ".join(map(str, FIGURES)) in out
        taking_h = [str(figure) for figure, (_, default_hs) in FIGURES.items() if default_hs]
        assert "hacking rate for figures " + " and ".join(taking_h) in out

    def test_unknown_figure_exit_2(self, capsys, tmp_path):
        for figure in ("9", "³"):  # "³".isdigit(), but int() rejects it
            code, _, err = run(capsys, "sweep", "--figure", figure, "--out", str(tmp_path))
            assert code == 2
            assert f"unknown figure id {figure}" in err


class TestSimulate:
    def test_oracle_agreement(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "200000", "--seed", "42",
                           "--alpha", "0.05", "--power", "0.8",
                           "--prior-odds", "1:10", "--h", "0")
        assert code == 0
        record = json.loads(out)
        assert abs(record["empirical_fpr"] - 0.3846) <= 3 * record["se_fpr"] + 5e-4
        assert all(abs(row["z_score"]) <= 4 for row in record["crosscheck"])
        assert record["generator"] == GENERATOR_NAME

    def test_single_draw(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "1", "--seed", "7")
        assert code == 0
        cells = json.loads(out)["cells"]
        assert sum(cells.values()) == 1
        assert sum(1 for v in cells.values() if v) == 1

    def test_empty_denominator_prints_strict_json(self, capsys):
        # NaN is not JSON (RFC 8259), and strict parsers such as jq reject it.
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        code, out, _ = run(capsys, "simulate", "--n", "1", "--seed", "0")
        assert code == 0
        record = json.loads(out, parse_constant=reject)
        assert record["empty_denominator"] is True
        assert [record[key] for key in ("empirical_fpr", "empirical_rr", "se_fpr", "se_rr")] == [None] * 4

    @pytest.mark.parametrize("flag", [("--phi", "1e-320"), ("--prior-odds", "1:1e-320")],
                             ids=["phi", "prior-odds"])
    def test_tiny_false_positive_rate_prints_finite_z(self, capsys, flag):
        # the closed-form FPR is about 6e-322, and its standard error must not underflow to 0
        code, out, _ = run(capsys, "simulate", *flag, "--n", "1000", "--seed", "1")
        assert code == 0
        assert all(row["ok"] for row in strict_json(out)["crosscheck"])

    def test_all_hacked(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "10000", "--seed", "1",
                           "--h", "0.999999999")
        assert code == 0
        assert json.loads(out)["empirical_rr"] == 0.0

    def test_bad_config_exit_3(self, capsys):
        code, _, _ = run(capsys, "simulate", "--n", "100", "--alpha", "0.5")
        assert code == 3

    def test_cutoff_is_alpha(self, capsys):
        # --alpha is the operative cutoff; there is no second option for it
        code, out, err = run(capsys, "simulate", "--cutoff", "0.005")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --cutoff 0.005" in err

    def test_beta_below_rounding_is_full_power(self, capsys):
        # 1 - 1e-20 rounds to 1.0, so the design has power 1, as at beta 0
        args = ("simulate", "--n", "1000", "--h", "0.05", "--seed", "1", "--beta")
        code, out, err = run(capsys, *args, "1e-20")
        assert (code, err) == (0, "")
        assert out == run(capsys, *args, "0")[1]

    def test_negative_seed_exit_3(self, capsys):
        code, _, err = run(capsys, "simulate", "--n", "1000", "--seed", "-1")
        assert code == 3
        assert err.startswith("error:") and "Traceback" not in err

    def test_n_beyond_2_53_exit_3(self, capsys):
        code, _, err = run(capsys, "simulate", "--n", str(2**53 + 1))
        assert code == 3
        assert err.startswith("error:") and "n_tests" in err
        code, out, _ = run(capsys, "simulate", "--n", str(2**53), "--h", "0.05")
        assert code == 0
        assert sum(json.loads(out)["cells"].values()) == 2**53


class TestReproduce:
    def test_exit_zero_and_file_count(self, capsys, tmp_path):
        code, out, _ = run(capsys, "reproduce", "--out", str(tmp_path))
        assert code == 0
        assert "FAIL" not in out
        assert len(list(tmp_path.glob("*.csv"))) == 7
        assert "INFO" in out  # documented gaps are reported, not failed

    def test_strict_mode_fails_on_gap(self, capsys, tmp_path):
        code, out, _ = run(capsys, "reproduce", "--out", str(tmp_path), "--strict")
        assert code == 1
        assert "FAIL" in out

    def test_report_matches_golden(self, capsys, tmp_path):
        # Pins every label, computed value, reference and tolerance apart
        # from the claim table that produces them.
        code, out, _ = run(capsys, "reproduce", "--out", str(tmp_path))
        assert code == 0
        golden = (GOLDEN / "reproduce.txt").read_text()
        assert out.replace(str(tmp_path), "<out>") == golden


class TestIgnoredArgument:
    @pytest.mark.parametrize("argv, want_code", [
        (["fit", "--builtin", "psych-rep", "--data", "{tmp}/data.json"], 2),
        (["fit", "--builtin", "psych-rep", "--model", "threshold_clustering"], 2),
        (["sweep", "--figure", "1", "--h", "0.15", "--out", "{tmp}"], 3),
    ], ids=["fit-builtin-and-data", "fit-model-unstratified", "sweep-h-on-figure-1"])
    def test_rejected(self, capsys, tmp_path, argv, want_code):
        code, _, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert code == want_code
        assert "error:" in err and "Traceback" not in err


class TestUnwritableOut:
    @pytest.mark.parametrize("command, out", [
        (["sweep", "--figure", "1"], "file/sub"),
        (["reproduce"], "file"),
        (["sweep", "--figure", "1"], "dir"),
    ], ids=["sweep-under-file", "reproduce-onto-file", "csv-is-directory"])
    def test_exit_3(self, capsys, tmp_path, command, out):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir" / "figure1.csv").mkdir(parents=True)
        code, _, err = run(capsys, *command, "--out", str(tmp_path / out))
        assert code == 3
        assert err.startswith("error: cannot write") and "Traceback" not in err


def test_closed_stdout_exit_3():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from phacking.cli import entry; entry()",
             "fit", "--builtin", "psych-rep", "--stratified", "--power", "1"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120, check=False,
            env={**os.environ, "PYTHONPATH": path})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (3, "error: cannot write stdout: Broken pipe\n")


def test_replays_golden_calls(capsys):
    """Every call in tests/golden/cli.json prints the recorded stdout and
    stderr and exits with the recorded code; ``{golden}`` in an argv
    stands for tests/golden."""
    calls = json.loads((GOLDEN / "cli.json").read_text())
    for name, call in calls.items():
        code = main([arg.format(golden=GOLDEN) for arg in call["argv"]])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (call["code"], call["stdout"], call["stderr"]), name


# CLI contract: every call but `reproduce` exits 0, 2 or 3 without a
# traceback, prints strict JSON on success, names an input it was given when it
# rejects one (a `--data` file by its path), and `sweep` prints the paths it
# wrote.  `reproduce` writes the seven figures as CSV and SVG, fails only the
# h = 0.15 doubling threshold under --strict (exit 1), and names an --out it
# cannot write (exit 3).
NUMBERS = st.sampled_from(["nan", "inf", "-inf", "-0.0", "5e-324", "1e-320", "1e308", "0", "1",
                           "0.05", "0.5", "x", ""])
ODDS = st.one_of(st.builds("{}:{}".format, NUMBERS, NUMBERS), st.sampled_from(["1", "1:2:3"]))
DESIGN_FLAGS = {"--alpha": NUMBERS, "--beta": NUMBERS, "--power": NUMBERS, "--phi": NUMBERS,
                "--prior-odds": ODDS}
HACKING_FLAGS = {"--h": NUMBERS, "--psi": NUMBERS, "--pi": NUMBERS, "--baseline-alpha": NUMBERS}
#: Subcommand -> flag -> strategy for its value (None for a switch).
FLAGS = {
    "rates": {**DESIGN_FLAGS, **HACKING_FLAGS},
    "fit": {**DESIGN_FLAGS, "--stratified": None,
            "--model": st.sampled_from(["per_stratum_rate", "threshold_clustering", "x"])},
    "sweep": {"--figure": st.sampled_from(["1", "2", "3", "4", "5", "9", "³", "x"]),
              "--h": NUMBERS, "--svg": None},
    # --n is small or invalid: the contract does not depend on it
    "simulate": {**DESIGN_FLAGS, **HACKING_FLAGS, "--seed": st.sampled_from(["0", "1", "-1", "x"]),
                 "--n": st.sampled_from(["0", "1", "1000", "-1", "1e3", "9007199254740993"])},
    "reproduce": {"--strict": None},
}
#: Names a flag's value goes by in error messages, where they differ from the flag's own.
FIELDS = {"--alpha": {"alpha"}, "--prior-odds": {"phi"}, "--n": {"n_tests"}}
#: `fit --data` files: with strata, with none, with an empty list, and one
#: that does not exist.
DATA_FILES = ("replication_split.json", "replication_no_strata.json",
              "replication_empty_strata.json", "missing.json")
#: `fit`'s data source: the built-in counts or one of the files.
FIT_SOURCES = st.sampled_from(["--builtin=psych-rep",
                               *(f"--data={GOLDEN / name}" for name in DATA_FILES)])
#: The argument a subcommand always takes: `fit`'s data source, and
#: `reproduce`'s output, a new directory or an existing file in the
#: contract's output directory `{tmp}`.
REQUIRED = {"fit": FIT_SOURCES,
            "reproduce": st.sampled_from(["--out={tmp}/new", "--out={tmp}/file"])}
#: The messages of ``NoRootError``: no hacking rate fits the data, which is
#: a fact about all inputs together, so they name none.
NO_ROOT = re.compile(r"contains no root|no stratum admitted a root|no h in \[0, 1\) fits")


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = draw(st.lists(st.sampled_from(sorted(FLAGS[command])), unique=True, max_size=4))
    argv = [command]
    if command in REQUIRED:
        argv.append(draw(REQUIRED[command]))
    for flag in flags:
        value = FLAGS[command][flag]
        argv.append(flag if value is None else f"{flag}={draw(value)}")
    return argv


def _given(argv):
    """Each flag in ``argv`` with its value (None for a switch)."""
    return dict((*arg.split("=", 1), None)[:2] for arg in argv[1:])


@settings(max_examples=300)
@given(cli_calls())
@example(["rates", "--power=2"])
@example(["sweep", "--figure=5", "--h=0.99999999"])
@example(["simulate", "--phi=1e-320", "--n=1000", "--seed=1"])
@example(["rates", "--phi=0", "--power=0"])
@example(["fit", f"--data={GOLDEN / 'replication_no_strata.json'}", "--stratified"])
def test_cli_contract(argv):
    check_contract(argv)


@pytest.mark.parametrize("model", ["", "per_stratum_rate", "threshold_clustering"])
@pytest.mark.parametrize("stratified", [False, True])
@pytest.mark.parametrize("name", DATA_FILES)
def test_fit_data_contract(name, stratified, model):
    check_contract(["fit", f"--data={GOLDEN / name}", *["--stratified"] * stratified,
                    *[f"--model={model}"] * bool(model)])


def check_contract(argv):
    given_flags = _given(argv)
    with tempfile.TemporaryDirectory() as out:
        if argv[0] == "sweep":
            argv = [*argv, "--out", out]
        elif argv[0] == "reproduce":
            Path(out, "file").touch()
            argv = [arg.format(tmp=out) for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        written = sorted(str(path) for path in Path(out).rglob("*"))
    if argv[0] == "reproduce":
        out_dir = Path(argv[1].removeprefix("--out="))
        if out_dir.name == "file":
            assert code == 3 and str(out_dir) in stderr.getvalue(), (argv, stderr.getvalue())
            return
        fails = [line for line in stdout.getvalue().splitlines() if line.startswith("FAIL")]
        figures = sorted(Path(path).suffix for path in written if Path(path).parent == out_dir)
        strict = int("--strict" in given_flags)  # exit 1 and one FAIL line
        assert (code, len(fails), figures) == (strict, strict, [".csv"] * 7 + [".svg"] * 7), argv
        assert all("doubling threshold at h=0.15" in line for line in fails), fails
        return
    assert code in (0, 2, 3), (argv, stderr.getvalue())
    if code == 3:
        # A message that names inputs with their values (name=value) names
        # one that was given; any other names a given input at least by
        # name, and a --data file by its path, unless it says that no
        # hacking rate fits.
        message = stderr.getvalue()
        named = set(re.findall(r"\b(\w+)=", message))
        fields = set().union(*(FIELDS.get(f, {f[2:].replace("-", "_")}) for f in given_flags))
        if named:
            assert named & fields, (argv, message)
        elif "--data" in given_flags:
            assert given_flags["--data"] in message or NO_ROOT.search(message), (argv, message)
        else:
            assert set(re.findall(r"\w+", message)) & fields or NO_ROOT.search(message), (
                argv, message)
    elif code == 0 and argv[0] in ("rates", "fit", "simulate"):
        strict_json(stdout.getvalue())
    elif code == 0 and argv[0] == "sweep":
        assert sorted(stdout.getvalue().splitlines()) == written
        if given_flags.get("--h") is not None:
            for path in written:
                h = Path(path).stem.partition("_h")[2]
                assert float(h) == float(given_flags["--h"]), (argv, path)
