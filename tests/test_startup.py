"""Start-up guard: each CLI path loads only the package modules it runs and
the standard library it needs; no path loads numpy, scipy, dataclasses or
inspect, and only the threshold-clustering fit loads statistics."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phacking
from phacking.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports phacking.cli, runs main(argv) when argv is given, and reports the
# exit code and the loaded phacking submodules (without the package prefix)
# and watched libraries as the last stderr line.
CHILD = """
import json, sys
from phacking.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else None
loaded = {name.removeprefix("phacking.") for name in sys.modules if name.startswith("phacking.")}
loaded |= {name.partition(".")[0] for name in sys.modules} & {
    "numpy", "scipy", "dataclasses", "inspect", "statistics"}
print(json.dumps([code, sorted(loaded)]), file=sys.stderr)
"""

BASE = ["cli", "rates"]
SWEEPS = sorted(BASE + ["sweeps"])
FIGURES = sorted(SWEEPS + ["svg"])


def run_child(*argv):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, check=False)
    code, loaded = json.loads(proc.stderr.splitlines()[-1])
    assert not {"scipy", "dataclasses", "inspect"} & set(loaded), argv
    return code, loaded, proc.stdout


def test_import_loads_only_the_standard_library():
    assert run_child() == (None, BASE, "")


@pytest.mark.parametrize("argv, want_code, want_loaded", [
    (["rates", "--alpha", "0.005", "--h", "0.15", "--psi", "1"], 0, BASE),
    (["fit", "--builtin", "psych-rep"], 0, sorted(BASE + ["estimator"])),
    (["fit", "--builtin", "psych-rep", "--stratified"], 0, sorted(BASE + ["estimator"])),
    (["sweep", "--figure", "5", "--svg", "--out", "{tmp}"], 0, FIGURES),
    (["sweep", "--figure", "1", "--out", "{tmp}"], 0, SWEEPS),
    (["reproduce", "--out", "{tmp}"], 0, sorted(FIGURES + ["claims", "estimator"])),
    (["simulate", "--seed", "-1"], 3, sorted(BASE + ["mc"])),
    (["rates", "--beta", "0.2", "--power", "0.8"], 2, BASE),
    (["sweep", "--figure", "9"], 2, SWEEPS),
], ids=["rates", "fit", "fit-stratified", "sweep", "sweep-csv", "reproduce", "exit-3", "exit-2",
        "exit-2-figure"])
def test_light_paths_load_neither(tmp_path, argv, want_code, want_loaded):
    code, loaded, _ = run_child(*(arg.format(tmp=tmp_path) for arg in argv))
    assert (code, loaded) == (want_code, want_loaded)


@pytest.mark.parametrize("argv, want_loaded", [
    (["fit", "--builtin", "psych-rep", "--stratified", "--model", "threshold_clustering"],
     sorted(BASE + ["estimator", "statistics"])),
    (["simulate", "--n", "20000", "--seed", "42", "--h", "0.05", "--alpha", "0.005"],
     sorted(BASE + ["mc"])),
], ids=["fit-clustered", "simulate"])
def test_heavy_paths_load_on_demand(capsys, argv, want_loaded):
    code, loaded, out = run_child(*argv)
    assert (code, loaded) == (0, want_loaded)
    assert main(argv) == 0
    assert out == capsys.readouterr().out


def test_lazy_package():
    for name in phacking.__all__:
        module = phacking._SOURCE[name]
        value = getattr(phacking, name)
        assert value is getattr(sys.modules[f"phacking.{module}"], name)
        assert vars(phacking)[name] is value  # cached: no __getattr__ on later lookups
    assert set(phacking.__all__) <= set(dir(phacking))
    assert phacking.rates is sys.modules["phacking.rates"]
    with pytest.raises(AttributeError):
        phacking.no_such_name
