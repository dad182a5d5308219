"""Start-up guard: importing the CLI loads only the standard library, numpy
loads only for ``simulate``, and no CLI path loads scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from phacking.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports phacking.cli, runs main(argv) when argv is given, and reports the
# exit code and which of numpy and scipy are loaded as the last stderr line.
CHILD = """
import json, sys
from phacking.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else None
loaded = {name.partition(".")[0] for name in sys.modules} & {"numpy", "scipy"}
print(json.dumps([code, sorted(loaded)]), file=sys.stderr)
"""


def run_child(*argv):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, check=False)
    code, loaded = json.loads(proc.stderr.splitlines()[-1])
    assert "scipy" not in loaded, argv
    return code, loaded, proc.stdout


def test_import_loads_only_the_standard_library():
    assert run_child() == (None, [], "")


@pytest.mark.parametrize("argv, want_code", [
    (["rates", "--alpha", "0.005", "--h", "0.15", "--psi", "1"], 0),
    (["fit", "--builtin", "psych-rep"], 0),
    (["fit", "--builtin", "psych-rep", "--stratified"], 0),
    (["sweep", "--figure", "5", "--svg", "--out", "{tmp}"], 0),
    (["reproduce", "--out", "{tmp}"], 0),
    (["simulate", "--seed", "-1"], 3),
    (["rates", "--beta", "0.2", "--power", "0.8"], 2),
], ids=["rates", "fit", "fit-stratified", "sweep", "reproduce", "exit-3", "exit-2"])
def test_light_paths_load_neither(tmp_path, argv, want_code):
    code, loaded, _ = run_child(*(arg.format(tmp=tmp_path) for arg in argv))
    assert (code, loaded) == (want_code, [])


@pytest.mark.parametrize("argv, want_loaded", [
    (["fit", "--builtin", "psych-rep", "--stratified", "--model", "threshold_clustering"], []),
    (["simulate", "--n", "20000", "--seed", "42", "--h", "0.05", "--cutoff", "0.005"], ["numpy"]),
], ids=["fit-clustered", "simulate"])
def test_heavy_paths_load_on_demand(capsys, argv, want_loaded):
    code, loaded, out = run_child(*argv)
    assert (code, loaded) == (0, want_loaded)
    assert main(argv) == 0
    assert out == capsys.readouterr().out
