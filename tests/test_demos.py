"""Both demos, run as scripts: standard output matches its golden file, with
the output directory written as ``<out>``, and every file a demo writes
matches its golden file byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def run_demo(name, cwd, *args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False,
                          env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_rates_and_figures(tmp_path):
    out = tmp_path / "out"
    stdout = run_demo("demo_rates_and_figures.py", tmp_path, str(out))
    assert stdout.replace(str(out), "<out>") == (GOLDEN / "demo_rates_and_figures.txt").read_text()
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    written = sorted(p.name for p in out.iterdir())
    assert written == [f"{figure}.{suffix}" for figure in ("figure1", "figure3_h0.15", "figure5_h0.15")
                       for suffix in ("csv", "svg")]
    for name in written:  # each has a golden file
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_fit_and_simulate(tmp_path):
    stdout = run_demo("demo_fit_and_simulate.py", tmp_path)
    assert stdout == (GOLDEN / "demo_fit_and_simulate.txt").read_text()
    assert list(tmp_path.iterdir()) == []  # it writes no file
