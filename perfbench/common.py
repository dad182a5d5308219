"""Shared helpers: the checkout layout, the environment record, child
processes with their own resource usage, and order statistics."""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

#: Root of the checkout: the directory that holds ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: A child process that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 120.0


def checkout_problem() -> str | None:
    """Why this directory cannot be benchmarked, or None if it can."""
    if not (SRC / "phacking" / "__init__.py").is_file():
        return f"no program source at {SRC / 'phacking'}: run from the root of a phacking checkout"
    return None


def child_env() -> dict:
    """Environment for program processes: the checkout's source first on
    the path, and no inherited default output directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("PHACKING_OUT_DIR", None)
    return env


def python_cmd(code: str, *args: str, flags: tuple[str, ...] = ()) -> list[str]:
    return [sys.executable, *flags, "-c", code, *args]


#: What the installed ``phacking`` console script runs.
PHACKING = "import sys; from phacking.cli import entry; sys.exit(entry())"


class ChildResult(NamedTuple):
    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def _alarm(signum, frame):
    raise TimeoutError("child process exceeded its time limit")


def run_child(argv: list[str], out_dir: Path, cwd: Path | None = None) -> ChildResult:
    """Run one process to completion; return its exit code, wall time,
    peak RSS (from its own rusage) and captured output.

    Output goes to files in ``out_dir`` rather than pipes, so the parent
    blocks in a single ``wait4`` and the wall time holds no polling.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = out_dir / "stdout.txt", out_dir / "stderr.txt"
    previous = signal.signal(signal.SIGALRM, _alarm)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(), cwd=cwd or ROOT)
        try:
            signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_text(),
                       err_path.read_text())


def own_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Python source that prints the process's own resident high-water mark
#: in kB.  VmHWM belongs to the process's own address space, so unlike
#: rusage it holds nothing inherited from the parent at exec.
PRINT_VM_HWM = (
    "for line in open('/proc/self/status'):\n"
    "    if line.startswith('VmHWM:'): print('VmHWM', line.split()[1])\n"
)


def parse_vm_hwm_kb(stdout: str) -> list[int]:
    return [int(line.split()[1]) for line in stdout.splitlines() if line.startswith("VmHWM ")]


# --- environment ------------------------------------------------------------

def _dist_version(name: str) -> str:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "absent"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc() -> str:
    best = (0, "unknown")
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _dist_version("numpy"),
        "scipy": _dist_version("scipy"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "llc": _llc(),
        "commit": _commit(),
    }
