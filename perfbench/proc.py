"""Child processes (each with its own peak RSS) and the environment record."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Children import the library from the checkout's ``src``.
ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), ENV.get("PYTHONPATH")]))


def run_child(argv, stderr=None):
    """Run one child to the end: (exit code, stdout bytes, peak RSS in KiB).

    The peak comes from wait4 on this child alone; RUSAGE_CHILDREN would
    be the running maximum over every child so far.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, cwd=ROOT, env=ENV)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def environment() -> dict:
    """Interpreter, CPU model, core count and load average, read only."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def interpreter_seconds(repeats: int = 5) -> float:
    """Median wall time of a bare ``python -c pass`` child."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT, env=ENV)
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]
