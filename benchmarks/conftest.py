"""Fixtures shared by the benchmark kernels."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasilattice

# Runs one command and prints its wall time and its own ru_maxrss (kB).
# A child's ru_maxrss starts from the RSS of the process it was forked
# from, so the command is started from this small interpreter, not from
# the test process, which can hold hundreds of MB after other kernels.
_MEASURE = """
import os, subprocess, sys, time
t = time.perf_counter()
child = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(child.pid, 0)
assert os.waitstatus_to_exitcode(status) == 0
print(time.perf_counter() - t, usage.ru_maxrss)
"""


@pytest.fixture
def cli_process():
    """run(*argv) runs ``python -m quasilattice.cli *argv`` in a fresh
    interpreter, with this checkout's package first on PYTHONPATH, and
    returns its wall time in s and its ``ru_maxrss`` in MB."""
    src = str(Path(quasilattice.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(*argv):
        argv = [sys.executable, "-c", _MEASURE, sys.executable, "-m", "quasilattice.cli", *argv]
        done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, check=True)
        wall, peak_kb = done.stdout.split()
        return float(wall), int(peak_kb) / 1024

    return run
