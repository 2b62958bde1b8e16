"""pytest-benchmark kernel for the package import.

Outside the Tier-1 ``testpaths``; run explicitly with

    python -m pytest benchmarks/test_import_kernel.py --benchmark-only

The kernel carries no timing asserts.  Each round starts a fresh
interpreter that runs ``import quasilattice.cli``, so the time includes
the interpreter's own start (``python -c pass``) as well as numpy and
the package; it is the import every CLI run pays, and what the
benchmark's ``setup_s`` measures in reference seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import quasilattice


def test_import_cli(benchmark):
    src = str(Path(quasilattice.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", "import quasilattice.cli"]
    benchmark(subprocess.run, argv, env=dict(os.environ, PYTHONPATH=path), check=True)
