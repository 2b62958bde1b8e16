"""pytest-benchmark kernels for the package import and for each CLI
subcommand in a fresh process.

Outside the Tier-1 ``testpaths``; run explicitly with

    python -m pytest benchmarks/test_import_kernel.py --benchmark-only

The kernels carry no timing asserts.  Each round of ``test_import_cli``
starts a fresh interpreter that runs ``import quasilattice.cli``, so the
time includes the interpreter's own start (``python -c pass``) as well
as numpy, the model and the CLI; it is what the benchmark's ``setup_s``
measures in reference seconds.  The import is lazy, so each CLI run
also pays for the layer modules its own subcommand loads.
``test_command_subprocess`` measures that whole run, as a user runs it:
``python -m quasilattice.cli <command> --out <file>`` at the command's
defaults, ten rounds each, with the child's wall time and its own
``ru_maxrss`` in ``extra_info["wall_s"]`` and
``extra_info["ru_maxrss_mb"]`` (the ``cli_process`` fixture of
``conftest.py``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasilattice


def test_import_cli(benchmark):
    src = str(Path(quasilattice.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", "import quasilattice.cli"]
    benchmark(subprocess.run, argv, env=dict(os.environ, PYTHONPATH=path), check=True)


@pytest.mark.parametrize("command", ["spectrum", "chi-sweep", "decay-sweep", "dynamics", "validate"])
def test_command_subprocess(benchmark, cli_process, tmp_path, command):
    runs = []
    benchmark.pedantic(lambda: runs.append(cli_process(command, "--out", str(tmp_path / "out"))),
                       rounds=10, warmup_rounds=0)
    benchmark.extra_info["wall_s"] = [wall for wall, _ in runs]
    benchmark.extra_info["ru_maxrss_mb"] = [peak for _, peak in runs]
