"""pytest-benchmark kernels for the CLI's CSV commands, in process.

Outside the Tier-1 ``testpaths``; run explicitly with

    python -m pytest benchmarks/test_cli_kernels.py --benchmark-only

The kernels carry no timing asserts.  ``chi-sweep --n 16`` is the larger
``chi_sweep`` operation of the radiation-sweep benchmark workload, where
writing its 9 600 rows costs far more than the chi kernel; ``dynamics``
at its defaults is the bath-decay workload's operation.  Each round
writes the CSV to a file under ``tmp_path``.
"""

import pytest

from quasilattice import cli


@pytest.mark.parametrize("argv", [["chi-sweep", "--n", "16"], ["dynamics"]], ids=["chi_sweep_n16", "dynamics"])
def test_cli_csv(benchmark, tmp_path, argv):
    out = tmp_path / "out.csv"
    assert benchmark(cli.main, argv + ["--out", str(out)]) == cli.EXIT_OK
    assert out.stat().st_size > 0
