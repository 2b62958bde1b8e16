"""pytest-benchmark kernels for the CLI's CSV commands, in process.

Outside the Tier-1 ``testpaths``; run explicitly with

    python -m pytest benchmarks/test_cli_kernels.py --benchmark-only

The kernels carry no timing asserts.  ``chi-sweep --n 4`` and ``--n 16``
are the two ``chi_sweep`` operations of the radiation-sweep benchmark
workload, 2 400 and 9 600 rows, where formatting the rows costs far more
than the chi kernel; ``decay-sweep`` at its defaults writes the 201 rows
of each of that workload's ``decay_sweep`` operations, and ``dynamics``
at its defaults is the bath-decay workload's operation.  Each round
writes the CSV to a file under ``tmp_path``.  The JSON kernel times only
the emission of the N=32 ``spectrum`` document with every sector (about
0.9 MB), the largest ``spectrum`` operation of the validate-oracle
workload; the document is built once, outside the timing.
"""

import pytest

from quasilattice import cli


@pytest.mark.parametrize("argv", [
    ["chi-sweep", "--n", "4"], ["chi-sweep", "--n", "16"], ["decay-sweep"], ["dynamics"],
], ids=["chi_sweep_n4", "chi_sweep_n16", "decay_sweep", "dynamics"])
def test_cli_csv(benchmark, tmp_path, argv):
    out = tmp_path / "out.csv"
    assert benchmark(cli.main, argv + ["--out", str(out)]) == cli.EXIT_OK
    assert out.stat().st_size > 0


def test_spectrum_json_n32(benchmark, tmp_path, monkeypatch):
    docs = []
    monkeypatch.setattr(cli, "_write_json", lambda out, doc, sort_keys=False: docs.append(doc))
    out = tmp_path / "spectrum.json"
    assert cli.main(["spectrum", "--n", "32", "--u-max-offset", "32", "--out", str(out)]) == cli.EXIT_OK
    monkeypatch.undo()

    def emit():
        with open(out, "w") as fh:
            cli._write_json(fh, docs[0])

    benchmark(emit)
    assert out.stat().st_size > 800_000
