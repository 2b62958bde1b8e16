"""pytest-benchmark kernels for the radiation layer.

Outside the Tier-1 ``testpaths``; run explicitly with

    python -m pytest benchmarks/test_radiation_kernels.py --benchmark-only

The kernels carry no timing asserts.  The principal-value check runs at
N=4 and N=8, the sizes of the ``pv_check`` operations of the
radiation-sweep benchmark workload; ``decay_rate`` runs at the CLI
defaults.  ``chi`` runs for every l on the 600-point default grid of
``chi-sweep`` at N=16, the larger ``chi_sweep`` operation of that
workload.
"""

import math

import numpy as np
import pytest

from quasilattice import radiation
from quasilattice.model import CavitySpec, LatticeSpec

CAVITY = CavitySpec(omega_c=6.729, eta=0.1)


@pytest.mark.parametrize("n", [4, 8])
def test_pv_integral_check(benchmark, n):
    lattice = LatticeSpec(n_qubits=n, relative_spacing=2.0 / 3.0, omega_q=13.458)
    result = benchmark(radiation.pv_integral_check, lattice, CAVITY)
    assert math.isfinite(result.numeric) and math.isfinite(result.analytic)


def test_decay_rate(benchmark):
    lattice = LatticeSpec(n_qubits=4, relative_spacing=2.0 / 3.0, omega_q=13.458)
    result = benchmark(radiation.decay_rate, lattice, CAVITY)
    assert math.isfinite(result.gamma_normalized)


def test_chi_sweep_grid(benchmark):
    lattice = LatticeSpec(n_qubits=16, relative_spacing=2.0 / 3.0, omega_q=13.458)
    k_grid = np.linspace(0.05, 30.0, 600)

    def every_l():
        return [radiation.chi(lattice, CAVITY, l, k_grid) for l in radiation.l_values(lattice)]

    rows = benchmark(every_l)
    assert len(rows) == 16 and all(np.all(np.isfinite(row)) for row in rows)
