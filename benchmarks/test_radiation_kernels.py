"""pytest-benchmark kernels for the radiation layer.

Outside the Tier-1 ``testpaths``; run explicitly with

    python -m pytest benchmarks/test_radiation_kernels.py --benchmark-only

The kernels carry no timing asserts.  The principal-value check runs at
N=4 and N=8, the sizes of the ``pv_check`` operations of the
radiation-sweep benchmark workload; ``decay_rate`` runs at the CLI
defaults, one point, and over the 201-point sweeps of the three
``decay_sweep`` operations of that workload (ell at N=4 and N=16, omega_q
at N=4), each as one batched call.  ``chi`` runs for every l on the
600-point default grid of ``chi-sweep`` at N=16, the larger ``chi_sweep``
operation of that workload.
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


@pytest.mark.parametrize("n, axis", [(4, "ell"), (16, "ell"), (4, "omega-q")])
def test_decay_sweep(benchmark, n, axis):
    if axis == "ell":
        grid = zip(np.linspace(0.0, 1.0, 201).tolist(), [13.458] * 201)
    else:
        grid = zip([2.0 / 3.0] * 201, np.linspace(1.0, 40.5, 201).tolist())
    sweep = tuple(LatticeSpec(n_qubits=n, relative_spacing=ell, omega_q=wq) for ell, wq in grid)
    result = benchmark(radiation.decay_rate, sweep, CAVITY)
    assert np.all(np.isfinite(result.gamma_normalized))


def test_chi_sweep_grid(benchmark):
    lattice = LatticeSpec(n_qubits=16, relative_spacing=2.0 / 3.0, omega_q=13.458)
    k_grid = np.linspace(0.05, 30.0, 600)

    def every_l():
        return [radiation.chi(lattice, CAVITY, l, k_grid) for l in radiation.l_values(lattice)]

    rows = benchmark(every_l)
    assert len(rows) == 16 and all(np.all(np.isfinite(row)) for row in rows)
