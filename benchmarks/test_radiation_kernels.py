"""pytest-benchmark kernels for the radiation layer.

Outside the Tier-1 ``testpaths``; run explicitly with

    python -m pytest benchmarks/test_radiation_kernels.py --benchmark-only

The kernels carry no timing asserts.  The principal-value check runs at
N=4 and N=8, the sizes of the ``pv_check`` operations of the
radiation-sweep benchmark workload; ``decay_rate`` runs at the CLI
defaults, one point, and over the 201-point sweeps of the three
``decay_sweep`` operations of that workload (ell at N=4 and N=16, omega_q
at N=4), each as one batched call on one sweep ``LatticeSpec``.  Both
build their ``LatticeSpec`` inside the timed call, as the CLI builds one
per point or block, so no round reads a deformation factor that an
earlier round formed.  ``chi`` runs for every l at once on the 600-point
default grid of ``chi-sweep`` at N=16, the larger ``chi_sweep`` operation
of that workload.  ``check_chi_identity`` is the chi cross-check of each
``validate`` (N = 2..8 on a 2000-point grid).
"""

import math

import numpy as np
import pytest

from quasilattice import radiation, validation
from quasilattice.model import CavitySpec, LatticeSpec

CAVITY = CavitySpec(omega_c=6.729, eta=0.1)


@pytest.mark.parametrize("n", [4, 8])
def test_pv_integral_check(benchmark, n):
    lattice = LatticeSpec(n_qubits=n, relative_spacing=2.0 / 3.0, omega_q=13.458)
    result = benchmark(radiation.pv_integral_check, lattice, CAVITY)
    assert math.isfinite(result.numeric) and math.isfinite(result.analytic)


def test_decay_rate(benchmark):
    result = benchmark(lambda: radiation.decay_rate(
        LatticeSpec(n_qubits=4, relative_spacing=2.0 / 3.0, omega_q=13.458), CAVITY))
    assert math.isfinite(result.gamma_normalized)


@pytest.mark.parametrize("n, axis", [(4, "ell"), (16, "ell"), (4, "omega-q")])
def test_decay_sweep(benchmark, n, axis):
    if axis == "ell":
        ells, omegas = np.linspace(0.0, 1.0, 201), np.full(201, 13.458)
    else:
        ells, omegas = np.full(201, 2.0 / 3.0), np.linspace(1.0, 40.5, 201)
    result = benchmark(lambda: radiation.decay_rate(
        LatticeSpec(n_qubits=n, relative_spacing=ells, omega_q=omegas), CAVITY))
    assert np.all(np.isfinite(result.gamma_normalized))


def test_chi_sweep_grid(benchmark):
    lattice = LatticeSpec(n_qubits=16, relative_spacing=2.0 / 3.0, omega_q=13.458)
    k_grid = np.linspace(0.05, 30.0, 600)
    rows = benchmark(radiation.chi, lattice, CAVITY, radiation.l_values(lattice), k_grid)
    assert rows.shape == (16, 600) and np.all(np.isfinite(rows))


def test_check_chi_identity(benchmark):
    checks = benchmark(lambda: validation.check_chi_identity(np.random.default_rng(0)))
    assert checks[0].passed
