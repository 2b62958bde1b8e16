"""pytest-benchmark kernels for the exact oracle, one per layer.

Outside the Tier-1 ``testpaths``; run explicitly with

    python -m pytest benchmarks/test_oracle_kernels.py --benchmark-only

The kernels carry no timing asserts.  The N=8, n_max=8 build (product
dimension 2304) and its lowest sectors match the ``exact_spectrum``
operation of the validate-oracle benchmark workload.  The single-sector
kernel reuses one operator set, whose conservation guard is computed on
the first call only; the three-sector kernel gets a fresh set each
round, so it pays the guard once, as that operation does.
"""

import dataclasses

import numpy as np
import pytest

from quasilattice import oracle, validation
from quasilattice.model import CavitySpec, LatticeSpec

LATTICE = LatticeSpec(n_qubits=8, relative_spacing=0.0, omega_q=13.458)
CAVITY = CavitySpec(omega_c=6.729, eta=0.1)
N_MAX = 8


@pytest.fixture(scope="module")
def ops():
    return oracle.build_operators(LATTICE, CAVITY, n_max=N_MAX)


def test_build_operators(benchmark):
    result = benchmark(oracle.build_operators, LATTICE, CAVITY, N_MAX)
    assert result.dimension == 2**8 * (N_MAX + 1)


@pytest.mark.parametrize("two_u", [-8, -6, -4])
def test_exact_sector_spectrum(benchmark, ops, two_u):
    eigenvalues = benchmark(oracle.exact_sector_spectrum, ops, two_u)
    assert np.all(np.isfinite(eigenvalues))


def test_three_sector_spectra(benchmark, ops):
    def three(fresh):
        return [oracle.exact_sector_spectrum(fresh, two_u) for two_u in (-8, -6, -4)]

    spectra = benchmark.pedantic(
        three, setup=lambda: ((dataclasses.replace(ops),), {}), rounds=20
    )
    assert all(np.all(np.isfinite(s)) for s in spectra)


def test_check_commutators(benchmark):
    results = benchmark(lambda: validation.check_commutators(np.random.default_rng(0)))
    assert all(r.passed for r in results)
