"""pytest-benchmark kernels for the exact oracle, one per layer.

Outside the Tier-1 ``testpaths``; run explicitly with

    python -m pytest benchmarks/test_oracle_kernels.py --benchmark-only

The kernels carry no timing asserts.  The N=8, n_max=8 build (product
dimension 2304) and its lowest sectors match the ``exact_spectrum``
operation of the validate-oracle benchmark workload; the build holds
only the spin terms, and each sector call builds its own block; the
N-only part of them (s_z and the entries of s_plus) is cached per N.
``check_commutators`` makes one ``verify_commutators`` call per N =
2..6, on one sweep of ell = 0 and its 20 random ell, and no build.  The
``verify_commutators`` kernels take one lattice and a 20-point sweep at
N=6 (the check's largest sweep has 21 points); each call forms its own
weight rows and cos^2-weighted Sigma_z from the lattice, which the
timing includes, and takes the commutators in the 2^N qubit space, one
sweep point at a time in one reused s_plus buffer.
"""

import numpy as np
import pytest

from quasilattice import oracle, validation
from quasilattice.model import CavitySpec, LatticeSpec

LATTICE = LatticeSpec(n_qubits=8, relative_spacing=0.0, omega_q=13.458)
CAVITY = CavitySpec(omega_c=6.729, eta=0.1)
N_MAX = 8
COMMUTATOR_LATTICES = {
    "one": LatticeSpec(n_qubits=6, relative_spacing=0.37, omega_q=13.458),
    "sweep20": LatticeSpec(6, np.linspace(0.02, 0.98, 20), np.full(20, 13.458)),
}


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
    spectra = benchmark(
        lambda: [oracle.exact_sector_spectrum(ops, two_u) for two_u in (-8, -6, -4)]
    )
    assert all(np.all(np.isfinite(s)) for s in spectra)


@pytest.mark.parametrize("lattice", COMMUTATOR_LATTICES.values(), ids=COMMUTATOR_LATTICES)
def test_verify_commutators(benchmark, lattice):
    report = benchmark(oracle.verify_commutators, lattice)
    assert max(report.sz_splus, report.sz_sminus, report.splus_sminus_sigma) < 1e-12
    assert report.splus_sminus_sz is None


def test_check_commutators(benchmark):
    results = benchmark(lambda: validation.check_commutators(np.random.default_rng(0)))
    assert all(r.passed for r in results)
