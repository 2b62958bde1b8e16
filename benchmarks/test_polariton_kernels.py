"""pytest-benchmark kernels for the polariton layer.

Outside the Tier-1 ``testpaths``; run explicitly with

    python -m pytest benchmarks/test_polariton_kernels.py --benchmark-only

The kernels carry no timing asserts.  Each sector is diagonalized as a
dense block by ``np.linalg.eigh``, whose cost grows as the cube of the
block dimension (at most N+1).  ``transition_matrices`` at N=32
covers every sector up to 2u = +32: it is the whole sector walk of the
N=32 ``spectrum --u-max-offset 32`` operation of the validate-oracle
benchmark workload.  ``diagonalize_sector`` at N=32, 2u=0 is the
middle sector of that walk (dimension 17), and at N=4, 2u=0 the middle
sector of the CLI defaults (dimension 3); ``first_excited_transition``
at N=16 is the 1 x 2 case that every ``decay_rate`` point pays.
``closed_form_coefficients`` runs every branch of the N=6 top sector
(dimension 7) from the eigensolver's splittings, as
``validation.check_closed_form`` draws them, each with its Newton
refinement of eps.
"""

import math

import numpy as np

from quasilattice import polariton
from quasilattice.model import CavitySpec, LatticeSpec

CAVITY = CavitySpec(omega_c=6.729, eta=0.1)


def test_transition_matrices(benchmark):
    lattice = LatticeSpec(n_qubits=32, relative_spacing=0.37, omega_q=13.458)
    result = benchmark(polariton.transition_matrices, lattice, CAVITY, 32)
    assert [sec.basis.dimension for sec in result.sectors] == list(range(1, 34))
    assert [m.shape for m in result.raising] == [(k + 1, k) for k in range(1, 33)]


def test_diagonalize_sector(benchmark):
    lattice = LatticeSpec(n_qubits=32, relative_spacing=0.37, omega_q=13.458)
    sector = benchmark(polariton.diagonalize_sector, lattice, CAVITY, 0)
    assert sector.basis.dimension == 17


def test_diagonalize_sector_n4(benchmark):
    lattice = LatticeSpec(n_qubits=4, relative_spacing=2 / 3, omega_q=13.458)
    sector = benchmark(polariton.diagonalize_sector, lattice, CAVITY, 0)
    assert sector.basis.dimension == 3


def test_first_excited_transition(benchmark):
    lattice = LatticeSpec(n_qubits=16, relative_spacing=0.37, omega_q=13.458)
    element = benchmark(polariton.first_excited_transition, lattice, CAVITY)
    assert math.isfinite(element)


def test_closed_form_coefficients(benchmark):
    lattice = LatticeSpec(n_qubits=6, relative_spacing=0.37, omega_q=13.458)
    sector = polariton.diagonalize_sector(lattice, CAVITY, 6)
    splittings = [float(eps) for eps in sector.stark_splittings]

    def every_branch():
        return [
            polariton.closed_form_coefficients(lattice, CAVITY, 6, eps) for eps in splittings
        ]

    columns = benchmark(every_branch)
    assert np.linalg.norm(np.column_stack(columns) - sector.coefficients) < 1e-7
