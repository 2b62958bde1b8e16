"""Brute-force exact numerics in the full qubit-chain x Fock product
space.

The spin terms are read off the qubit basis-index bits at small N, with
no product-space matrix, and serve as an independent check on the
deformed collective-spin model: commutation relations in the 2^N qubit
space, where S_pm = s_pm x 1 act, and exact sector spectra.  Each
excitation sector is built directly as its own block, so no H_total
outside it is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CavitySpec, LatticeSpec, coupling_weights

_MAX_QUBITS = 8
_MAX_FOCK = 12


class DimensionGuardError(ValueError):
    """Requested product space exceeds the supported dense size."""


class TruncationError(ValueError):
    """Requested sector reaches the Fock cutoff; spectrum would be wrong."""


@dataclass(frozen=True)
class ProductSpaceOperators:
    """The chain + cavity problem on the 2^N x (n_max+1) product space,
    index spin*(n_max+1) + photons, held as its spin terms.

    The spin terms are those of `_spin_terms`: the diagonals s_z and
    sigma_z on the 2^N qubit space and the entries (up, down, weight) of
    the weighted s_plus, which carries the site weights cos(j*pi*ell);
    sigma_z is the cos^2-weighted inversion entering its commutator.
    H_total = omega_q*S_z + omega_c*a_dag*a + eta*(S_plus*a + S_minus*a_dag)
    is formed one excitation sector at a time by `_sector_block`.
    """

    lattice: LatticeSpec
    cavity: CavitySpec
    n_max: int
    s_z: np.ndarray
    sigma_z: np.ndarray
    up: np.ndarray
    down: np.ndarray
    weight: np.ndarray

    @property
    def dimension(self) -> int:
        return self.s_z.size * (self.n_max + 1)


@dataclass(frozen=True)
class CommutatorReport:
    """Max-abs residuals of the collective-spin commutation identities."""

    sz_splus: float
    sz_sminus: float
    splus_sminus_sigma: float
    splus_sminus_sz: float | None
    tolerance: float

    @property
    def passed(self) -> bool:
        checks = [self.sz_splus, self.sz_sminus, self.splus_sminus_sigma]
        if self.splus_sminus_sz is not None:
            checks.append(self.splus_sminus_sz)
        return all(c < self.tolerance for c in checks)


def _spin_terms(
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals of s_z and of the cos^2-weighted sigma_z on the 2^N qubit
    space, and the entries (up, down, weight) of the weighted s_plus, read
    off the basis index: bit N-1-j is 0 when site j is up, so site 0 is
    the most significant bit."""
    n = len(weights)
    index = np.arange(2**n)
    s_z = np.zeros(2**n)
    sigma_z = np.zeros(2**n)
    up, down, weight = [], [], []
    for j in range(n):
        bit = 1 << (n - 1 - j)
        is_down = (index & bit) != 0
        site_z = np.where(is_down, -0.5, 0.5)
        s_z += site_z
        sigma_z += weights[j] ** 2 * site_z
        down.append(index[is_down])
        up.append(down[-1] - bit)
        weight.append(np.full(down[-1].size, weights[j]))
    return s_z, sigma_z, np.concatenate(up), np.concatenate(down), np.concatenate(weight)


def build_operators(
    lattice: LatticeSpec, cavity: CavitySpec, n_max: int
) -> ProductSpaceOperators:
    """The spin terms of the chain, for sectors and commutators on the
    product space truncated at n_max photons; no product-space array is
    written."""
    n = lattice.n_qubits
    if n > _MAX_QUBITS or n_max > _MAX_FOCK:
        raise DimensionGuardError(
            f"dense oracle limited to N <= {_MAX_QUBITS}, n_max <= {_MAX_FOCK}"
        )
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    s_z, sigma_z, up, down, weight = _spin_terms(coupling_weights(lattice))
    return ProductSpaceOperators(
        lattice=lattice, cavity=cavity, n_max=n_max,
        s_z=s_z, sigma_z=sigma_z, up=up, down=down, weight=weight,
    )


def _spin_raising(ops: ProductSpaceOperators) -> np.ndarray:
    """The weighted s_plus as a dense 2^N-square qubit-space matrix."""
    s_plus = np.zeros((ops.s_z.size, ops.s_z.size))
    s_plus[ops.up, ops.down] = ops.weight
    return s_plus


def verify_commutators(ops: ProductSpaceOperators, tol: float = 1e-12) -> CommutatorReport:
    """Residuals of [S_z, S_pm] = pm S_pm and [S_plus, S_minus] = 2*Sigma_z;
    at ell = 0 additionally [S_plus, S_minus] = 2*S_z.

    Every operator here acts as x (x) 1 on the photons, so each identity
    holds on the product space exactly when it holds on the 2^N qubit
    space, where the residuals are taken.  s_z is diagonal, so
    [s_z, x] is formed as sz_i*x_ij - x_ij*sz_j with no matrix product.
    This equals the matmul form bit for bit: each entry of a product with
    a diagonal matrix is one rounded product plus exact zeros.  (Rounding
    (sz_i - sz_j)*x_ij instead would give other residuals.)"""
    s_plus = _spin_raising(ops)
    s_minus = s_plus.T
    sz = ops.s_z

    def sz_comm(x):
        return sz[:, None] * x - x * sz[None, :]

    r1 = float(np.max(np.abs(sz_comm(s_plus) - s_plus)))
    r2 = float(np.max(np.abs(sz_comm(s_minus) + s_minus)))
    pm = s_plus @ s_minus - s_minus @ s_plus
    r3 = float(np.max(np.abs(pm - np.diag(2.0 * ops.sigma_z))))
    r4 = None
    if ops.lattice.relative_spacing == 0.0:
        r4 = float(np.max(np.abs(pm - np.diag(2.0 * sz))))
    return CommutatorReport(
        sz_splus=r1, sz_sminus=r2, splus_sminus_sigma=r3, splus_sminus_sz=r4, tolerance=tol
    )


def _sector_block(ops: ProductSpaceOperators, two_u: int) -> np.ndarray:
    """H_total on the excitation-u sector of the product space.

    The basis is every spin state s whose photon number k = u - s_z(s)
    lies in 0..n_max, in ascending spin index, which is the order of the
    product index.  The entries are rounded as in the Kronecker and
    dense-product construction: omega_q*s_z + omega_c*(sqrt(k)*sqrt(k))
    on the diagonal, and eta*(w_j*sqrt(k+1)) between (down_j, k+1) and
    (up_j, k), added onto +0.0 as the dense sum adds it, so the zeros of
    the block stay +0.0 at eta = 0 too.  Refuses an empty sector, and a
    sector whose basis states reach the Fock cutoff, where the truncated
    ladder would corrupt the spectrum."""
    photons = 0.5 * two_u - ops.s_z  # exact: both are multiples of 1/2
    spins = np.flatnonzero((photons >= 0) & (photons <= ops.n_max) & (photons % 1 == 0))
    if spins.size == 0:
        raise ValueError(f"sector 2u={two_u} is empty in the product space")
    if photons[spins].max() >= ops.n_max:
        raise TruncationError(
            f"sector 2u={two_u} touches the Fock cutoff n_max={ops.n_max}"
        )
    ladder = np.sqrt(photons[spins])  # <k-1|a|k> = sqrt(k)
    position = np.full(ops.s_z.size, -1)
    position[spins] = np.arange(spins.size)
    rows, cols = position[ops.up], position[ops.down]
    inside = (rows >= 0) & (cols >= 0)
    rows, cols = rows[inside], cols[inside]
    coupling = 0.0 + ops.cavity.eta * (ops.weight[inside] * ladder[cols])
    block = np.diag(ops.lattice.omega_q * ops.s_z[spins] + ops.cavity.omega_c * (ladder * ladder))
    block[rows, cols] = coupling
    block[cols, rows] = coupling
    return block


def exact_sector_spectrum(ops: ProductSpaceOperators, two_u: int) -> np.ndarray:
    """Eigenvalues of H_total restricted to the excitation-u eigenspace,
    from the block of `_sector_block`."""
    return np.linalg.eigvalsh(_sector_block(ops, two_u))
