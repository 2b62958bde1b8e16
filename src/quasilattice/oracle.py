"""Brute-force exact numerics in the full qubit-chain x Fock product
space.

The spin terms are read off the qubit basis-index bits, with no
product-space matrix, and serve as an independent check on the deformed
collective-spin model: commutation relations in the 2^N qubit space,
where S_pm = s_pm x 1 act, and exact sector spectra.  Each excitation
sector is built directly as its own block, so no H_total outside it is
ever formed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import CavitySpec, LatticeSpec, coupling_weights, refuse_sweep

_MAX_QUBITS = 8


class DimensionGuardError(ValueError):
    """N exceeds 8, the bound of the dense 2^N-square s_plus of `verify_commutators`."""


class TruncationError(ValueError):
    """Requested sector reaches the Fock cutoff; spectrum would be wrong."""


@dataclass(frozen=True)
class ProductSpaceOperators:
    """The chain + cavity problem on the 2^N x (n_max+1) product space,
    index spin*(n_max+1) + photons, held as the spin terms `_sector_block`
    reads: the diagonal s_z on the 2^N qubit space and the entries (up,
    down, weight) of the weighted s_plus, whose weights are cos(j*pi*ell).
    H_total = omega_q*S_z + omega_c*a_dag*a + eta*(S_plus*a + S_minus*a_dag)
    is formed one excitation sector at a time by `_sector_block`.
    """

    lattice: LatticeSpec
    cavity: CavitySpec
    n_max: int
    s_z: np.ndarray
    up: np.ndarray
    down: np.ndarray
    weight: np.ndarray

    @property  # no src reader: perfbench's traced runs record it per build_operators call
    def dimension(self) -> int:
        return self.s_z.size * (self.n_max + 1)


@dataclass(frozen=True)
class CommutatorReport:
    """Max-abs residuals of the collective-spin commutation identities;
    `validation.check_commutators` judges them."""

    sz_splus: float
    sz_sminus: float
    splus_sminus_sigma: float
    splus_sminus_sz: float | None


@functools.cache
def _site_pattern(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The part of the spin terms that depends on N only, read-only: the
    diagonal of s_z, the inversions site_z[j] = +-1/2 of each site, and
    the entries (up, down) of s_plus, site by site, read off the basis
    index: bit N-1-j is 0 when site j is up, so site 0 is the most
    significant bit."""
    index = np.arange(2**n)
    site_z = np.empty((n, 2**n))
    up, down = [], []
    for j in range(n):
        bit = 1 << (n - 1 - j)
        is_down = (index & bit) != 0
        site_z[j] = np.where(is_down, -0.5, 0.5)
        down.append(index[is_down])
        up.append(down[-1] - bit)
    # every partial sum of halves is exact, so any order gives these s_z
    pattern = (site_z.sum(axis=0), site_z, np.concatenate(up), np.concatenate(down))
    for array in pattern:
        array.flags.writeable = False
    return pattern


def build_operators(
    lattice: LatticeSpec, cavity: CavitySpec, n_max: int
) -> ProductSpaceOperators:
    """The spin terms of the chain, for the sectors of the product space
    truncated at n_max photons; no product-space array is written.  s_z,
    up and down depend on N only (`_site_pattern`); weight gets one row
    per point of a sweep."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    n = lattice.n_qubits
    s_z, _, up, down = _site_pattern(n)
    weight = np.repeat(coupling_weights(lattice), 2 ** (n - 1), axis=-1)
    return ProductSpaceOperators(
        lattice=lattice, cavity=cavity, n_max=n_max, s_z=s_z, up=up, down=down, weight=weight
    )


def verify_commutators(lattice: LatticeSpec) -> CommutatorReport:
    """Residuals of [S_z, S_pm] = pm S_pm and [S_plus, S_minus] = 2*Sigma_z;
    at ell = 0 additionally [S_plus, S_minus] = 2*S_z.  For a sweep each
    residual is the worst over its points, the last over its points at
    ell = 0 only (None when it has none); N > 8 raises DimensionGuardError.
    Each w_j^2 of Sigma_z is libm's pow, as the scalar w_j**2 rounds.

    Every operator here acts as x (x) 1 on the photons, so each identity
    holds on the product space exactly when it holds on the 2^N qubit
    space, where the residuals are taken.  s_z is diagonal, so
    [s_z, x] is formed as sz_i*x_ij - x_ij*sz_j with no matrix product.
    This equals the matmul form bit for bit: each entry of a product with
    a diagonal matrix is one rounded product plus exact zeros.  (Rounding
    (sz_i - sz_j)*x_ij instead would give other residuals.)  Off the
    entries of x that residual is an exact +-0, so it is read on them
    only.  [S_plus, S_minus] is formed point by point in one 2^N-square
    s_plus buffer, whose entries each point writes anew."""
    n = lattice.n_qubits
    if n > _MAX_QUBITS:
        raise DimensionGuardError(f"commutator check limited to N <= {_MAX_QUBITS}")
    sz, site_z, up, down = _site_pattern(n)
    weights = coupling_weights(lattice)
    w = np.repeat(weights, 2 ** (n - 1), axis=-1)
    squares = np.float_power(weights, 2)
    sigma_z = np.zeros(weights.shape[:-1] + (2**n,))
    for j in range(n):
        sigma_z += squares[..., j, None] * site_z[j]
    r1 = float(np.max(np.abs(sz[up] * w - w * sz[down] - w), initial=0.0))
    r2 = float(np.max(np.abs(sz[down] * w - w * sz[up] + w), initial=0.0))
    r3, r4 = 0.0, None
    s_plus = np.zeros((sz.size, sz.size))
    ells = np.ravel(lattice.relative_spacing)
    for ell, sigma, weight in zip(ells, np.atleast_2d(sigma_z), np.atleast_2d(w)):
        s_plus[up, down] = weight
        pm = s_plus @ s_plus.T - s_plus.T @ s_plus
        r3 = max(r3, float(np.max(np.abs(pm - np.diag(2.0 * sigma)))))
        if ell == 0.0:
            r4 = max(r4 or 0.0, float(np.max(np.abs(pm - np.diag(2.0 * sz)))))
    return CommutatorReport(sz_splus=r1, sz_sminus=r2, splus_sminus_sigma=r3, splus_sminus_sz=r4)


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
    from the block of `_sector_block`; one lattice and one cavity only."""
    refuse_sweep("exact_sector_spectrum", ops.lattice, ops.cavity)
    return np.linalg.eigvalsh(_sector_block(ops, two_u))
