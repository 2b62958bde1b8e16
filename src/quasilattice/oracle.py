"""Brute-force exact numerics in the full qubit-chain x Fock product
space.

Operators are built at small N as their nonzero entries, found from
basis-index bits, with no product-space matrix product, and serve as an
independent check on the deformed collective-spin model: commutation
relations, Dicke-state structure, excitation conservation, and exact
sector spectra.  Excitation conservation and the sector spectra read
only the nonzeros of H_total; each dense field is formed on first read,
for the commutators and as a reference.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    """Operators on the 2^N x (n_max+1) product space, index
    spin*(n_max+1) + photons, held as their nonzeros.

    The spin terms are those of `_spin_terms`: the diagonals s_z and
    sigma_z on the 2^N qubit space and the entries (up, down, weight) of
    the weighted s_plus.  H_total, the full chain + cavity + coupling
    Hamiltonian in GHz, is held as its nonzero triplets (h_rows, h_cols,
    h_values).

    The dense fields S_z, S_plus, S_minus, Sigma_z, a, a_dagger and
    H_total are formed on first read and kept, read-only.  S_plus/S_minus
    carry the site weights cos(j*pi*ell); Sigma_z is the cos^2-weighted
    inversion entering their commutator.
    """

    lattice: LatticeSpec
    cavity: CavitySpec
    n_max: int
    s_z: np.ndarray
    sigma_z: np.ndarray
    up: np.ndarray
    down: np.ndarray
    weight: np.ndarray
    h_rows: np.ndarray
    h_cols: np.ndarray
    h_values: np.ndarray

    @property
    def dimension(self) -> int:
        return self.s_z.size * (self.n_max + 1)

    def _dense(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
        field = np.zeros((self.dimension, self.dimension))
        field[rows, cols] = values
        field.flags.writeable = False
        return field

    def _diagonal(self, spin_diagonal: np.ndarray) -> np.ndarray:
        index = np.arange(self.dimension)
        return self._dense(index, index, np.repeat(spin_diagonal, self.n_max + 1))

    def _spin_raisings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Product indices (to, from) and values of the entries of S_plus,
        which raises one site at fixed photon number."""
        dim_fock = self.n_max + 1
        photons = np.arange(dim_fock)
        to = (self.up[:, None] * dim_fock + photons).ravel()
        frm = (self.down[:, None] * dim_fock + photons).ravel()
        return to, frm, np.repeat(self.weight, dim_fock)

    def _photon_lowerings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Product indices (to, from) and values of the entries of a, which
        lowers the photon number at fixed spin: <s, k-1|a|s, k> = sqrt(k)."""
        dim_fock = self.n_max + 1
        to = (np.arange(self.s_z.size)[:, None] * dim_fock + np.arange(self.n_max)).ravel()
        ladder = np.sqrt(np.arange(dim_fock))
        return to, to + 1, np.tile(ladder[1:], self.s_z.size)

    # Each computed once per operator set; dataclasses.replace makes a new set.
    @functools.cached_property
    def S_z(self) -> np.ndarray:
        return self._diagonal(self.s_z)

    @functools.cached_property
    def Sigma_z(self) -> np.ndarray:
        return self._diagonal(self.sigma_z)

    @functools.cached_property
    def S_plus(self) -> np.ndarray:
        return self._dense(*self._spin_raisings())

    @functools.cached_property
    def S_minus(self) -> np.ndarray:
        to, frm, values = self._spin_raisings()
        return self._dense(frm, to, values)

    @functools.cached_property
    def a(self) -> np.ndarray:
        return self._dense(*self._photon_lowerings())

    @functools.cached_property
    def a_dagger(self) -> np.ndarray:
        to, frm, values = self._photon_lowerings()
        return self._dense(frm, to, values)

    @functools.cached_property
    def H_total(self) -> np.ndarray:
        return self._dense(self.h_rows, self.h_cols, self.h_values)

    @functools.cached_property
    def excitation_number(self) -> np.ndarray:
        """Diagonal of S_z + a_dag*a, which is diagonal in the product
        basis (read-only)."""
        number = np.repeat(self.s_z, self.n_max + 1) + np.tile(
            np.arange(self.n_max + 1), self.s_z.size
        )
        number.flags.writeable = False
        return number

    @functools.cached_property
    def conservation_residual(self) -> float:
        """``excitation_conservation_residual`` of this operator set."""
        return excitation_conservation_residual(self)


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
    off the basis index: bit N-1-j is 0 when site j is up, the order of
    `dicke_basis`."""
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
    """Collective operators and H_total = omega_q*S_z + omega_c*a_dag*a
    + eta*(S_plus*a + S_minus*a_dag) on the product basis, index
    spin*(n_max+1) + photons, as their nonzeros; no product-space array
    is written.

    The nonzeros of H_total are rounded as in the Kronecker and
    dense-product construction (omega_q*s_z + omega_c*k on the diagonal,
    eta*(w_j*sqrt(k+1)) off it), so the dense fields equal that
    construction's.  The coupling is stored added onto +0.0, as the dense
    sum adds it, so the zeros of H_total stay +0.0 at eta = 0 too."""
    n = lattice.n_qubits
    if n > _MAX_QUBITS or n_max > _MAX_FOCK:
        raise DimensionGuardError(
            f"dense oracle limited to N <= {_MAX_QUBITS}, n_max <= {_MAX_FOCK}"
        )
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    weights = coupling_weights(lattice)
    s_z, sigma_z, up, down, weight = _spin_terms(weights)

    dim_fock = n_max + 1
    photons = np.arange(dim_fock)
    ladder = np.sqrt(photons)  # <k-1|a|k> = sqrt(k)
    diagonal = np.arange(2**n * dim_fock)
    energies = lattice.omega_q * np.repeat(s_z, dim_fock) + cavity.omega_c * np.tile(
        ladder * ladder, 2**n
    )
    # S_plus*a takes (down, k+1) to (up, k) with weight_j*sqrt(k+1).
    to = (up[:, None] * dim_fock + photons[None, :-1]).ravel()
    frm = (down[:, None] * dim_fock + photons[None, 1:]).ravel()
    coupling = 0.0 + cavity.eta * (weight[:, None] * ladder[None, 1:]).ravel()
    return ProductSpaceOperators(
        lattice=lattice,
        cavity=cavity,
        n_max=n_max,
        s_z=s_z,
        sigma_z=sigma_z,
        up=up,
        down=down,
        weight=weight,
        h_rows=np.concatenate([diagonal, to, frm]),
        h_cols=np.concatenate([diagonal, frm, to]),
        h_values=np.concatenate([energies, coupling, coupling]),
    )


def verify_commutators(ops: ProductSpaceOperators, tol: float = 1e-12) -> CommutatorReport:
    """Residuals of [S_z, S_pm] = pm S_pm and [S_plus, S_minus] = 2*Sigma_z;
    at ell = 0 additionally [S_plus, S_minus] = 2*S_z.

    S_z is diagonal, so [S_z, X] is formed as sz_i*X_ij - X_ij*sz_j with
    no matrix product.  This equals the matmul form bit for bit: each
    entry of a product with a diagonal matrix is one rounded product
    plus exact zeros.  (Rounding (sz_i - sz_j)*X_ij instead would give
    other residuals.)"""
    sz = np.repeat(ops.s_z, ops.n_max + 1)

    def sz_comm(x):
        return sz[:, None] * x - x * sz[None, :]

    r1 = float(np.max(np.abs(sz_comm(ops.S_plus) - ops.S_plus)))
    r2 = float(np.max(np.abs(sz_comm(ops.S_minus) + ops.S_minus)))
    pm = ops.S_plus @ ops.S_minus - ops.S_minus @ ops.S_plus
    r3 = float(np.max(np.abs(pm - 2.0 * ops.Sigma_z)))
    r4 = None
    if ops.lattice.relative_spacing == 0.0:
        r4 = float(np.max(np.abs(pm - 2.0 * ops.S_z)))
    return CommutatorReport(
        sz_splus=r1, sz_sminus=r2, splus_sminus_sigma=r3, splus_sminus_sz=r4, tolerance=tol
    )


def excitation_conservation_residual(ops: ProductSpaceOperators) -> float:
    """Max-abs norm of [H_total, S_z + a_dag*a], entries H_ij*(n_j - n_i).

    Only the nonzero H_ij can give a nonzero entry, so only the stored
    triplets are read, with no dense temporary."""
    number = ops.excitation_number
    commutator = ops.h_values * (number[ops.h_cols] - number[ops.h_rows])
    return float(np.max(np.abs(commutator), initial=0.0))


def dicke_basis(n_qubits: int) -> dict[int, np.ndarray]:
    """Fully symmetric spin states keyed by twice the projection 2m.

    Each vector lives in the 2^N qubit space with equal amplitude
    1/sqrt(C(N, n_up)) on every configuration of n_up excited sites,
    i.e. the normalized permutation sum.
    """
    states: dict[int, np.ndarray] = {}
    for n_up in range(n_qubits + 1):
        vec = np.zeros(2**n_qubits)
        amp = 1.0 / math.sqrt(math.comb(n_qubits, n_up))
        for sites in itertools.combinations(range(n_qubits), n_up):
            idx = 0
            for j in range(n_qubits):
                idx = 2 * idx + (0 if j in sites else 1)
            vec[idx] = amp
        states[2 * n_up - n_qubits] = vec
    return states


def dicke_diagonal_elements(ops: ProductSpaceOperators) -> np.ndarray:
    """Diagonal matrix elements <r,m|S_plus|r,m> in the qubit space, with
    the weighted s_plus formed from the spin terms."""
    s_plus_spin = np.zeros((ops.s_z.size, ops.s_z.size))
    s_plus_spin[ops.up, ops.down] = ops.weight
    basis = dicke_basis(ops.lattice.n_qubits)
    return np.array([v @ s_plus_spin @ v for _, v in sorted(basis.items())])


def sector_indices(ops: ProductSpaceOperators, two_u: int) -> np.ndarray:
    """Product-basis indices with total excitation number u.

    The conserved operator S_z + a_dag*a is diagonal in the product
    basis; its eigenvalue on each basis state selects the sector.
    """
    number = ops.excitation_number
    return np.nonzero(np.abs(2.0 * number - two_u) < 1e-9)[0]


def exact_sector_spectrum(ops: ProductSpaceOperators, two_u: int) -> np.ndarray:
    """Eigenvalues of H_total restricted to the excitation-u eigenspace.

    The block is scattered from the triplets of H_total whose row and
    column both lie in the sector, so it equals H_total[np.ix_(idx, idx)]
    entry for entry.  Refuses sectors whose basis states reach the Fock
    cutoff, where the truncated ladder would corrupt the spectrum.
    """
    residual = ops.conservation_residual
    if residual > 1e-12:
        raise RuntimeError(
            f"H_total does not conserve the excitation number (residual {residual:.3e})"
        )
    idx = sector_indices(ops, two_u)
    if idx.size == 0:
        raise ValueError(f"sector 2u={two_u} is empty in the product space")
    dim_fock = ops.n_max + 1
    photon = idx % dim_fock
    if np.any(photon >= ops.n_max):
        raise TruncationError(
            f"sector 2u={two_u} touches the Fock cutoff n_max={ops.n_max}"
        )
    position = np.full(ops.dimension, -1)
    position[idx] = np.arange(idx.size)
    rows, cols = position[ops.h_rows], position[ops.h_cols]
    inside = (rows >= 0) & (cols >= 0)
    block = np.zeros((idx.size, idx.size))
    block[rows[inside], cols[inside]] = ops.h_values[inside]
    return np.linalg.eigvalsh(block)
