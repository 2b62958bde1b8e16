"""Brute-force exact numerics in the full qubit-chain x Fock product
space.

Operators are built at small N by writing their nonzero entries, found
from basis-index bits, into zero arrays, with no product-space matrix
product, and serve as an independent check on the deformed
collective-spin model: commutation relations, Dicke-state structure,
excitation conservation, and exact sector spectra.
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
    """Dense operators on the 2^N x (n_max+1) product space.

    S_plus/S_minus carry the site weights cos(j*pi*ell); Sigma_z is the
    cos^2-weighted inversion entering their commutator.  H_total is the
    full chain + cavity + coupling Hamiltonian in GHz.
    """

    lattice: LatticeSpec
    cavity: CavitySpec
    n_max: int
    S_z: np.ndarray
    S_plus: np.ndarray
    S_minus: np.ndarray
    Sigma_z: np.ndarray
    a: np.ndarray
    a_dagger: np.ndarray
    H_total: np.ndarray

    @property
    def dimension(self) -> int:
        return self.H_total.shape[0]

    # Computed once per operator set; dataclasses.replace makes a new set.
    @functools.cached_property
    def excitation_number(self) -> np.ndarray:
        """Diagonal of S_z + a_dag*a, which is diagonal in the product
        basis (read-only)."""
        number = np.diag(self.S_z) + np.einsum("ki,ki->i", self.a, self.a)
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
    spin*(n_max+1) + photons.

    Each field starts from zeros and receives only its nonzero entries,
    each rounded as in the Kronecker and dense-product construction
    (omega_q*s_z + omega_c*k on the diagonal of H_total,
    eta*(w_j*sqrt(k+1)) off it), so the fields equal that
    construction's.  The coupling is added onto +0.0, as there, so the
    zeros of H_total stay +0.0 at eta = 0 too."""
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
    dim = 2**n * dim_fock
    photons = np.arange(dim_fock)
    ladder = np.sqrt(photons)  # <k-1|a|k> = sqrt(k)
    S_z, S_plus, S_minus, Sigma_z, A, A_dag, H = (np.zeros((dim, dim)) for _ in range(7))

    s_z_diag = np.repeat(s_z, dim_fock)
    np.fill_diagonal(S_z, s_z_diag)
    np.fill_diagonal(Sigma_z, np.repeat(sigma_z, dim_fock))
    np.fill_diagonal(
        H, lattice.omega_q * s_z_diag + cavity.omega_c * np.tile(ladder * ladder, 2**n)
    )

    # a lowers the photon number at fixed spin: <s, k-1|a|s, k> = sqrt(k).
    fock_to = (np.arange(2**n)[:, None] * dim_fock + photons[None, :-1]).ravel()
    A[fock_to, fock_to + 1] = np.tile(ladder[1:], 2**n)
    A_dag[fock_to + 1, fock_to] = A[fock_to, fock_to + 1]

    # S_plus raises one site at fixed photon number.
    spin_to = (up[:, None] * dim_fock + photons[None, :]).ravel()
    spin_from = (down[:, None] * dim_fock + photons[None, :]).ravel()
    S_plus[spin_to, spin_from] = np.repeat(weight, dim_fock)
    S_minus[spin_from, spin_to] = S_plus[spin_to, spin_from]

    # S_plus*a takes (down, k+1) to (up, k) with weight_j*sqrt(k+1).
    to = (up[:, None] * dim_fock + photons[None, :-1]).ravel()
    frm = (down[:, None] * dim_fock + photons[None, 1:]).ravel()
    coupling = cavity.eta * (weight[:, None] * ladder[None, 1:]).ravel()
    H[to, frm] += coupling
    H[frm, to] += coupling
    return ProductSpaceOperators(
        lattice=lattice,
        cavity=cavity,
        n_max=n_max,
        S_z=S_z,
        S_plus=S_plus,
        S_minus=S_minus,
        Sigma_z=Sigma_z,
        a=A,
        a_dagger=A_dag,
        H_total=H,
    )


def verify_commutators(ops: ProductSpaceOperators, tol: float = 1e-12) -> CommutatorReport:
    """Residuals of [S_z, S_pm] = pm S_pm and [S_plus, S_minus] = 2*Sigma_z;
    at ell = 0 additionally [S_plus, S_minus] = 2*S_z."""

    def comm(x, y):
        return x @ y - y @ x

    r1 = float(np.max(np.abs(comm(ops.S_z, ops.S_plus) - ops.S_plus)))
    r2 = float(np.max(np.abs(comm(ops.S_z, ops.S_minus) + ops.S_minus)))
    pm = comm(ops.S_plus, ops.S_minus)
    r3 = float(np.max(np.abs(pm - 2.0 * ops.Sigma_z)))
    r4 = None
    if ops.lattice.relative_spacing == 0.0:
        r4 = float(np.max(np.abs(pm - 2.0 * ops.S_z)))
    return CommutatorReport(
        sz_splus=r1, sz_sminus=r2, splus_sminus_sigma=r3, splus_sminus_sz=r4, tolerance=tol
    )


def excitation_conservation_residual(ops: ProductSpaceOperators) -> float:
    """Max-abs norm of [H_total, S_z + a_dag*a], entries H_ij*(n_j - n_i).

    Only the nonzero H_ij can give a nonzero entry, so only they are
    formed, with no dense temporary."""
    number = ops.excitation_number
    rows, cols = np.nonzero(ops.H_total)
    commutator = ops.H_total[rows, cols] * (number[cols] - number[rows])
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
    """Diagonal matrix elements <r,m|S_plus|r,m> in the qubit space, read
    from the photon-vacuum block of S_plus."""
    s_plus_spin = np.ascontiguousarray(ops.S_plus[:: ops.n_max + 1, :: ops.n_max + 1])
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

    Refuses sectors whose basis states reach the Fock cutoff, where the
    truncated ladder would corrupt the spectrum.
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
    block = ops.H_total[np.ix_(idx, idx)]
    return np.linalg.eigvalsh(block)
