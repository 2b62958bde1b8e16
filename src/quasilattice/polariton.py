"""Excitation-number blocks of the dressed qubit-chain + cavity system.

The coupled Hamiltonian conserves the total excitation number u = n + m
(photon number n plus spin projection m), so it splits into finite
tridiagonal blocks.  Each block is diagonalized for the polariton
branches; the closed-form coefficient expansion is kept as a cross-check
of the eigensolver.  Excitation numbers and spin projections can be
half-integers for odd N, so they are carried as doubled integers.
Every block and raising element reads the deformation factor f from
the lattice (``deformation_factor``), which forms it once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import CavitySpec, LatticeSpec, deformation_factor, paired_length, refuse_sweep


class EmptySectorError(ValueError):
    """Requested excitation sector contains no basis states."""


class DegenerateDetuningError(ValueError):
    """Closed-form coefficient denominator eps - j*detuning vanished."""


@dataclass(frozen=True)
class SectorBasis:
    """Ordered basis of one excitation sector.

    two_u: twice the total excitation number u.
    entries: (n, two_m) pairs with m = u - n, sorted by ascending photon
        number n.
    """

    two_u: int
    entries: tuple[tuple[int, int], ...]

    @property
    def dimension(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class PolaritonSector:
    """Diagonalized excitation sector.

    eigenvalues: branch frequencies Omega (GHz), ascending.
    coefficients: column b holds the expansion of branch b over the
        sector basis, unit norm, gauge-fixed so the photon-vacuum
        coefficient is nonnegative.
    stark_splittings: interaction eigenvalues eps = Omega - u*omega_q.
        They are formed by subtracting u*omega_q from Omega, so their
        error is about machine epsilon times |Omega| in absolute terms,
        not relative to eps: a small eps in a high sector carries only a
        few correct digits.
    """

    basis: SectorBasis
    eigenvalues: np.ndarray
    coefficients: np.ndarray
    stark_splittings: np.ndarray


@dataclass(frozen=True)
class TransitionMatrices:
    """A ladder of diagonalized sectors and the collective raising
    elements between neighbours.

    sectors: the sectors 2u = -2r, -2r + 2, ..., in ascending order.
    raising: raising[i] is ``raising_matrix`` from sectors[i] into
        sectors[i + 1], indexed (branch_upper, branch_lower).  The
        coefficients are real, so the lowering elements are its
        transpose; same-sector elements vanish identically.
    """

    sectors: tuple[PolaritonSector, ...]
    raising: tuple[np.ndarray, ...]


def sector_basis(lattice: LatticeSpec, two_u: int) -> SectorBasis:
    """Enumerate (n, m) combinations with n + m = u, sorted by n."""
    return _sector_terms(lattice.two_r, two_u)[0]


@functools.cache
def _sector_terms(two_r: int, two_u: int) -> tuple[SectorBasis, np.ndarray]:
    """The basis of sector 2u at 2r, and the rows n, m, sqrt(n), r - m and
    r + m + 1 over its entries, read-only; formed once per (2r, 2u)."""
    if two_u < -two_r:
        raise EmptySectorError(f"sector 2u={two_u} lies below the ground sector 2u={-two_r}")
    if (two_u - two_r) % 2 != 0:
        raise EmptySectorError(f"sector 2u={two_u} has the wrong parity for 2r={two_r}")
    # m = u - n must satisfy -r <= m <= r and n >= 0.
    n_lo = max(0, (two_u - two_r) // 2)
    n_hi = (two_u + two_r) // 2
    entries = tuple((n, two_u - 2 * n) for n in range(n_lo, n_hi + 1))
    terms = np.array([
        (n, two_m / 2.0, math.sqrt(n), (two_r - two_m) / 2.0, (two_r + two_m) / 2.0 + 1.0)
        for n, two_m in entries
    ]).T
    terms.flags.writeable = False
    return SectorBasis(two_u=two_u, entries=entries), terms


def build_sector_hamiltonian(lattice: LatticeSpec, cavity: CavitySpec, two_u: int) -> np.ndarray:
    """Dense real symmetric block Hamiltonian of one excitation sector, GHz;
    for a sweep (``paired_length``), a stack of them with a leading point axis.

    Diagonal entries are the bare energies omega_q*m + omega_c*n; the
    single off-diagonal couples (n, m) to (n-1, m+1) with strength
    eta*sqrt(n)*sqrt(f*(r-m)*(r+m+1)).  A bare energy or a coupling that
    overflows at any point raises ValueError.
    """
    basis, (n, m, sqrt_n, rm, rm1) = _sector_terms(lattice.two_r, two_u)
    paired_length(lattice, cavity)
    d = basis.dimension
    fields = (lattice.omega_q, deformation_factor(lattice), cavity.omega_c, cavity.eta)
    omega_q, f, omega_c, eta = (np.asarray(x)[..., None] for x in fields)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        diagonal = omega_q * m + omega_c * n
        off = eta * sqrt_n[1:] * np.sqrt(f * rm[1:] * rm1[1:])
    if not np.isfinite(diagonal).all():
        raise ValueError("a bare sector energy omega_q*m + omega_c*n overflows")
    if not np.isfinite(off).all():
        raise ValueError("a sector coupling eta*sqrt(n)*sqrt(f*(r-m)*(r+m+1)) overflows")
    h = np.zeros(diagonal.shape[:-1] + (d * d,))
    h[..., :: d + 1] = diagonal
    h[..., 1 :: d + 1] = off  # the superdiagonal and the subdiagonal of each block
    h[..., d :: d + 1] = off
    return h.reshape(h.shape[:-1] + (d, d))


def diagonalize_sector(lattice: LatticeSpec, cavity: CavitySpec, two_u: int) -> PolaritonSector:
    """Polariton branches of one sector, eigenvalues ascending.

    The dense block of ``build_sector_hamiltonian`` goes to
    ``np.linalg.eigh`` (LAPACK ``syevd``).  A block has dimension at
    most N+1, so the O(n^3) dense solve stays small, and numpy alone
    serves it.  Coefficient columns carry the gauge c_0 >= 0 (first
    nonzero entry nonnegative for decoupled cases where c_0 = 0).  A
    bare energy omega_q*m + omega_c*n or a coupling that overflows raises
    ValueError before any eigensolve, and a splitting Omega - u*omega_q
    that overflows after it; a LAPACK failure, or a non-finite eigenvalue
    or coefficient, raises RuntimeError.

    For a sweep, eigh solves the stack of its blocks at once, block by
    block as for each point alone, and the sector's arrays gain a leading
    point axis.
    """
    basis = sector_basis(lattice, two_u)
    h = build_sector_hamiltonian(lattice, cavity, two_u)
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"sector 2u={two_u} eigensolver failed: {exc}") from exc
    if not (np.isfinite(vals).all() and np.isfinite(vecs).all()):
        raise RuntimeError(
            f"sector 2u={two_u} produced non-finite eigenvalues or coefficients"
        )
    # the first entry above 1e-14 of each column fixes its sign
    first = (np.abs(vecs) > 1e-14).argmax(axis=-2)[..., None, :]
    vecs *= np.copysign(1.0, np.take_along_axis(vecs, first, axis=-2))
    with np.errstate(over="ignore"):  # u*omega_q can overflow when u > r; raised below
        eps = vals - np.asarray(lattice.omega_q)[..., None] * (two_u / 2.0)
    if not np.isfinite(eps).all():
        raise ValueError(f"sector 2u={two_u} splitting Omega - u*omega_q overflows")
    return PolaritonSector(
        basis=basis, eigenvalues=vals, coefficients=vecs, stark_splittings=eps
    )


@functools.cache
def _descending_index_sets(n_top: int, q: int, low: int = 0) -> tuple[tuple[int, ...], ...]:
    """Index tuples j_1 > ... > j_q in {low..n_top} with pairwise gaps >= 2,
    ordered as their reversals are by itertools.combinations."""
    if q == 0:
        return ((),)
    return tuple(
        rest + (j,)
        for j in range(low, n_top - 2 * q + 3)
        for rest in _descending_index_sets(n_top, q - 1, j + 2)
    )


def _refine_splitting(
    dw: float, eta: float, f: float, basis: SectorBasis, two_r: int, eps: float
) -> float:
    """Newton-polish eps onto the nearest root of the sector's own
    interaction matrix, in exact arithmetic on scaled integers.

    The matrix has diagonal n*dw and squared off-diagonals
    b_n^2 = eta^2*n*f*(r-m)*(r+m+1), built from the same floats dw, eta
    and f that the expansion uses.  Every float is a dyadic rational
    num/2^k, so with S = 2^s large enough that S*(n*dw - eps) and
    S^2*b_n^2 are integers, the continuant p_k and its derivative p'_k
    are carried exactly as the integers P_k = S^(k+1)*p_k and
    D_k = S^(k+1)*p'_k.  The Newton step eps - p/p' is the single
    quotient (eps_num*D - P*2^k_eps)/(D*2^k_eps) of two integers, which
    Python's int/int true division rounds correctly to float.  That is
    the one rounding a rational evaluation makes too (``float`` of a
    ``Fraction`` is the same int/int division), so each step gives the
    same float.  NaN eps raises ValueError and infinite eps
    OverflowError, from ``float.as_integer_ratio``.
    """
    dw_num, dw_den = dw.as_integer_ratio()
    eta_num, eta_den = eta.as_integer_ratio()
    f_num, f_den = f.as_integer_ratio()
    k_dw = dw_den.bit_length() - 1
    # b_n^2 = off_n / 2^k_off, off_n = eta_num^2*f_num*n*(2r-2m)*(2r+2m+2)
    k_off = 2 * (eta_den.bit_length() - 1) + (f_den.bit_length() - 1) + 2
    c = eta_num * eta_num * f_num
    off = [c * n * (two_r - two_m) * (two_r + two_m + 2) for n, two_m in basis.entries[1:]]
    for _ in range(3):
        x_num, x_den = eps.as_integer_ratio()
        k_x = x_den.bit_length() - 1
        s = max(k_dw, k_x, (k_off + 1) // 2)
        scaled_dw = dw_num << (s - k_dw)
        scaled_x = x_num << (s - k_x)
        diag = [n * scaled_dw - scaled_x for n, _ in basis.entries]  # S*(n*dw - eps)
        shift = 2 * s - k_off
        p_prev, p = 1, diag[0]
        dp_prev, dp = 0, -(1 << s)
        for d, off_n in zip(diag[1:], off):
            b2 = off_n << shift  # S^2 * b_n^2
            p_prev, p, dp_prev, dp = (
                p,
                d * p - b2 * p_prev,
                dp,
                d * dp - (p << s) - b2 * dp_prev,
            )
        if dp == 0:
            break
        if dp < 0:  # a positive denominator, as a Fraction has: an exact 0 is +0.0
            p, dp = -p, -dp
        new = (x_num * dp - (p << k_x)) / (dp << k_x)
        if new == eps:
            break
        eps = new
    return eps


def closed_form_coefficients(
    lattice: LatticeSpec,
    cavity: CavitySpec,
    two_u: int,
    eps: float,
) -> np.ndarray:
    """Branch coefficients from the recursive product/multi-sum expansion.

    eps is the interaction eigenvalue of the chosen branch (from
    ``diagonalize_sector``).  The expansion is evaluated term by term and
    normalized; it must agree with the eigensolver column.  Odd photon
    numbers truncate the lattice-excitation sum at floor(n/2).

    The expansion is a forward recurrence on a tridiagonal eigenvector,
    so its smallest entries amplify an error in eps by up to about 1e8
    (Parlett, The Symmetric Eigenvalue Problem, sec. 7), while
    ``stark_splittings`` is only accurate to about machine epsilon times
    |Omega|.  eps is therefore first refined by Newton steps to the
    nearest root of the sector's own interaction matrix, built from the
    same dw, eta and f as the expansion (``_refine_splitting``: each
    step is exact and rounds once, to float).
    """
    refuse_sweep("closed_form_coefficients", lattice, cavity)
    basis = sector_basis(lattice, two_u)
    two_r = lattice.two_r
    if two_u > two_r:
        raise ValueError(
            "closed-form expansion only covers sectors with u <= r; use "
            "diagonalize_sector for higher sectors"
        )
    r = two_r / 2.0
    u = two_u / 2.0
    f = deformation_factor(lattice)
    dw = cavity.detuning(lattice)
    eta = cavity.eta

    if basis.dimension == 1:
        return np.ones(1)
    if eta == 0.0:
        # Decoupled limit: the branch is a bare basis state picked by eps.
        diag = np.array([dw * n for n, _ in basis.entries])
        col = np.zeros(basis.dimension)
        col[int(np.argmin(np.abs(diag - eps)))] = 1.0
        return col

    eps = _refine_splitting(dw, eta, f, basis, two_r, eps)
    d = basis.dimension
    for j in range(1, d):
        if abs(eps - j * dw) < 1e-12 * max(1.0, abs(eps)):
            raise DegenerateDetuningError(f"eps - {j}*detuning vanishes for sector 2u={two_u}")
    factors = [  # the factor of index jk in a term of the multi-sum
        -(eta**2) * (jk + 1) * (r + u - jk) / (eps - jk * dw)
        * (r - u + jk + 1) / (eps - (jk + 1) * dw)
        for jk in range(d - 2)
    ]
    coeffs = np.empty(d)
    # row n is n photons above the sector's lowest; the products of rows
    # 0..n-1 carry on, in the order a restart from 1.0 would round them
    prefactor, falling, rising = 1.0, 1.0, 1.0
    for n in range(d):
        if n:
            prefactor *= (eps - (n - 1) * dw) / eta
            falling *= r + u - (n - 1)
            rising *= r - u + 1.0 + (n - 1)
        total = 0.0
        for q in range(n // 2 + 1):
            part = 0.0
            for desc in _descending_index_sets(n - 2, q):
                term = 1.0
                for jk in desc:
                    term *= factors[jk]
                part += term
            total += f ** (q - n / 2.0) * part
        coeffs[n] = prefactor / math.sqrt(math.factorial(n) * falling * rising) * total
    coeffs /= np.linalg.norm(coeffs)
    lead = coeffs[np.nonzero(np.abs(coeffs) > 1e-14)[0][0]]
    if lead < 0:
        coeffs = -coeffs
    return coeffs


def raising_matrix(
    lattice: LatticeSpec, upper: PolaritonSector, lower: PolaritonSector
) -> np.ndarray:
    """Collective raising elements from every branch of sector u-1 into
    every branch of sector u, as a dim_u x dim_(u-1) matrix indexed
    (branch_upper, branch_lower); for a sweep and the sectors
    ``diagonalize_sector`` gives for it, a stack with a leading point axis.

    The basis states of the two sectors that share a photon number n are
    joined by the ladder amplitude sqrt(f*(r+u-n)*(r-u+n+1)); their
    coefficient outer products are accumulated in ascending n, so every
    entry is rounded as a per-element sum over n would be.
    """
    if upper.basis.two_u != lower.basis.two_u + 2:
        raise ValueError("raising element requires adjacent sectors u and u-1")
    u, r = upper.basis.two_u / 2.0, lattice.two_r / 2.0
    # every photon number of sector u but its highest is one of sector u-1
    d = upper.basis.dimension - 1
    n_lo = upper.basis.entries[0][0]
    j = n_lo - lower.basis.entries[0][0]  # the entry of n_lo in sector u-1
    n = np.arange(n_lo, n_lo + d)
    amp = np.sqrt(np.asarray(deformation_factor(lattice))[..., None] * (r + u - n) * (r - u + n + 1))
    outer = upper.coefficients[..., :d, :, None] * lower.coefficients[..., j : j + d, None, :]
    return np.add.reduce(outer * amp[..., None, None], axis=-3, initial=0.0)


def raising_element(
    lattice: LatticeSpec,
    upper: PolaritonSector,
    lower: PolaritonSector,
    branch_upper: int,
    branch_lower: int,
) -> float | np.ndarray:
    """Collective raising element from a branch of sector u-1 into u: one
    entry of ``raising_matrix``, per point for a sweep."""
    # [()] turns the 0-d entry of one lattice into a scalar
    return raising_matrix(lattice, upper, lower)[..., branch_upper, branch_lower][()]


def transition_matrices(
    lattice: LatticeSpec, cavity: CavitySpec, two_u_max: int
) -> TransitionMatrices:
    """Every sector from the ground sector 2u = -2r up to 2u_max, each
    diagonalized once, and one ``raising_matrix`` per adjacent pair.

    Raises EmptySectorError (``sector_basis``) when 2u_max lies below the
    ground sector or has the wrong parity for 2r, and ValueError as
    ``diagonalize_sector`` does for any sector of the ladder.
    """
    sector_basis(lattice, two_u_max)
    ladder = range(-lattice.two_r, two_u_max + 1, 2)
    sectors = tuple(diagonalize_sector(lattice, cavity, two_u) for two_u in ladder)
    raising = tuple(
        raising_matrix(lattice, upper, lower) for lower, upper in zip(sectors, sectors[1:])
    )
    return TransitionMatrices(sectors=sectors, raising=raising)


def first_excited_transition(
    lattice: LatticeSpec, cavity: CavitySpec, branch: int = 0
) -> float | np.ndarray:
    """Raising element between the ground sector and the chosen branch of
    the first excited sector (the default radiating transition); for a
    sweep, one element per point."""
    two_r = lattice.two_r
    upper = diagonalize_sector(lattice, cavity, -two_r + 2)
    lower = diagonalize_sector(lattice, cavity, -two_r)
    if not 0 <= branch < upper.basis.dimension:
        raise ValueError(
            f"branch {branch} outside first excited sector of dimension "
            f"{upper.basis.dimension}"
        )
    return raising_element(lattice, upper, lower, branch, 0)
