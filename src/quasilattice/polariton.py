"""Excitation-number blocks of the dressed qubit-chain + cavity system.

The coupled Hamiltonian conserves the total excitation number u = n + m
(photon number n plus spin projection m), so it splits into finite
tridiagonal blocks.  Each block is diagonalized for the polariton
branches; the closed-form coefficient expansion is kept as a cross-check
of the eigensolver.  Excitation numbers and spin projections can be
half-integers for odd N, so they are carried as doubled integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CavitySpec, LatticeSpec, deformation_factor, sweep_points, unstack


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
    two_r = lattice.two_r
    if two_u < -two_r:
        raise EmptySectorError(
            f"sector 2u={two_u} lies below the ground sector 2u={-two_r}"
        )
    if (two_u - two_r) % 2 != 0:
        raise EmptySectorError(
            f"sector 2u={two_u} has the wrong parity for 2r={two_r}"
        )
    # m = u - n must satisfy -r <= m <= r and n >= 0.
    n_lo = max(0, (two_u - two_r) // 2)
    n_hi = (two_u + two_r) // 2
    entries = tuple((n, two_u - 2 * n) for n in range(n_lo, n_hi + 1))
    if not entries:
        raise EmptySectorError(f"sector 2u={two_u} is empty")
    return SectorBasis(two_u=two_u, entries=entries)


def _deformation_factors(lattice: LatticeSpec | tuple[LatticeSpec, ...]) -> np.ndarray:
    """The deformation factor f of each sweep point."""
    return np.array([deformation_factor(p) for p in sweep_points(lattice)])


def _sector_block(
    lattice: LatticeSpec | tuple[LatticeSpec, ...],
    cavity: CavitySpec,
    two_u: int,
    f: np.ndarray | None = None,
) -> tuple[SectorBasis, np.ndarray]:
    """Basis and the stack of dense block Hamiltonians of one sector, one
    per sweep point (see ``build_sector_hamiltonian``); f is
    ``_deformation_factors`` of the points, computed here if not given."""
    points = sweep_points(lattice)
    two_r = points[0].two_r
    basis = sector_basis(points[0], two_u)
    d = basis.dimension
    # per entry: n, 2m, eta*sqrt(n), r - m and r + m + 1
    n, two_m, eta_sqrt_n, rm, rm1 = np.array([
        (n, two_m, cavity.eta * math.sqrt(n), (two_r - two_m) / 2.0, (two_r + two_m) / 2.0 + 1.0)
        for n, two_m in basis.entries
    ]).T
    omega_q = np.array([p.omega_q for p in points])[:, None]
    f = (_deformation_factors(points) if f is None else f)[:, None]
    h = np.zeros((len(points), d * d))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite blocks raise in diagonalize_sector
        h[:, :: d + 1] = omega_q * two_m / 2.0 + cavity.omega_c * n
        off = eta_sqrt_n[1:] * np.sqrt(f * rm[1:] * rm1[1:])
    h[:, 1 :: d + 1] = off  # the superdiagonal and the subdiagonal of each block
    h[:, d :: d + 1] = off
    return basis, h.reshape(len(points), d, d)


def build_sector_hamiltonian(
    lattice: LatticeSpec | tuple[LatticeSpec, ...], cavity: CavitySpec, two_u: int
) -> np.ndarray:
    """Dense real symmetric block Hamiltonian of one excitation sector, GHz;
    for a tuple of lattices, a stack of them with a leading point axis.

    Diagonal entries are the bare energies omega_q*m + omega_c*n; the
    single off-diagonal couples (n, m) to (n-1, m+1) with strength
    eta*sqrt(n)*sqrt(f*(r-m)*(r+m+1)).
    """
    return unstack(_sector_block(lattice, cavity, two_u)[1], lattice)


def diagonalize_sector(
    lattice: LatticeSpec | tuple[LatticeSpec, ...],
    cavity: CavitySpec,
    two_u: int,
    *,
    f: np.ndarray | None = None,
) -> PolaritonSector:
    """Polariton branches of one sector, eigenvalues ascending.

    The dense block of ``build_sector_hamiltonian`` goes to
    ``np.linalg.eigh`` (LAPACK ``syevd``).  A block has dimension at
    most N+1, so the O(n^3) dense solve stays small, and numpy alone
    serves it.  Coefficient columns carry the gauge c_0 >= 0 (first
    nonzero entry nonnegative for decoupled cases where c_0 = 0).  A
    LAPACK failure, or a non-finite eigenvalue or coefficient, as from
    an overflowing omega_c*n, raises RuntimeError.

    A tuple of lattices sharing n_qubits is one sweep: eigh solves the
    stack of their blocks at once, block by block as for each point
    alone, and the sector's arrays gain a leading point axis.  A caller
    that already holds the deformation factor of each point passes it as
    f, one entry per point.
    """
    basis, h = _sector_block(lattice, cavity, two_u, f)
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"sector 2u={two_u} eigensolver failed: {exc}") from exc
    if not (np.isfinite(vals).all() and np.isfinite(vecs).all()):
        raise RuntimeError(
            f"sector 2u={two_u} produced non-finite eigenvalues or coefficients"
        )
    rows = np.arange(len(vals))[:, None]
    branches = np.arange(basis.dimension)
    order = vals.argsort(axis=-1)
    if (order != branches).any():  # eigh's order already ascends, up to ties
        vals = vals[rows, order]
        vecs = vecs[rows[:, None], branches[:, None], order[:, None, :]]
    # the first entry above 1e-14 of each column fixes its sign
    lead = vecs[rows, (np.abs(vecs) > 1e-14).argmax(axis=1), branches]
    vecs *= np.copysign(1.0, lead)[:, None, :]
    eps = vals - np.array([p.omega_q * two_u / 2.0 for p in sweep_points(lattice)])[:, None]
    return PolaritonSector(
        basis=basis,
        eigenvalues=unstack(vals, lattice),
        coefficients=unstack(vecs, lattice),
        stark_splittings=unstack(eps, lattice),
    )


def _descending_index_sets(n_top: int, q: int, low: int = 0):
    """Index tuples j_1 > ... > j_q in {low..n_top} with pairwise gaps >= 2,
    ordered as their reversals are by itertools.combinations."""
    if q == 0:
        yield ()
        return
    for j in range(low, n_top - 2 * q + 3):
        for rest in _descending_index_sets(n_top, q - 1, j + 2):
            yield rest + (j,)


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
    coeffs = np.empty(basis.dimension)
    n0 = basis.entries[0][0]
    for row, (n_abs, _) in enumerate(basis.entries):
        n = n_abs - n0  # steps above the sector's lowest photon number
        for j in range(1, n + 1):
            if abs(eps - j * dw) < 1e-12 * max(1.0, abs(eps)):
                raise DegenerateDetuningError(
                    f"eps - {j}*detuning vanishes for sector 2u={two_u}"
                )
        prefactor = 1.0
        for j in range(n):
            prefactor *= (eps - j * dw) / eta
        falling = math.prod(r + u - i for i in range(n))
        rising = math.prod(r - u + 1.0 + i for i in range(n))
        prefactor /= math.sqrt(math.factorial(n) * falling * rising)
        total = 0.0
        for q in range(n // 2 + 1):
            part = 0.0
            for desc in _descending_index_sets(n - 2, q):
                term = 1.0
                for jk in desc:
                    term *= (
                        -(eta**2)
                        * (jk + 1)
                        * (r + u - jk)
                        / (eps - jk * dw)
                        * (r - u + jk + 1)
                        / (eps - (jk + 1) * dw)
                    )
                part += term
            total += f ** (q - n / 2.0) * part
        coeffs[row] = prefactor * total
    coeffs /= np.linalg.norm(coeffs)
    lead = coeffs[np.nonzero(np.abs(coeffs) > 1e-14)[0][0]]
    if lead < 0:
        coeffs = -coeffs
    return coeffs


def raising_matrix(
    lattice: LatticeSpec | tuple[LatticeSpec, ...],
    upper: PolaritonSector,
    lower: PolaritonSector,
    *,
    f: np.ndarray | None = None,
) -> np.ndarray:
    """Collective raising elements from every branch of sector u-1 into
    every branch of sector u, as a dim_u x dim_(u-1) matrix indexed
    (branch_upper, branch_lower); for a tuple of lattices and the sectors
    ``diagonalize_sector`` gives for it, a stack with a leading point axis.

    The basis states of the two sectors that share a photon number n are
    joined by the ladder amplitude sqrt(f*(r+u-n)*(r-u+n+1)); their
    coefficient outer products are accumulated in ascending n, so every
    entry is rounded as a per-element sum over n would be.  f is the
    deformation factor of each point, computed here if not given.
    """
    if upper.basis.two_u != lower.basis.two_u + 2:
        raise ValueError("raising element requires adjacent sectors u and u-1")
    points = sweep_points(lattice)
    stacked = not isinstance(lattice, LatticeSpec)
    upper_c = upper.coefficients if stacked else upper.coefficients[None]
    lower_c = lower.coefficients if stacked else lower.coefficients[None]
    f = (_deformation_factors(points) if f is None else f)[:, None, None]
    u = upper.basis.two_u / 2.0
    r = points[0].two_r / 2.0
    lower_by_n = {n: j for j, (n, _) in enumerate(lower.basis.entries)}
    out = np.zeros((len(points), upper.basis.dimension, lower.basis.dimension))
    for i, (n, _) in enumerate(upper.basis.entries):
        j = lower_by_n.get(n)
        if j is None:
            continue
        amp = np.sqrt(f * (r + u - n) * (r - u + n + 1))
        out += upper_c[:, i, :, None] * lower_c[:, j, None, :] * amp
    return unstack(out, lattice)


def raising_element(
    lattice: LatticeSpec | tuple[LatticeSpec, ...],
    upper: PolaritonSector,
    lower: PolaritonSector,
    branch_upper: int,
    branch_lower: int,
    *,
    f: np.ndarray | None = None,
) -> float | np.ndarray:
    """Collective raising element from a branch of sector u-1 into u: one
    entry of ``raising_matrix``, per point for a tuple of lattices."""
    # [()] turns the 0-d entry of one lattice into a scalar
    return raising_matrix(lattice, upper, lower, f=f)[..., branch_upper, branch_lower][()]


def transition_matrices(
    lattice: LatticeSpec, cavity: CavitySpec, two_u_max: int
) -> TransitionMatrices:
    """Every sector from the ground sector 2u = -2r up to 2u_max, each
    diagonalized once, and one ``raising_matrix`` per adjacent pair.

    Raises ValueError when 2u_max lies below the ground sector or when a
    bare energy omega_q*m + omega_c*n of the ladder overflows (checked
    before any sector is diagonalized), and EmptySectorError when 2u_max
    has the wrong parity for 2r.
    """
    two_r = lattice.two_r
    if two_u_max < -two_r:
        raise ValueError(
            f"sector ladder top 2u={two_u_max} lies below the ground sector 2u={-two_r}"
        )
    if (two_u_max - two_r) % 2 != 0:
        raise EmptySectorError(
            f"sector ladder top 2u={two_u_max} has the wrong parity for 2r={two_r}"
        )
    ladder = range(-two_r, two_u_max + 1, 2)
    bare = [
        lattice.omega_q * two_m / 2.0 + cavity.omega_c * n
        for two_u in ladder
        for n, two_m in sector_basis(lattice, two_u).entries
    ]
    if not all(map(math.isfinite, bare)):
        raise ValueError("a bare sector energy omega_q*m + omega_c*n overflows")
    f = _deformation_factors(lattice)
    sectors = tuple(diagonalize_sector(lattice, cavity, two_u, f=f) for two_u in ladder)
    raising = tuple(
        raising_matrix(lattice, upper, lower, f=f) for lower, upper in zip(sectors, sectors[1:])
    )
    return TransitionMatrices(sectors=sectors, raising=raising)


def first_excited_transition(
    lattice: LatticeSpec | tuple[LatticeSpec, ...], cavity: CavitySpec, branch: int = 0
) -> float | np.ndarray:
    """Raising element between the ground sector and the chosen branch of
    the first excited sector (the default radiating transition); for a
    tuple of lattices sharing n_qubits, one element per point.  The
    deformation factor of each point is computed once and shared."""
    two_r = sweep_points(lattice)[0].two_r
    f = _deformation_factors(lattice)
    upper = diagonalize_sector(lattice, cavity, -two_r + 2, f=f)
    lower = diagonalize_sector(lattice, cavity, -two_r, f=f)
    if not 0 <= branch < upper.basis.dimension:
        raise ValueError(
            f"branch {branch} outside first excited sector of dimension "
            f"{upper.basis.dimension}"
        )
    return raising_element(lattice, upper, lower, branch, 0, f=f)
