"""Radiation coupling of the qubit chain through a one-dimensional
waveguide.

Photon momenta are expressed throughout as frequencies omega_k in GHz, so
the dimensionless phase k/k0 appearing in the coupling coefficient is
omega_k/omega_c and the resonant momentum k_q is omega_q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CavitySpec, LatticeSpec, deformation_factor
from .polariton import first_excited_transition


class SingularDenominatorError(ValueError):
    """Closed-form coupling coefficient hit a near-zero denominator."""


class ConvergenceError(RuntimeError):
    """Principal-value quadrature failed its self-consistency check."""


@dataclass(frozen=True)
class CouplingProfile:
    """chi_l(k) and the collective factor s(k) sampled on a k-grid.

    l_values: the N transform indices l = 0, 1/N, ..., (N-1)/N.
    k_grid: photon frequencies omega_k, GHz.
    chi: complex matrix, row per l, column per k.
    s_factor: complex vector over k.
    """

    l_values: np.ndarray
    k_grid: np.ndarray
    chi: np.ndarray
    s_factor: np.ndarray


@dataclass(frozen=True)
class PrefactorInputs:
    """Physical inputs for the dimensional decay-rate prefactor.

    mu: transition dipole moment; epsilon_d: dielectric constant of the
    waveguide medium; area: resonator cross-section A.  Units are the
    caller's responsibility; the prefactor is k_q*mu^2/(4*epsilon_d*A).
    """

    mu: float
    epsilon_d: float
    area: float

    def __post_init__(self) -> None:
        if not (
            0 < self.epsilon_d < math.inf and 0 < self.area < math.inf and math.isfinite(self.mu)
        ):
            raise ValueError("epsilon_d and area must be positive, and all three finite")


@dataclass(frozen=True)
class DecayResult:
    """Spontaneous-decay rate of the lowest excited polariton.

    gamma_normalized = 2*s_at_kq**2 - s_at_zero**2 (dimensionless);
    gamma_physical is present only when prefactor inputs were supplied.
    """

    gamma_normalized: float
    s_at_kq: float
    s_at_zero: float
    gamma_physical: float | None = None
    prefactor_inputs: PrefactorInputs | None = None


@dataclass(frozen=True)
class PVCheckResult:
    """Numerical vs analytic principal value of the level-shift integral."""

    numeric: float
    analytic: float
    delta: float
    self_consistency: float


def l_values(lattice: LatticeSpec) -> np.ndarray:
    """Transform indices l = 0, 1/N, ..., (N-1)/N."""
    n = lattice.n_qubits
    return np.arange(n) / n


def _site_sum(
    lattice: LatticeSpec, cavity: CavitySpec, weights: np.ndarray, k
) -> complex | np.ndarray:
    """sum_j weights[j] * exp(i*theta*k*j) over the sites j = 0..N-1,
    with theta = pi*ell/omega_c the site phase per unit frequency.

    Accepts scalar or array k; complex k is allowed (the sum is entire).
    """
    j = np.arange(lattice.n_qubits)
    k_arr = np.asarray(k, dtype=complex)
    phases = np.exp(
        1j * math.pi * lattice.relative_spacing / cavity.omega_c * np.multiply.outer(k_arr, j)
    )
    out = phases @ weights
    if np.ndim(k) == 0:
        return complex(out)
    return out


def chi(
    lattice: LatticeSpec, cavity: CavitySpec, l: float, k
) -> complex | np.ndarray:
    """Coupling coefficient of collective mode l to a photon of
    frequency k (GHz), as the direct finite sum over qubit sites.

    Accepts scalar or array k; complex k is allowed (the sum is entire).
    """
    j = np.arange(lattice.n_qubits)
    return _site_sum(lattice, cavity, np.cos(j * math.pi * l), k)


def chi_closed_form(
    lattice: LatticeSpec, cavity: CavitySpec, l: float, k
) -> complex | np.ndarray:
    """Geometric-sum closed form of the coupling coefficient.

    Cross-check only; raises SingularDenominatorError when the
    denominator magnitude drops below 1e-9 anywhere on the input.
    """
    n = lattice.n_qubits
    k_arr = np.asarray(k, dtype=complex)
    phase = math.pi * lattice.relative_spacing / cavity.omega_c * k_arr
    e1 = np.exp(1j * phase)
    num = (
        1.0
        + np.exp(1j * (n + 1) * phase) * math.cos(l * (n - 1) * math.pi)
        - np.exp(1j * n * phase) * math.cos(n * l * math.pi)
        - e1 * math.cos(l * math.pi)
    )
    den = 1.0 + e1 * e1 - 2.0 * e1 * math.cos(l * math.pi)
    if np.any(np.abs(den) <= 1e-9):
        raise SingularDenominatorError(
            f"closed-form denominator below 1e-9 for l={l}"
        )
    out = num / den
    if np.ndim(k) == 0:
        return complex(out)
    return out


CHI_CLOSED_FORM_C = 16.0


def chi_closed_form_error_bound(
    lattice: LatticeSpec, cavity: CavitySpec, l: float, k
) -> np.ndarray:
    """Per-point bound on |chi - chi_closed_form| in float64 arithmetic
    at real frequencies k:
    C*eps*(N+1)*max(1, theta)/|den|, with theta = pi*ell*k/omega_c the
    site phase, den the closed form's denominator, eps machine epsilon
    and C = CHI_CLOSED_FORM_C.

    First-order analysis: theta is off by about eps*theta, so the phase
    factors exp(i*j*theta), j = 1, N, N+1, are off by up to about
    2*eps*(N+1)*theta.  The numerator is then off by about
    4*eps*(N+1)*max(1, theta) and the denominator by 5*eps*max(1, theta),
    and dividing by den amplifies both by 1/|den| (|chi| <= N): about 9
    units of eps*(N+1)*max(1, theta)/|den|.  The direct sum adds at most
    eps*N^2*theta/2, within 14 such units for N <= 8 because |den| <= 4.  These worst cases
    align every rounding error; over validate seeds 0-59 the largest
    measured ratio was 5.3, hence C = 16.  A wrong l or a sign error
    differs by O(1) and exceeds the bound by orders of magnitude.
    """
    k_arr = np.asarray(k, dtype=float)
    theta = math.pi * lattice.relative_spacing / cavity.omega_c * k_arr
    e1 = np.exp(1j * theta)
    den = 1.0 + e1 * e1 - 2.0 * e1 * math.cos(l * math.pi)
    return (
        CHI_CLOSED_FORM_C
        * np.finfo(float).eps
        * (lattice.n_qubits + 1)
        * np.maximum(1.0, np.abs(theta))
        / np.abs(den)
    )


def s_factor(
    lattice: LatticeSpec,
    cavity: CavitySpec,
    k,
    branch: int = 0,
    transition_element: float | None = None,
) -> complex | np.ndarray:
    """Collective radiation factor s(k) = (1/N) * sum_l chi_l(k) * [S+].

    The ground-to-first-excited raising element [S+] of the chosen
    branch is applied uniformly across l; pass transition_element to
    reuse a precomputed value across a k-sweep.  The l-sum is taken
    inside the site sum: sum_l cos(j*pi*l) over l = 0, 1/N, ...,
    (N-1)/N is N at j = 0, 1 at odd j and 0 at even j > 0.
    """
    n = lattice.n_qubits
    if transition_element is None:
        transition_element = first_excited_transition(lattice, cavity, branch)
    weights = (np.arange(n) % 2).astype(float)
    weights[0] = n
    return transition_element * _site_sum(lattice, cavity, weights, k) / n


def coupling_profile(
    lattice: LatticeSpec, cavity: CavitySpec, k_grid: np.ndarray, branch: int = 0
) -> CouplingProfile:
    """Sample chi_l(k) for every l and the collective s(k) on a grid."""
    ls = l_values(lattice)
    k_grid = np.asarray(k_grid, dtype=float)
    rows = [np.atleast_1d(chi(lattice, cavity, l, k_grid)) for l in ls]
    s = np.atleast_1d(s_factor(lattice, cavity, k_grid, branch))
    return CouplingProfile(l_values=ls, k_grid=k_grid, chi=np.vstack(rows), s_factor=s)


def quasi_period(lattice: LatticeSpec, cavity: CavitySpec) -> float:
    """Quasi-period of chi_l in k, as a frequency: omega_K = 2*omega_c/ell.

    The ell = 0 limit has no periodicity; it is reported as an infinite
    period.
    """
    if lattice.relative_spacing == 0.0:
        return math.inf
    return 2.0 * cavity.omega_c / lattice.relative_spacing


def decay_rate(
    lattice: LatticeSpec,
    cavity: CavitySpec,
    prefactor_inputs: PrefactorInputs | None = None,
    branch: int = 0,
) -> DecayResult:
    """Spontaneous-decay rate 2|s(k_q)|^2 - |s(0)|^2 of the lowest
    excited polariton into the waveguide.

    Dimensionless by default; with prefactor inputs the physical rate
    k_q*mu^2/(4*epsilon_d*A) times the normalized value is included.
    """
    k_q = lattice.k_q
    element = first_excited_transition(lattice, cavity, branch)
    s_kq = abs(s_factor(lattice, cavity, k_q, branch, element))
    s_0 = abs(s_factor(lattice, cavity, 0.0, branch, element))
    gamma = 2.0 * s_kq**2 - s_0**2
    physical = None
    if prefactor_inputs is not None:
        pref = (
            k_q
            * prefactor_inputs.mu**2
            / (4.0 * prefactor_inputs.epsilon_d * prefactor_inputs.area)
        )
        physical = pref * gamma
    return DecayResult(
        gamma_normalized=gamma,
        s_at_kq=s_kq,
        s_at_zero=s_0,
        gamma_physical=physical,
        prefactor_inputs=prefactor_inputs,
    )


def _pv_quadrature(
    lattice: LatticeSpec,
    cavity: CavitySpec,
    branch: int,
    element: float,
    delta: float,
    k_max: float,
    n_points: int,
    n_arc: int,
) -> complex:
    """One evaluation of the pole-excluding contour quadrature."""
    k_q = lattice.k_q

    def s_of(z):
        return s_factor(lattice, cavity, z, branch, element)

    def integrand_real(k):
        return np.abs(s_of(k)) ** 2 / (1j * k * (k - k_q))

    def integrand_arc(z):
        # |s|^2 continued off the real axis: s(z) * conj(s(conj(z))).
        return s_of(z) * np.conj(s_of(np.conj(z))) / (1j * z * (z - k_q))

    total = 0.0 + 0.0j
    for a, b in ((-k_max, -delta), (delta, k_q - delta), (k_q + delta, k_max)):
        if b <= a:
            raise ValueError("exclusion radius delta too large for the window")
        npts = max(3, int(round(n_points * (b - a) / (2.0 * k_max))))
        grid = np.linspace(a, b, npts)
        total += np.trapezoid(integrand_real(grid), grid)
    theta = np.linspace(math.pi, 0.0, n_arc)
    for pole in (0.0, k_q):
        z = pole + delta * np.exp(1j * theta)
        dz = 1j * delta * np.exp(1j * theta)
        total += np.trapezoid(integrand_arc(z) * dz, theta)
    return total


def pv_integral_check(
    lattice: LatticeSpec,
    cavity: CavitySpec,
    delta: float = 0.02,
    k_max: float | None = None,
    n_points: int = 400001,
    n_arc: int = 2001,
    branch: int = 0,
    consistency_tol: float = 2e-3,
) -> PVCheckResult:
    """Compare the numerical principal value of the level-shift integral
    int dk |s(k)|^2 / (i k (k - k_q)) with its analytic real part
    (pi/k_q) * (|s(0)|^2 - |s(k_q)|^2).

    The quadrature excludes |k| < delta and |k - k_q| < delta, closes
    each gap with a semicircular detour over the pole, and takes the
    real part.  A delta-halving repeat guards convergence; divergence
    beyond consistency_tol (relative to the analytic scale) raises
    ConvergenceError with the residual.
    """
    if lattice.k_q <= 0:
        raise ValueError("principal-value check requires omega_q > 0")
    if k_max is None:
        period = quasi_period(lattice, cavity)
        k_max = 20.0 * period if math.isfinite(period) else 40.0 * cavity.omega_c
    element = first_excited_transition(lattice, cavity, branch)
    k_q = lattice.k_q
    s_0 = abs(s_factor(lattice, cavity, 0.0, branch, element))
    s_kq = abs(s_factor(lattice, cavity, k_q, branch, element))
    analytic = math.pi / k_q * (s_0**2 - s_kq**2)

    coarse = _pv_quadrature(
        lattice, cavity, branch, element, delta, k_max, n_points, n_arc
    ).real
    fine = _pv_quadrature(
        lattice, cavity, branch, element, delta / 2.0, k_max, n_points, n_arc
    ).real
    scale = max(abs(analytic), abs(fine), 1e-12)
    residual = abs(fine - coarse) / scale
    if residual > consistency_tol:
        raise ConvergenceError(
            f"delta-halving residual {residual:.3e} exceeds {consistency_tol:.1e}"
        )
    return PVCheckResult(
        numeric=fine, analytic=analytic, delta=delta / 2.0, self_consistency=residual
    )
