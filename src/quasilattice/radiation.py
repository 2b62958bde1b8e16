"""Radiation coupling of the qubit chain through a one-dimensional
waveguide.

Photon momenta are expressed throughout as frequencies omega_k in GHz, so
the dimensionless phase k/k0 appearing in the coupling coefficient is
omega_k/omega_c and the resonant momentum k_q is omega_q.

The level shift PV int |s(k)|^2 / (k (k - k_q)) dk is checked by two
exact routes: a closed form from the autocorrelation of the site weights,
and a midpoint rule on one period of |s|^2 against the cotangent kernel
that sums the pole's periodic images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CavitySpec, LatticeSpec, deformation_factor
from .polariton import first_excited_transition


class SingularDenominatorError(ValueError):
    """Closed-form coupling coefficient hit a near-zero denominator."""


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

    gamma_normalized = 2*s_at_kq**2 - s_at_zero**2 (dimensionless), the
    paper's expression.  Since s_at_kq <= s_at_zero, with equality only
    at ell = 0 or on quasi-period multiples, it is not a rate elsewhere
    and can be negative (107 of the 201 rows of the default
    ``decay-sweep``).  gamma_physical is present only when prefactor
    inputs were supplied.
    """

    gamma_normalized: float
    s_at_kq: float
    s_at_zero: float
    gamma_physical: float | None = None
    prefactor_inputs: PrefactorInputs | None = None


@dataclass(frozen=True)
class PVCheckResult:
    """The level-shift principal value by quadrature (numeric) and in
    closed form (analytic), with the float64 bound on their difference
    and the M vs 2M residual of the quadrature (see pv_integral_check)."""

    numeric: float
    analytic: float
    bound: float
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
    Raises ValueError when a phase or the sum overflows.
    """
    j = np.arange(lattice.n_qubits)
    k_arr = np.asarray(k, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
        phase = 1j * math.pi * lattice.relative_spacing / cavity.omega_c * np.multiply.outer(k_arr, j)
        out = np.exp(phase) @ weights
    if not (np.isfinite(phase).all() and np.isfinite(out).all()):
        raise ValueError("site phase pi*ell*k*j/omega_c, or the sum over sites, overflows")
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

    The paper's expression: |s(k_q)| <= |s(0)|, with equality only at
    ell = 0 (where s(k) is constant) or when omega_q sits on a
    quasi-period multiple, so elsewhere the value is not a rate and can
    be negative.  Dimensionless by default; with prefactor inputs the
    physical rate k_q*mu^2/(4*epsilon_d*A) times the normalized value is
    included.
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


PV_LEVEL_SHIFT_C = 64.0


def _cot_integral(
    lattice: LatticeSpec, cavity: CavitySpec, element: float, centres: np.ndarray, m: int
) -> np.ndarray:
    """PV int |s(k)|^2 / (k - c) dk at each centre c, folded onto one
    period P of |s|^2 by PV sum_n 1/(y + n*P) = (pi/P)*cot(pi*y/P), by the
    M-point midpoint rule.  For even M the nodes pair up as +-x, none on
    the pole; the paired integrand is a trig polynomial of degree <= N-1
    in 2*pi*x/P, so the rule is exact once M >= N."""
    period = quasi_period(lattice, cavity)
    if not math.isfinite(period):
        period = 2.0 * cavity.omega_c  # |s|^2 is constant at ell = 0: any period serves
    x = (np.arange(m // 2) + 0.5) * period / m
    k = np.add.outer(centres, np.concatenate([x, -x]))
    g = np.abs(s_factor(lattice, cavity, k, transition_element=element)) ** 2
    cot = 1.0 / np.tan(math.pi * x / period)
    return math.pi / m * ((g[:, : m // 2] - g[:, m // 2 :]) @ cot)


def pv_integral_check(
    lattice: LatticeSpec, cavity: CavitySpec, branch: int = 0
) -> PVCheckResult:
    """The level shift Delta = PV int |s(k)|^2 / (k (k - k_q)) dk by two
    exact routes.

    Analytic: |s(k)|^2 = sum_d c_d cos(d*theta*k), theta = pi*ell/omega_c,
    c_d = (T/N)^2 * sum_j w_j w_{j+|d|} with w_j = sum_l cos(j*pi*l) and T
    the transition element.  PV int cos(a*k)/(k - b) dk = -pi*sin(|a|*b),
    and the even |s|^2 drops the 1/k part, so
    Delta = -(pi/k_q) * sum_d c_d sin(|d|*theta*k_q).  Numeric:
    (I(k_q) - I(0))/k_q by _cot_integral through s_factor on M = 2N nodes.

    bound = C*eps*N*(1 + theta*k_q)*(1 + ln M)*scale, with scale =
    (pi/k_q)*sum_d |c_d| and C = PV_LEVEL_SHIFT_C, bounds |numeric -
    analytic| to first order: |s|^2 <= |s(0)|^2 = sum_d |c_d| (the weights
    are non-negative); six roundings per site phase put a node's |s|^2 off
    by up to eps*N*(4 + 12*(theta*k_q + pi))*|s(0)|^2; the cot weights sum
    to at most 2*(1 + ln M) per centre.  That is 54 units, plus 3 for the
    closed form, with every rounding error aligned; the largest measured
    ratio (N = 1..32, nine ell, seven omega_q in [5, 21]) was 0.0027.
    self_consistency is |Delta_M - Delta_2M| / scale.
    """
    k_q = lattice.k_q
    n = lattice.n_qubits
    element = first_excited_transition(lattice, cavity, branch)
    w = np.cos(np.multiply.outer(np.arange(n), math.pi * l_values(lattice))).sum(axis=1)
    c = (element / n) ** 2 * np.correlate(w, w, "full")
    theta = math.pi * lattice.relative_spacing / cavity.omega_c
    analytic = -math.pi / k_q * float(c @ np.sin(np.abs(np.arange(1 - n, n)) * theta * k_q))
    scale = math.pi / k_q * float(np.sum(np.abs(c)))

    def shift(m: int) -> float:
        i_kq, i_0 = _cot_integral(lattice, cavity, element, np.array([k_q, 0.0]), m)
        return float(i_kq - i_0) / k_q

    m = 2 * n
    numeric, finer = shift(m), shift(2 * m)
    eps = float(np.finfo(float).eps)
    return PVCheckResult(
        numeric=numeric,
        analytic=analytic,
        bound=PV_LEVEL_SHIFT_C * eps * n * (1.0 + theta * k_q) * (1.0 + math.log(m)) * scale,
        self_consistency=abs(numeric - finer) / max(scale, np.finfo(float).tiny),
    )
