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

from .model import CavitySpec, LatticeSpec, paired_length, refuse_sweep
from .polariton import first_excited_transition


@dataclass(frozen=True)
class PrefactorInputs:
    """Physical inputs for the dimensional decay-rate prefactor.

    mu: transition dipole moment; epsilon_d: dielectric constant of the
    waveguide medium; area: resonator cross-section A.  Units are the
    caller's responsibility; the prefactor is k_q*mu^2/(4*epsilon_d*A).
    A mu whose square overflows is refused with the rest.
    """

    mu: float
    epsilon_d: float
    area: float

    def __post_init__(self) -> None:
        mu = float(self.mu)  # a float square overflows to inf, where numpy's would warn
        if not (
            0 < self.epsilon_d < math.inf
            and 0 < self.area < math.inf
            and math.isfinite(mu * mu)
        ):
            raise ValueError(
                "epsilon_d and area must be positive, all three finite, and mu^2 finite"
            )


@dataclass(frozen=True)
class DecayResult:
    """Spontaneous-decay rate of the lowest excited polariton.

    gamma_normalized = 2*s_at_kq**2 - s_at_zero**2 (dimensionless), the
    paper's expression.  Since s_at_kq <= s_at_zero, with equality only
    at ell = 0 or on quasi-period multiples, it is not a rate elsewhere
    and can be negative (107 of the 201 rows of the default
    ``decay-sweep``).  gamma_physical is present only when prefactor
    inputs were supplied.  Each field is an np.float64 for one lattice,
    and an array with one entry per point for a sweep.
    """

    gamma_normalized: float | np.ndarray
    s_at_kq: float | np.ndarray
    s_at_zero: float | np.ndarray
    gamma_physical: float | np.ndarray | None = None


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
    """sum_j weights[..., j] * exp(i*theta*k*j) over the sites j = 0..N-1,
    with theta = pi*ell/omega_c the site phase per unit frequency.

    Accepts scalar or array k; complex k is allowed (the sum is entire).
    For a sweep of the lattice, the cavity or both (``paired_length``),
    each point takes its own theta and k's leading axis is the point
    axis, or 1 long: k[None] is one grid for every point, and a scalar k
    is each point's k.  The exponentials are computed once, and each
    weight vector of a stack of them is one matrix-vector product on
    each point's k rows, bit for bit the point's call alone; the point
    axis, then the stack's axes lead the result.  Raises ValueError when
    k's leading axis is another length, or a phase or the sum overflows.
    """
    points = paired_length(lattice, cavity)
    j = np.arange(lattice.n_qubits)
    k_arr = np.asarray(k, dtype=complex)
    if points and k_arr.ndim and k_arr.shape[0] not in (1, points):
        raise ValueError(f"k's leading axis is the {points}-point axis; k[None] is one grid for every point")
    with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
        theta = math.pi * np.asarray(lattice.relative_spacing) / np.asarray(cavity.omega_c)
        k_arr = np.broadcast_to(k_arr, theta.shape + k_arr.shape[theta.ndim :])
        k_rows = k_arr if k_arr.ndim > theta.ndim else k_arr[..., None]
        phase = np.reshape(1j * theta, theta.shape + (1,) * (k_rows.ndim - theta.ndim + 1))
        phase = phase * np.multiply.outer(k_rows, j)
        exps = np.exp(phase)
        out = np.stack([exps @ w for w in np.reshape(weights, (-1, j.size))], axis=theta.ndim)
    if not (np.isfinite(phase).all() and np.isfinite(out).all()):
        raise ValueError("site phase pi*ell*k*j/omega_c, or the sum over sites, overflows")
    out = out.reshape(theta.shape + np.shape(weights)[:-1] + k_arr.shape[theta.ndim :])
    if np.ndim(out) == 0:
        return complex(out)
    return out


def chi(
    lattice: LatticeSpec, cavity: CavitySpec, l, k
) -> complex | np.ndarray:
    """Coupling coefficient of collective mode l to a photon of
    frequency k (GHz), as the direct finite sum over qubit sites.

    Accepts scalar or array k; complex k is allowed (the sum is entire).
    An array of l adds its axes in front: the site exponentials, which
    do not depend on l, are computed once, and each l is one
    matrix-vector product on them, bit for bit its scalar call.  A sweep
    reads k as ``_site_sum`` does (k[None]: one grid for every point).
    """
    j = np.arange(lattice.n_qubits)
    return _site_sum(lattice, cavity, np.cos(np.multiply.outer(l, j * math.pi)), k)


def _l_summed_weights(n: int) -> np.ndarray:
    """Site weights w_j = sum_l cos(j*pi*l) over l = 0, 1/N, ..., (N-1)/N,
    exactly: N at j = 0, 1 at odd j and 0 at even j > 0."""
    return np.array([n] + [j % 2 for j in range(1, n)], dtype=float)


def s_factor(
    lattice: LatticeSpec,
    cavity: CavitySpec,
    k,
    branch: int = 0,
    transition_element: float | np.ndarray | None = None,
) -> complex | np.ndarray:
    """Collective radiation factor s(k) = (1/N) * sum_l chi_l(k) * [S+].

    The ground-to-first-excited raising element [S+] of the chosen
    branch is applied uniformly across l; pass transition_element to
    reuse a precomputed value across a k-sweep.  The l-sum is taken
    inside the site sum, on the exact weights of ``_l_summed_weights``.

    For a sweep, transition_element carries a leading point axis, and k
    is read as ``_site_sum`` reads it (k[None]: one grid for every point).
    """
    n = lattice.n_qubits
    if transition_element is None:
        transition_element = first_excited_transition(lattice, cavity, branch)
    sums = _site_sum(lattice, cavity, _l_summed_weights(n), k)
    if np.ndim(transition_element):  # each point's element spans its k-axes
        transition_element = np.reshape(transition_element, (-1,) + (1,) * (sums.ndim - 1))
    return transition_element * sums / n


def quasi_period(lattice: LatticeSpec, cavity: CavitySpec) -> float:
    """Quasi-period of chi_l in k, as a frequency: omega_K = 2*omega_c/ell.

    The ell = 0 limit has no periodicity; it is reported as an infinite
    period.
    """
    refuse_sweep("quasi_period", lattice, cavity)
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
    included, and a prefactor, its denominator or the physical rate that
    overflows at any point raises ValueError.

    A sweep is evaluated in one pass: both sectors of every point in one
    stacked eigensolve, and one site sum per k.  Its fields are arrays
    with one entry per point; one lattice gives np.float64 fields.  Every
    entry equals, bit for bit, the value of its point evaluated alone
    with scalar arithmetic: |s| is hypot(re, im) and its square libm's
    pow, as the scalar abs and ** 2 compute them (np.abs and ** 2 on an
    array round differently).  When a sweep fails, its points are redone
    one at a time, so that it raises what its first failing point raises
    alone: a ValueError for a bad branch, an overflowing site phase or an
    overflowing bare sector energy, a RuntimeError for any other
    non-finite sector.
    """
    points = paired_length(lattice, cavity)
    try:
        element = first_excited_transition(lattice, cavity, branch)
        s = [s_factor(lattice, cavity, k, branch, element) for k in (lattice.omega_q, 0.0)]
    except (ValueError, RuntimeError):
        if points:  # a sweep: raise what its first failing point raises alone
            fields = lattice.relative_spacing, lattice.omega_q, cavity.omega_c, cavity.eta
            for ell, omega_q, omega_c, eta in np.transpose(np.broadcast_arrays(*fields)).tolist():
                point = LatticeSpec(lattice.n_qubits, ell, omega_q), CavitySpec(omega_c, eta)
                decay_rate(*point, prefactor_inputs, branch)
        raise
    s_kq, s_0 = (np.hypot(z.real, z.imag) for z in s)
    gamma = 2.0 * np.float_power(s_kq, 2) - np.float_power(s_0, 2)
    physical = None
    if prefactor_inputs is not None:
        try:
            with np.errstate(over="raise"):
                pref = (
                    np.asarray(lattice.omega_q)
                    * prefactor_inputs.mu**2
                    / (np.float64(4.0) * prefactor_inputs.epsilon_d * prefactor_inputs.area)
                )
                physical = pref * gamma
        except FloatingPointError as exc:
            raise ValueError(
                "prefactor k_q*mu^2/(4*epsilon_d*area), its denominator, "
                "or the physical rate, overflows"
            ) from exc
    return DecayResult(
        gamma_normalized=gamma, s_at_kq=s_kq, s_at_zero=s_0, gamma_physical=physical
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


def pv_integral_check(lattice: LatticeSpec, cavity: CavitySpec) -> PVCheckResult:
    """The level shift Delta = PV int |s(k)|^2 / (k (k - k_q)) dk of the
    lowest branch (the transition element of branch 0) by two exact routes.

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
    refuse_sweep("pv_integral_check", lattice, cavity)
    k_q = lattice.omega_q
    n = lattice.n_qubits
    element = first_excited_transition(lattice, cavity)
    w = _l_summed_weights(n)
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
