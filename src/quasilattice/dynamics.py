"""Time-domain decay of the lowest excited polariton into a discretized
waveguide continuum.

The coupled amplitude equations are solved exactly, by one
eigendecomposition of a real symmetric arrowhead matrix in the rotating
frame of the bath modes (see ``integrate_amplitudes``), so the
exponential (Markov) decay law is an output to be checked against the
analytic rate, not an assumption of the scheme.  Times are in ns,
frequencies in GHz, with 2*pi absorbed into the angular-frequency
convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CavitySpec, LatticeSpec, refuse_sweep
from .radiation import s_factor

# Sampled rows per block of the state evaluation: bounds its scratch
# arrays to a few MB at any horizon.
_CHUNK_ROWS = 256


class StepSizeError(ValueError):
    """Sampling step too coarse for the largest bath detuning."""


class RecurrenceError(ValueError):
    """Requested horizon exceeds the discretized bath's recurrence time."""


class NonMonotoneWindowError(RuntimeError):
    """Decay-fit window contains revivals; no exponential fit is made."""


@dataclass(frozen=True)
class BathSpec:
    """Discretized radiation continuum.

    mode_frequencies: strictly increasing, positive, finite grid of
        omega_k, GHz.
    couplings: finite nonnegative per-mode amplitudes g_k, GHz, already
        scaled by the continuum measure sqrt(spacing/2pi-type factor).
    spacing: positive finite grid spacing used for the density
        normalization.
    """

    mode_frequencies: np.ndarray
    couplings: np.ndarray
    spacing: float

    def __post_init__(self) -> None:
        w = np.asarray(self.mode_frequencies, dtype=float)
        g = np.asarray(self.couplings, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("mode_frequencies must be a nonempty vector")
        if g.shape != w.shape:
            raise ValueError("couplings must match mode_frequencies in shape")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(g))):
            raise ValueError("mode frequencies and couplings must be finite")
        if np.any(np.diff(w) <= 0):
            raise ValueError("mode_frequencies must be strictly increasing")
        if np.any(w <= 0):
            raise ValueError("mode frequencies must be positive")
        if np.any(g < 0):
            raise ValueError("couplings must be nonnegative")
        if not 0 < self.spacing < math.inf:
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        object.__setattr__(self, "mode_frequencies", w)
        object.__setattr__(self, "couplings", g)

    @property
    def n_modes(self) -> int:
        return self.mode_frequencies.size


@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Time series of the polariton amplitude alpha at every step, and of
    the bath population sum_k |beta_k|^2 and the norm |alpha|^2 +
    sum_k |beta_k|^2 at every sample_stride-th step, times[::sample_stride]."""

    times: np.ndarray
    alpha: np.ndarray
    beta_total_sq: np.ndarray
    norm_history: np.ndarray
    sample_stride: int = 1


def normalized_bath(
    lattice: LatticeSpec,
    bandwidth: float,
    n_modes: int,
) -> BathSpec:
    """Uniform bath over [omega_q - B/2, omega_q + B/2] with the
    normalized coupling profile g_k^2 = spacing * k_q / (2 pi omega_k).

    With this measure the golden-rule rate for |alpha|^2 equals
    |s(k_q)|^2, matching the normalized analytic decay rate.  A grid
    whose n_modes frequencies are not distinct in float64 (a bandwidth
    below the resolution of omega_q) raises ValueError before any
    coupling is formed.
    """
    refuse_sweep(lattice, "normalized_bath")
    if not 0 < bandwidth < math.inf or n_modes < 1:
        raise ValueError("bandwidth must be positive and finite, and n_modes >= 1")
    w_q = lattice.omega_q
    if n_modes == 1:
        freqs = np.array([w_q])
        spacing = bandwidth
    else:
        freqs = np.linspace(w_q - bandwidth / 2.0, w_q + bandwidth / 2.0, n_modes)
        if not (np.diff(freqs) > 0).all():
            raise ValueError(
                f"a bandwidth of {bandwidth:g} GHz around omega_q = {w_q:g} GHz does not "
                f"resolve into {n_modes} distinct float64 mode frequencies"
            )
        spacing = freqs[1] - freqs[0]
    if freqs[0] <= 0:
        raise ValueError("bath extends to nonpositive frequencies; shrink bandwidth")
    with np.errstate(over="ignore", invalid="ignore"):  # BathSpec or the sector block refuses
        g = np.sqrt(spacing * lattice.k_q / (2.0 * math.pi * freqs))
    return BathSpec(mode_frequencies=freqs, couplings=g, spacing=spacing)


def physical_bath(
    lattice: LatticeSpec,
    bandwidth: float,
    n_modes: int,
    mu: float,
    epsilon_d: float,
    volume: float,
    speed: float = 1.0,
) -> BathSpec:
    """Bath with dimensional couplings g_k^2 = c k_q^2 mu^2/(2 eps_d k V),
    scaled by the grid spacing for the continuum measure.

    Raises ValueError, before any arithmetic, unless mu, epsilon_d,
    volume and speed are finite and the last three positive."""
    finite = all(math.isfinite(x) for x in (mu, epsilon_d, volume, speed))
    if not finite or min(epsilon_d, volume, speed) <= 0:
        raise ValueError(
            "mu must be finite, and epsilon_d, volume and speed finite and positive"
        )
    base = normalized_bath(lattice, bandwidth, n_modes)
    w = base.mode_frequencies
    g = np.sqrt(
        base.spacing * speed * lattice.k_q**2 * mu**2 / (2.0 * epsilon_d * w * volume)
    )
    return BathSpec(mode_frequencies=w, couplings=g, spacing=base.spacing)


def integrate_amplitudes(
    lattice: LatticeSpec,
    cavity: CavitySpec,
    bath: BathSpec,
    t_final: float,
    dt: float,
    branch: int = 0,
    sample_stride: int = 1,
) -> AmplitudeTrajectory:
    """Exact solution of

        d(alpha)/dt = -i sum_k g_k s(k) beta_k exp(-i(omega_q-omega_k)t)
        d(beta_k)/dt = -i g_k s*(k) alpha exp(+i(omega_q-omega_k)t)

    from alpha(0)=1, beta(0)=0, sampled at t = n*dt for n = 0..ceil(t_final/dt).

    In the rotating frame b_k = beta_k exp(-i Delta_k t), Delta_k =
    omega_q - omega_k, with the phase of s(k) absorbed into b_k, the
    system is psi' = -i H psi for psi = (alpha, b) and a constant real
    symmetric arrowhead H: diagonal (0, Delta_k), border g_k |s(k)|.  The
    frame change leaves |beta_k| unchanged, and with H = V diag(lam) V^T

        alpha(t) = sum_j V_0j^2 exp(-i lam_j t),
        psi(t) = V (exp(-i lam t) * V_0.).

    alpha is evaluated at every step with the split n = q*B + r,
    B ~ sqrt(steps), as one (q, j) x (j, r) product of block
    exponentials.  sum_k |beta_k|^2 and the norm |alpha|^2 +
    sum_k |beta_k|^2 are evaluated from psi at every sample_stride-th
    step, _CHUNK_ROWS samples at a time.  The phases of sample lo + r
    are those of sample r, from one block computed once, times those of
    sample lo, and the real and imaginary parts of a chunk, stacked, go
    through one real product with the bath rows of V.  This split rounds
    each phase lam_j*t within a few eps*|lam_j|*t of one exponential of
    the whole time, so sum_k |beta_k|^2 agrees with that route to a few
    ulp at the ``dynamics`` defaults.  The norm's distance from 1
    measures the rounding of the eigendecomposition and of both
    evaluations.

    No step size limits the accuracy.  dt only sets where the output is
    sampled; the StepSizeError guard keeps that sampling fine enough to
    resolve the fastest bath detuning, and the RecurrenceError guard keeps
    the horizon inside the discretized bath's recurrence time.
    """
    if not (0 < t_final < math.inf and 0 < dt < math.inf):
        raise ValueError("t_final and dt must be positive and finite")
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be at least 1, got {sample_stride}")
    detunings = lattice.omega_q - bath.mode_frequencies
    max_det = float(np.max(np.abs(detunings))) if detunings.size else 0.0
    if dt * max_det >= 0.1:
        raise StepSizeError(
            f"dt*max|omega_q-omega_k| = {dt * max_det:.3g} must stay below 0.1"
        )
    if bath.n_modes > 1:
        recurrence = 2.0 * math.pi / bath.spacing
        if t_final >= recurrence:
            raise RecurrenceError(
                f"t_final {t_final:g} ns exceeds bath recurrence {recurrence:.3g} ns"
            )

    s_k = np.atleast_1d(s_factor(lattice, cavity, bath.mode_frequencies, branch))
    n_steps = int(math.ceil(t_final / dt - 1e-12))
    times = np.arange(n_steps + 1) * dt

    h = np.diag(np.concatenate(([0.0], detunings)))
    h[0, 1:] = h[1:, 0] = bath.couplings * np.abs(s_k)
    if not np.all(np.isfinite(h)):
        raise RuntimeError("non-finite amplitude equations")
    lam, vecs = np.linalg.eigh(h)
    del h
    v0 = vecs[0]

    block = math.isqrt(n_steps) + 1
    e_q = np.exp(-1j * np.multiply.outer(times[::block], lam)) * v0**2
    e_r = np.exp(-1j * np.multiply.outer(times[:block], lam))
    alpha = (e_q @ e_r.T).ravel()[: n_steps + 1]
    del e_q, e_r
    alpha[0] = 1.0  # the initial condition, not a rounding outcome
    if not np.all(np.isfinite(alpha)):
        bad = int(np.argmin(np.isfinite(alpha)))
        raise RuntimeError(f"non-finite amplitude at t={times[bad]:g} ns")

    sampled = times[::sample_stride]
    bath_vecs = vecs[1:].T
    beta_sq = np.empty(sampled.size)
    phases = np.exp(-1j * np.multiply.outer(sampled[:_CHUNK_ROWS], lam)) * v0
    w = np.empty_like(phases)
    parts = np.empty((2 * len(phases), lam.size))  # real parts above, imaginary below
    b = np.empty((2 * len(phases), lam.size - 1))
    for lo in range(0, sampled.size, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, sampled.size - lo)
        np.multiply(phases[:rows], np.exp(-1j * sampled[lo] * lam), out=w[:rows])
        parts[:rows] = w[:rows].real
        parts[rows : 2 * rows] = w[:rows].imag
        sq = np.matmul(parts[: 2 * rows], bath_vecs, out=b[: 2 * rows])
        sq *= sq
        beta_sq[lo : lo + rows] = np.sum(np.add(sq[:rows], sq[rows:], out=sq[:rows]), axis=1)
    beta_sq[0] = 0.0  # likewise
    norm = np.abs(alpha[::sample_stride]) ** 2 + beta_sq

    return AmplitudeTrajectory(
        times=times, alpha=alpha, beta_total_sq=beta_sq,
        norm_history=norm, sample_stride=sample_stride,
    )


def fit_decay(
    traj: AmplitudeTrajectory,
    window: tuple[float, float] | None = None,
) -> float:
    """Exponential decay rate from a least-squares fit of ln|alpha(t)|^2.

    window is a (t_start, t_end) pair in ns; by default the first 10% of
    the trajectory is excluded as transient.  Revivals inside the window
    (any rise of |alpha| beyond 1e-9) abort the fit.
    """
    t = traj.times
    if window is None:
        window = (t[0] + 0.1 * (t[-1] - t[0]), t[-1])
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    if np.count_nonzero(mask) < 3:
        raise ValueError("fit window contains fewer than 3 samples")
    a2 = np.abs(traj.alpha[mask]) ** 2
    if np.any(a2 <= 0):
        raise ValueError("amplitude vanished inside the fit window")
    rises = np.diff(np.abs(traj.alpha[mask]))
    if np.any(rises > 1e-9):
        raise NonMonotoneWindowError(
            f"|alpha| rises by up to {np.max(rises):.3g} inside the fit window"
        )
    slope = np.polyfit(t[mask], np.log(a2), 1)[0]
    return -slope
