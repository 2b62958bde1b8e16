"""Time-domain decay of an emitter into a discretized waveguide
continuum.

The coupled amplitude equations of an emitter of frequency omega_e and
emission amplitude A(omega_k) are solved exactly, by one
eigendecomposition of a real symmetric arrowhead matrix in the rotating
frame of the bath modes (see ``integrate_amplitudes``), so the
exponential (Markov) decay law is an output to be checked against the
analytic rate, not an assumption of the scheme.  The caller forms A;
the lowest excited polariton's is s(omega_k) (``radiation.s_factor``).
The eigendecomposition is that of the arrowhead's bright modes: the
roots of its secular equation and the first entries of Loewner's
eigenvectors, O(M^2) elementwise work in O(M) memory (see
``_bright_eigh``); neither it nor alpha's evaluation calls BLAS or
LAPACK.  alpha is evaluated only at the steps 0, k, 2k, ... of the
caller's stride k, and no step is too coarse: only a bound on alpha's
error that reaches 1 refuses a run.  Times are in ns, frequencies in GHz,
with 2*pi absorbed into the angular-frequency convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Elements in each of the arrowhead eigensolver's two scratch arrays,
# about 0.5 MB: it works on blocks of roots of this many (root, mode) pairs.
_SOLVER_BLOCK = 1 << 16

# A secular root stops when |G| <= _SECULAR_TOL * eps * (its terms' sum
# of magnitudes), the size of the rounding error of its evaluation (see
# ``_refine_roots`` for the other stops).
_SECULAR_TOL = 8.0

# Rational steps each root may take; every step either lands inside its
# bracket or halves it, so the cap stands far above the handful of steps
# a root takes and only bounds the loop.
_SECULAR_STEPS = 100

_EPS = np.finfo(float).eps


class ErrorBoundError(ValueError):
    """alpha's error bound reaches 1 within the horizon: no digit is correct."""


class RecurrenceError(ValueError):
    """Requested horizon exceeds the discretized bath's recurrence time."""


class NonMonotoneWindowError(RuntimeError):
    """Decay-fit window contains revivals; no exponential fit is made."""


@dataclass(frozen=True)
class BathSpec:
    """Discretized radiation continuum.

    mode_frequencies: strictly increasing, positive, finite grid of
        omega_k, GHz.
    couplings: finite nonnegative per-mode amplitudes g_k, GHz, with the
        continuum measure: g_k^2 = spacing*w_q/(2*pi*omega_k) in ``normalized_bath``.
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

    @property
    def recurrence_time(self) -> float:
        """2*pi/spacing, ns, when the discrete modes rephase; infinite for one."""
        # a float quotient: inf, not an overflow warning, at a subnormal spacing
        return 2.0 * math.pi / float(self.spacing) if self.n_modes > 1 else math.inf


@dataclass(frozen=True)
class AmplitudeTrajectory:
    """The polariton amplitude alpha at the written steps 0, k, 2k, ...
    of a stride k, and the bound error_floor + error_rate*t on its error
    (``integrate_amplitudes``).  horizon is the last step's time,
    n_steps*dt, written or not."""

    times: np.ndarray
    alpha: np.ndarray
    error_floor: float
    error_rate: float
    horizon: float

    @property
    def beta_total_sq(self) -> np.ndarray:
        """sum_k |beta_k|^2 = 1 - |alpha|^2 at every written step."""
        return 1.0 - np.abs(self.alpha) ** 2

    @property
    def error_bound(self) -> np.ndarray:
        """The bound on alpha's error at every written step; 0 at t = 0, where
        alpha = 1 is set, not computed."""
        bound = self.error_floor + self.error_rate * self.times
        bound[0] = 0.0
        return bound


def normalized_bath(w_q: float, bandwidth: float, n_modes: int) -> BathSpec:
    """Uniform bath over [w_q - B/2, w_q + B/2] with the normalized
    coupling profile g_k^2 = spacing * w_q / (2 pi omega_k).

    With this measure the golden-rule rate for |alpha|^2 of an emitter
    at w_q equals |A(w_q)|^2 (``integrate_amplitudes``), and |s(k_q)|^2
    for A = s, the normalized analytic decay rate.  A grid whose n_modes
    frequencies are not distinct in float64 (a bandwidth below the
    resolution of w_q) raises ValueError before any coupling is formed.
    """
    if not 0 < bandwidth < math.inf or n_modes < 1:
        raise ValueError("bandwidth must be positive and finite, and n_modes >= 1")
    if n_modes == 1:
        freqs = np.array([w_q])
        spacing = bandwidth
    else:
        top = w_q + bandwidth / 2.0  # an infinite edge is refused before linspace warns on it
        freqs = np.linspace(w_q - bandwidth / 2.0, top, n_modes) if top < math.inf else None
        if freqs is None or not (np.diff(freqs) > 0).all():
            raise ValueError(
                f"a bandwidth of {bandwidth:g} GHz around omega_e = {w_q:g} GHz does not "
                f"resolve into {n_modes} distinct float64 mode frequencies"
            )
        spacing = freqs[1] - freqs[0]
    if freqs[0] <= 0:
        raise ValueError("bath extends to nonpositive frequencies; shrink bandwidth")
    with np.errstate(over="ignore", invalid="ignore"):  # BathSpec or the sector block refuses
        g = np.sqrt(spacing * w_q / (2.0 * math.pi * freqs))
    return BathSpec(mode_frequencies=freqs, couplings=g, spacing=spacing)


def _separations(d, o, s, tau, out=None):
    """For roots lam_j = d_o + s*tau, with origin poles o and frame signs
    s = +-1, one row per root (into out if given): the unsigned offsets
    u = d_i - lam_j, formed as (d_i - d_o) - s*tau so that each keeps a few
    ulp of relative accuracy.  The frame-signed separation is s*u, exactly."""
    sep = np.subtract(d, d[o, None], out=out)
    sep -= (s * tau)[:, None]
    return sep


def _model_step(g, near, beyond, tau, far):
    """The step eta from tau to the root tau + eta in (0, far) of the model
    c0 + w0/(-tau - eta) + w1/(far - tau - eta), with w0 = tau^2*near,
    w1 = (far - tau)^2*beyond and c0 fitted so that it takes G = g and
    G' = near + beyond at tau: the root of c*eta^2 - a*eta + b.  It is
    solved in the form of LAPACK's dlaed4, which keeps a small step
    accurate relative to g; where that step would not point against g,
    it is Newton's, -g/G'."""
    d1, d2 = -tau, far - tau
    newton = -g / (near + beyond)
    a = (d1 + d2) * g - d1 * d2 * (near + beyond)
    b = d1 * d2 * g
    c = g - d1 * near - d2 * beyond
    disc = np.sqrt(np.abs(a * a - 4.0 * b * c))
    eta = np.divide(2.0 * b, a + disc, out=newton.copy(), where=a > 0)
    np.divide(a - disc, 2.0 * c, out=eta, where=(a <= 0) & (c != 0))
    return np.where(g * eta < 0, eta, newton)


def _refine_roots(d, z2, o, s, far, hi, tau, scratch):
    """Move each offset tau (updated in place) onto the root of
    G(tau) = s*lam + sum_i z_i^2/(s*(d_i - lam)), lam = d_o + s*tau, inside
    its bracket (0, hi], with scratch a pair of arrays of tau.size x d.size
    or more for each d_i - lam (from ``_separations``) and z_i^2 over it.

    G increases with tau.  Each step fits c - a/tau + b/(far - tau) to G
    and G' at tau, the slopes of the poles at or beyond the origin lumped
    into a and the others', with that of s*lam, into b (the "middle way"
    of R.-C. Li, LAPACK Working Note 89), and moves to the model's root
    (``_model_step``), or bisects when that root leaves the bracket.  A
    root stops when |G| is within the rounding of its evaluation, or of
    tau itself (tau*G'*eps, as in LAPACK's dlaed4), or when its next step
    is within two ulp of it or its bracket two floats wide; only the
    roots still moving are evaluated again; s signs each unsigned sum.
    """
    act = np.arange(tau.size)
    lo, hi = np.zeros(tau.size), hi.copy()
    for _ in range(_SECULAR_STEPS):
        oa, sa, ta, fa = o[act], s[act], tau[act], far[act]
        at = np.arange(act.size)
        sep, t = scratch[:, : act.size]
        np.divide(z2, _separations(d, oa, sa, ta, out=sep), out=t)
        t[at, oa] = 0.0  # the origin pole's term, -z_o^2/tau, is kept apart
        signed = sa * d[oa] + ta  # s*lam
        pole = z2[oa] / ta
        g = signed + sa * np.sum(t, axis=1) - pole
        # the slopes z_i^2/sep_i^2, over all poles and net of those beyond the origin (s*sep < 0)
        slopes = np.divide(t, sep, out=sep)
        total = np.sum(slopes, axis=1)
        behind = 0.5 * (total - sa * np.sum(np.copysign(slopes, t, out=slopes), axis=1))
        scale = np.abs(signed) + np.sum(np.abs(t, out=t), axis=1) + pole
        grain = ta * (1.0 + total) + pole  # tau*G', G's step over one ulp of tau
        done = np.abs(g) <= _EPS * (_SECULAR_TOL * scale + 2.0 * grain)
        lo[act] = np.where(g < 0, ta, lo[act])
        hi[act] = np.where(g > 0, ta, hi[act])
        eta = _model_step(g, pole / ta + behind, 1.0 + total - behind, ta, fa)
        done |= np.abs(eta) <= 2.0 * _EPS * ta
        new = ta + eta
        inside = (new > lo[act]) & (new < hi[act])
        new = np.where(inside, new, 0.5 * (lo[act] + hi[act]))
        done |= new == ta  # a bracket two floats wide
        tau[act] = np.where(done, ta, new)
        act = act[~done]
        if not act.size:
            return
    raise RuntimeError("a secular root of the bath arrowhead did not converge")


def _secular_eigh(d, z):
    """Eigenvalues lam of H = [[0, z^T], [z, diag(d)]] for a strictly
    increasing d and z with no zero entry, ascending, the first entries
    V_0j of its eigenvectors, and the border z_hat they belong to.

    Root j is the one root of g(lam) = lam + sum_i z_i^2/(d_i - lam) in
    (d_(j-1), d_j), with d_(-1) = -inf and d_M = +inf.  It is sought as
    the offset tau = s*(lam - d_o) > 0 from its origin pole o, the end of
    its interval it lies nearer to, in a frame flipped by s = -1 when that
    pole lies above it, so that every lam - d_i keeps full relative
    accuracy.  An inner root's side, and a start from the two-pole model,
    come from g at the interval's midpoint; the outer roots lie within
    max(0, -s*d_o) + |z| of their pole, and their brackets reach twice
    |z| past that.  The eigenvectors follow from the z_hat of Loewner's
    formula, z_hat_i^2 = (d_i - lam_0)(lam_M - d_i) prod_{j=1}^{M-1}
    (lam_j - d_i)/(d_k - d_i), each factor paired with the pole
    k = j - 1 (i >= j) or j (i < j) beside its root, so that it lies in
    (0, 1] and no partial product over- or underflows.  That z_hat
    makes the eigenvectors V_0j = 1/sqrt(1 + sum_i z_hat_i^2/(lam_j -
    d_i)^2) and V_ij = z_hat_i*V_0j/(lam_j - d_i) orthogonal to a few ulp
    times M, and the pairs exact for the arrowhead with border z_hat
    (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172 (1995); Stor,
    Slapnicar & Barlow, Linear Algebra Appl. 464, 62 (2015)).  Only V_0j
    is formed.  Each pass takes d_i - lam_j from ``_separations`` for
    one block of roots at a time into a pair of scratch arrays of
    _SOLVER_BLOCK elements, allocated once per solve; s enters only through
    row sums, as each quotient and square is that of the signed values.
    """
    m = d.size
    z2 = z * z
    rows = max(1, _SOLVER_BLOCK // m)
    scratch = np.empty((2, min(rows, m + 1), m))
    o = np.empty(m + 1, dtype=np.intp)
    s, far, hi, tau = np.empty((4, m + 1))
    o[[0, m]], s[[0, m]] = (0, m - 1), (-1.0, 1.0)
    hi[[0, m]] = np.maximum(0.0, -s[[0, m]] * d[[0, m - 1]]) + 2.0 * math.sqrt(np.sum(z2))
    far[[0, m]] = 2.0 * hi[[0, m]]  # a model pole beyond the bracket
    tau[[0, m]] = 0.5 * hi[[0, m]]
    for lo_r in range(1, m, rows):
        j = np.arange(lo_r, min(lo_r + rows, m))
        gap = d[j] - d[j - 1]
        half = 0.5 * gap
        t = _separations(d, j - 1, 1.0, half, out=scratch[0, : j.size])
        mid_g = d[j - 1] + half + np.sum(np.divide(z2, t, out=t), axis=1)
        right = mid_g <= 0  # the root lies in the upper half
        o[j], s[j], far[j], hi[j] = j - 1 + right, np.where(right, -1.0, 1.0), gap, gap
        # the model of the two poles alone, with the rest held at its midpoint value
        near, beyond = z2[o[j]] / half**2, z2[2 * j - 1 - o[j]] / half**2
        step = _model_step(s[j] * mid_g, near, beyond, half, gap)
        tau[j] = np.where(np.abs(step) < half, half + step, half)
    for lo_r in range(0, m + 1, rows):
        blk = slice(lo_r, lo_r + rows)
        _refine_roots(d, z2, o[blk], s[blk], far[blk], hi[blk], tau[blk], scratch)

    prod = np.ones(m)
    for lo_r in range(0, m + 1, rows):
        j = np.arange(max(lo_r, 1), min(lo_r + rows, m))  # the inner roots
        if j.size:
            sep, paired = scratch[:, : j.size]
            # d_i - d_k, k = j - 1, or j where i < j, i.e. i - r < j_0 in row r: one flag per diagonal
            lower = np.lib.stride_tricks.sliding_window_view(np.arange(1 - j.size, m) < j[0], m)
            np.subtract(d, d[j - 1, None], out=paired)
            np.subtract(d, d[j, None], out=paired, where=lower[::-1])
            _separations(d, o[j], s[j], tau[j], out=sep)  # (lam_j - d_i)/(d_k - d_i), both negated
            prod *= np.prod(np.divide(sep, paired, out=paired), axis=0)
    ends = _separations(d, o[[0, m]], s[[0, m]], tau[[0, m]])  # roots 0 and M, s = -1 and +1
    z_hat = np.copysign(np.sqrt(-ends[0] * ends[1] * prod), z)
    v0 = np.empty(m + 1)
    for lo_r in range(0, m + 1, rows):
        blk = slice(lo_r, lo_r + rows)
        sep = _separations(d, o[blk], s[blk], tau[blk], out=scratch[0, : tau[blk].size])
        ratio = np.divide(z_hat, sep, out=sep)  # -+z_hat_i/(lam_j - d_i)
        v0[blk] = 1.0 / np.sqrt(1.0 + np.sum(np.multiply(ratio, ratio, out=ratio), axis=1))
    return d[o] + s * tau, v0, z_hat


def _bright_eigh(d, z):
    """Eigenvalues, ascending, and the first entries V_0j of the
    orthonormal eigenvectors of the bright part of the arrowhead
    H = [[0, z^T], [z, diag(d)]], d nondecreasing, by ``_secular_eigh``,
    and their backward error: no bit depends on BLAS threads.

    d and z are scaled by 2^-k, max(max|d|, max|z|) in [2^(k-1), 2^k):
    every step of the solver is homogeneous, so the bits are those of the
    unscaled solve wherever that neither over- nor underflows, and its
    rational steps stay in range at any finite input.

    A mode with |z_k| <= 8*eps*(max|d| + |z|), at most 16*eps*||H||_2, is
    dark and dropped: exact for H with that z_k set to zero.  Modes whose
    poles lie within that grain of the next one's, where z^2/tau^2 would
    leave float range, form a group G moved onto its first pole: one mode
    with coupling |z_G|, the |G| - 1 combinations orthogonal to z_G dark.
    A dark eigenvector has V_0j = 0 and so no weight in psi(t)
    (``integrate_amplitudes``); a merged mode's amplitude has the norm of
    its group's.  With no bright mode H reduces to [[0]].  The backward
    error bounds ||H - H_hat||_2, H_hat having each group at its first
    pole, Loewner's z_hat for each |z_G| and zero for each dark z_k: the
    border's error plus the largest group spread.
    """
    if np.any(d[1:] < d[:-1]):
        raise ValueError("the arrowhead's diagonal must be nondecreasing")
    k = math.frexp(max(np.max(np.abs(d)), np.max(np.abs(z))))[1]
    d, z = np.ldexp(d, -k), np.ldexp(z, -k)
    grain = 8.0 * _EPS * (np.max(np.abs(d)) + math.sqrt(np.sum(z * z)))
    live = np.abs(z) > grain
    dark_sq = np.sum(z[~live] ** 2)
    d, z = d[live], z[live]
    if not z.size:
        return np.zeros(1), np.ones(1), math.ldexp(math.sqrt(dark_sq), k)
    starts = np.flatnonzero(np.r_[True, d[1:] - d[:-1] > grain])  # the first mode of each pole
    z_g = np.hypot.reduceat(z, starts)
    lam, v0, z_hat = _secular_eigh(d[starts], z_g)
    spread = np.max(d[np.r_[starts[1:], d.size] - 1] - d[starts])
    backward = math.sqrt(np.sum((z_g - z_hat) ** 2) + dark_sq) + spread
    return np.ldexp(lam, k), v0, math.ldexp(backward, k)


def integrate_amplitudes(
    omega_e: float, amplitude, bath: BathSpec, t_final: float, dt: float, stride: int = 1
) -> AmplitudeTrajectory:
    """Exact solution, for an emitter of frequency omega_e with the
    emission amplitude A(omega_k) = amplitude[k] (complex, or a scalar
    for every mode), of

        d(alpha)/dt = -i sum_k g_k A(omega_k) beta_k exp(-i(omega_e-omega_k)t)
        d(beta_k)/dt = -i g_k A*(omega_k) alpha exp(+i(omega_e-omega_k)t)

    from alpha(0)=1, beta(0)=0, at the steps t = n*dt, n = 0, k, 2k, ... <=
    n_steps = ceil(t_final/dt), for the stride k (every step at k = 1).

    In the rotating frame b_k = beta_k exp(-i Delta_k t), Delta_k =
    omega_e - omega_k, with the phase of A(omega_k) absorbed into b_k,
    the system is psi' = -i H psi for psi = (alpha, b) and a constant real
    symmetric arrowhead H: diagonal (0, Delta_k), border z_k = g_k |A(omega_k)|.
    With H = V diag(lam) V^T, alpha(t) = sum_j V_0j^2 exp(-i lam_j t), and
    sum_k |beta_k|^2 = 1 - |alpha|^2, as psi keeps its norm.  lam and
    V_0j, no other entry of V, come from ``_bright_eigh``, the modes by
    descending frequency so that the Delta_k ascend.  alpha is evaluated
    with the split n = q*B + r, B the least multiple of k at or above
    isqrt(n_steps) + 1, k clamped to n_steps + 1, as one (q, j) x (j, r)
    product of block exponentials, each formed in place in one complex
    array, by ``np.einsum``, which calls no BLAS; only the r = 0, k,
    2k, ... get phases.  Where k divides isqrt(n_steps) + 1 the split is
    that of k = 1, so alpha at step n is the same float as at k = 1.

    The error bound error_floor + error_rate*t holds to first order in
    eps.  The pairs are exact for H_hat, and ||exp(-iHt) - exp(-iH_hat t)||
    <= t*||H - H_hat||_2, the backward error.  The exact weights of H_hat
    sum to 1; the computed w_j's error is estimated by |sum_j w_j - 1|.
    lam_j*t is formed as lam_j*t_q + lam_j*t_r, t_q + t_r within eps*t of
    t and each product rounded by eps/2 relative: with the w_j summing to
    1, 1.5*eps*max|lam|*t, taken as c*eps*max|lam|*t with c = 2.  Each of
    the lam.size terms is rounded by about 8*eps/2 relative (two
    exponentials, their product and the weight), and their sum by
    lam.size*eps/2: (lam.size + 8)*eps/2.  |alpha|^2 and
    sum_k |beta_k|^2 err by at most twice the bound.

    No step size limits the accuracy.  dt only sets where the output is
    sampled, and the stride which of those samples are evaluated; a dt so
    fine that t_final/dt overflows raises ValueError.  The
    RecurrenceError guard keeps the horizon inside the discretized
    bath's recurrence time, and ErrorBoundError refuses, before any
    exponential, a horizon at which the bound is not below 1: no digit of
    alpha would be correct.  Below it |lam_j|*t < 1/(2*eps) up to the
    horizon, as error_rate >= 2*eps*max|lam|, and the weights sum to
    less than 2, so alpha is finite.
    """
    if not (0 < t_final < math.inf and 0 < dt < math.inf):
        raise ValueError("t_final and dt must be positive and finite")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    detunings = omega_e - bath.mode_frequencies
    couplings = bath.couplings * np.abs(amplitude)
    if not (np.isfinite(detunings).all() and np.isfinite(couplings).all()):
        raise RuntimeError("non-finite amplitude equations")
    if t_final >= bath.recurrence_time:
        raise RecurrenceError(
            f"t_final {t_final:g} ns exceeds bath recurrence {bath.recurrence_time:.3g} ns"
        )

    steps = t_final / dt - 1e-12
    if not math.isfinite(steps):
        raise ValueError(f"t_final/dt = {t_final:g}/{dt:g} overflows the step count")
    n_steps = int(math.ceil(steps))
    stride = min(stride, n_steps + 1)  # past the last step, step 0 alone is written
    times = np.arange(0, n_steps + 1, stride) * dt
    lam, v0, backward = _bright_eigh(detunings[::-1], couplings[::-1])
    weights = v0**2
    error_floor = abs(float(np.sum(weights)) - 1.0) + 0.5 * _EPS * (lam.size + 8)
    error_rate = backward + 2.0 * _EPS * float(np.max(np.abs(lam)))
    horizon = n_steps * dt
    bound = error_floor + error_rate * horizon
    if not bound < 1.0:  # a nan is refused too
        raise ErrorBoundError(
            f"error bound error_floor + error_rate*t = {bound:.3g} at the horizon must stay below 1"
        )

    # every written step q*B + r has r = 0, stride, 2*stride, ...
    block = -(-(math.isqrt(n_steps) + 1) // stride) * stride
    e_q = np.multiply(-1j, np.multiply.outer(np.arange(0, n_steps + 1, block) * dt, lam))
    e_r = np.multiply(-1j, np.multiply.outer(np.arange(0, block, stride) * dt, lam))
    np.exp(e_q, out=e_q)
    np.exp(e_r, out=e_r)
    e_q *= weights
    alpha = np.einsum("qj,rj->qr", e_q, e_r).ravel()[: times.size]
    alpha[0] = 1.0  # the initial condition, not a rounding outcome

    return AmplitudeTrajectory(
        times=times, alpha=alpha, error_floor=error_floor, error_rate=error_rate, horizon=horizon
    )


def fit_decay(traj: AmplitudeTrajectory) -> float:
    """Exponential decay rate from a least-squares fit of ln|alpha(t)|^2.

    The fit window is the trajectory without its first 10%, which is
    excluded as transient.  Revivals inside the window (any rise of
    |alpha| beyond 1e-9) abort the fit.
    """
    t = traj.times
    mask = t >= t[0] + 0.1 * (t[-1] - t[0])
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
