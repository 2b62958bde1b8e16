import math

import numpy as np
import pytest

from quasilattice.model import CavitySpec, LatticeSpec
from quasilattice import dynamics, radiation

CAV = CavitySpec(omega_c=6.729, eta=0.1)
# drive frequency on a quasi-period multiple, where the golden-rule rate
# for the discretized continuum coincides with the analytic one
LAT = LatticeSpec(n_qubits=4, relative_spacing=2 / 3, omega_q=3 * 6.729)


def _rk4_reference(lattice, cavity, bath, t_final, dt):
    """Fixed-step fourth-order Runge-Kutta integration of the amplitude
    equations in the interaction picture, an independent reference for
    the exact propagator.  Returns alpha and sum_k |beta_k|^2 per step."""
    detunings = lattice.omega_q - bath.mode_frequencies
    s_k = np.atleast_1d(
        radiation.s_factor(lattice, cavity, bath.mode_frequencies)
    ).astype(complex)
    g_s = bath.couplings * s_k  # enters d(alpha)/dt
    g_s_conj = bath.couplings * np.conj(s_k)  # enters d(beta)/dt

    n_steps = int(math.ceil(t_final / dt - 1e-12))
    times = np.arange(n_steps + 1) * dt
    alpha_hist = np.empty(n_steps + 1, dtype=complex)
    beta_sq_hist = np.empty(n_steps + 1)

    alpha = 1.0 + 0.0j
    beta = np.zeros(bath.n_modes, dtype=complex)
    alpha_hist[0] = alpha
    beta_sq_hist[0] = 0.0

    def deriv(t, a, b):
        phase = np.exp(-1j * detunings * t)
        da = -1j * np.sum(g_s * b * phase)
        db = -1j * g_s_conj * a * np.conj(phase)
        return da, db

    for step in range(n_steps):
        t = times[step]
        da1, db1 = deriv(t, alpha, beta)
        da2, db2 = deriv(t + dt / 2, alpha + dt / 2 * da1, beta + dt / 2 * db1)
        da3, db3 = deriv(t + dt / 2, alpha + dt / 2 * da2, beta + dt / 2 * db2)
        da4, db4 = deriv(t + dt, alpha + dt * da3, beta + dt * db3)
        alpha = alpha + dt / 6 * (da1 + 2 * da2 + 2 * da3 + da4)
        beta = beta + dt / 6 * (db1 + 2 * db2 + 2 * db3 + db4)
        alpha_hist[step + 1] = alpha
        beta_sq_hist[step + 1] = float(np.sum(np.abs(beta) ** 2))
    return alpha_hist, beta_sq_hist


class TestBathSpec:
    def test_uniform_grid_centered_on_qubit(self):
        bath = dynamics.normalized_bath(LAT, bandwidth=0.5, n_modes=11)
        assert bath.n_modes == 11
        assert bath.mode_frequencies[5] == pytest.approx(LAT.omega_q)
        assert np.allclose(np.diff(bath.mode_frequencies), bath.spacing)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            dynamics.BathSpec(np.array([2.0, 1.0]), np.array([0.1, 0.1]), 1.0)
        with pytest.raises(ValueError):
            dynamics.BathSpec(np.array([1.0, 2.0]), np.array([0.1, -0.1]), 1.0)
        with pytest.raises(ValueError):
            dynamics.BathSpec(np.array([-1.0, 2.0]), np.array([0.1, 0.1]), 3.0)

    @pytest.mark.parametrize("freqs, couplings", [
        ([1.0, math.inf], [0.1, 0.1]),
        ([1.0, math.nan], [0.1, 0.1]),
        ([1.0, 2.0], [math.nan, 0.1]),
        ([1.0, 2.0], [math.inf, 0.1]),
    ])
    def test_rejects_non_finite_modes(self, freqs, couplings):
        with pytest.raises(ValueError, match="finite"):
            dynamics.BathSpec(np.array(freqs), np.array(couplings), 1.0)

    @pytest.mark.parametrize("spacing", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_spacing(self, spacing):
        with pytest.raises(ValueError, match="spacing"):
            dynamics.BathSpec(np.array([1.0, 2.0]), np.array([0.1, 0.1]), spacing)

    @pytest.mark.parametrize("epsilon_d", [0.0, -1.0])
    def test_physical_bath_rejects_non_finite_couplings(self, epsilon_d):
        # 1/0 and sqrt of a negative give inf and nan couplings
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                dynamics.physical_bath(LAT, 0.5, 11, mu=1.0, epsilon_d=epsilon_d, volume=1.0)

    def test_rejects_nonpositive_frequencies(self):
        with pytest.raises(ValueError):
            dynamics.normalized_bath(LAT, bandwidth=100.0, n_modes=11)

    @pytest.mark.parametrize("bandwidth", [math.nan, math.inf])
    def test_rejects_non_finite_bandwidth(self, bandwidth):
        with pytest.raises(ValueError):
            dynamics.normalized_bath(LAT, bandwidth=bandwidth, n_modes=11)

    def test_physical_couplings_scale(self):
        a = dynamics.physical_bath(LAT, 0.5, 11, mu=1.0, epsilon_d=1.0, volume=1.0)
        b = dynamics.physical_bath(LAT, 0.5, 11, mu=2.0, epsilon_d=1.0, volume=1.0)
        assert np.allclose(b.couplings, 2.0 * a.couplings)


class TestIntegration:
    def test_decoupled_amplitude_is_constant(self):
        bath = dynamics.BathSpec(
            np.linspace(19.0, 21.0, 11), np.zeros(11), 0.2
        )
        traj = dynamics.integrate_amplitudes(LAT, CAV, bath, 2.0, 0.01)
        assert np.max(np.abs(traj.alpha - 1.0)) == 0.0

    def test_single_resonant_mode_rabi(self):
        g = 0.05
        bath = dynamics.BathSpec(np.array([LAT.omega_q]), np.array([g]), 1.0)
        rabi = g * abs(radiation.s_factor(LAT, CAV, LAT.omega_q))
        traj = dynamics.integrate_amplitudes(LAT, CAV, bath, 60.0, 0.01)
        expected = np.cos(rabi * traj.times) ** 2
        assert np.max(np.abs(np.abs(traj.alpha) ** 2 - expected)) < 1e-9

    @pytest.mark.parametrize("n_qubits", [1, 4])
    def test_single_mode_rabi_is_exact_over_many_periods(self, n_qubits):
        lat = LatticeSpec(n_qubits, 2 / 3, LAT.omega_q)
        g = 1.0  # 7 (N=1) and 27 (N=4) Rabi periods in the horizon
        bath = dynamics.BathSpec(np.array([lat.omega_q]), np.array([g]), 1.0)
        rabi = g * abs(radiation.s_factor(lat, CAV, lat.omega_q))
        traj = dynamics.integrate_amplitudes(lat, CAV, bath, 3000.0, 0.5)
        expected = np.cos(rabi * traj.times) ** 2
        assert np.max(np.abs(np.abs(traj.alpha) ** 2 - expected)) < 1e-12
        assert np.max(np.abs(traj.beta_total_sq - (1.0 - expected))) < 1e-12

    def test_norm_conservation(self):
        bath = dynamics.normalized_bath(LAT, bandwidth=0.4, n_modes=101)
        traj = dynamics.integrate_amplitudes(LAT, CAV, bath, 60.0, 0.2)
        assert np.max(np.abs(1.0 - traj.norm_history)) < 1e-6 * max(1.0, traj.times[-1])

    @pytest.mark.parametrize(
        "n_qubits, ell", [(1, 2 / 3), (3, 2 / 3), (4, 2 / 3), (1, 0.0), (4, 0.0), (4, 1.0)]
    )
    def test_matches_rk4_reference(self, n_qubits, ell):
        lat = LatticeSpec(n_qubits, ell, LAT.omega_q)
        bath = dynamics.normalized_bath(lat, bandwidth=0.4, n_modes=51)
        traj = dynamics.integrate_amplitudes(lat, CAV, bath, 40.0, 0.2)
        alpha, beta_sq = _rk4_reference(lat, CAV, bath, 40.0, 0.2)
        assert np.max(np.abs(traj.alpha - alpha)) < 1e-10
        assert np.max(np.abs(traj.beta_total_sq - beta_sq)) < 1e-10

    def test_step_halving_convergence(self):
        # RK4's global error is O(dt^4): halving dt cuts it by about 16
        bath = dynamics.normalized_bath(LAT, bandwidth=0.4, n_modes=51)
        errors = []
        for dt in (0.2, 0.1):
            exact = dynamics.integrate_amplitudes(LAT, CAV, bath, 40.0, dt).alpha
            alpha, _ = _rk4_reference(LAT, CAV, bath, 40.0, dt)
            errors.append(np.max(np.abs(alpha - exact)))
        assert errors[0] > 8 * errors[1]

    def test_sampled_rows(self):
        bath = dynamics.normalized_bath(LAT, bandwidth=0.4, n_modes=51)
        every = dynamics.integrate_amplitudes(LAT, CAV, bath, 40.0, 0.2)
        strided = dynamics.integrate_amplitudes(LAT, CAV, bath, 40.0, 0.2, sample_stride=7)
        assert strided.times.size == strided.alpha.size == 201
        assert strided.beta_total_sq.size == strided.norm_history.size == len(range(0, 201, 7))
        assert np.array_equal(strided.alpha, every.alpha)
        assert np.allclose(strided.beta_total_sq, every.beta_total_sq[::7], rtol=0, atol=1e-14)

    def test_rejects_sample_stride_below_one(self):
        bath = dynamics.normalized_bath(LAT, bandwidth=0.4, n_modes=11)
        for stride in (0, -3):
            with pytest.raises(ValueError):
                dynamics.integrate_amplitudes(LAT, CAV, bath, 5.0, 0.2, sample_stride=stride)

    def test_rejects_non_finite_horizon_and_step(self):
        bath = dynamics.normalized_bath(LAT, bandwidth=0.4, n_modes=1)
        for t_final, dt in ((math.inf, 0.2), (math.nan, 0.2), (5.0, math.inf), (5.0, math.nan)):
            with pytest.raises(ValueError):
                dynamics.integrate_amplitudes(LAT, CAV, bath, t_final, dt)

    def test_coarse_step_rejected(self):
        bath = dynamics.normalized_bath(LAT, bandwidth=10.0, n_modes=51)
        with pytest.raises(dynamics.StepSizeError):
            dynamics.integrate_amplitudes(LAT, CAV, bath, 10.0, 0.1)

    def test_recurrence_guard(self):
        bath = dynamics.normalized_bath(LAT, bandwidth=0.5, n_modes=11)
        horizon = 2.0 * math.pi / bath.spacing + 1.0
        with pytest.raises(dynamics.RecurrenceError):
            dynamics.integrate_amplitudes(LAT, CAV, bath, horizon, 0.2)

    def test_l_resolved_matches_collapsed(self, monkeypatch):
        # the transition element is l-uniform, so driving the propagator
        # with an explicit per-l sum of chi_l gives the same dynamics as
        # the collapsed s(k)
        def l_resolved_s(lattice, cavity, k, branch=0):
            element = radiation.first_excited_transition(lattice, cavity, branch)
            s_k = np.zeros(np.size(k), dtype=complex)
            for l in radiation.l_values(lattice):
                s_k += radiation.chi(lattice, cavity, l, k)
            return s_k * element / lattice.n_qubits

        bath = dynamics.normalized_bath(LAT, bandwidth=0.4, n_modes=31)
        a = dynamics.integrate_amplitudes(LAT, CAV, bath, 30.0, 0.2)
        monkeypatch.setattr(dynamics, "s_factor", l_resolved_s)
        b = dynamics.integrate_amplitudes(LAT, CAV, bath, 30.0, 0.2)
        assert np.max(np.abs(a.alpha - b.alpha)) < 1e-12
        assert np.max(np.abs(a.beta_total_sq - b.beta_total_sq)) < 1e-12

    def test_initial_condition(self):
        bath = dynamics.normalized_bath(LAT, bandwidth=0.4, n_modes=11)
        traj = dynamics.integrate_amplitudes(LAT, CAV, bath, 5.0, 0.2)
        assert traj.alpha[0] == 1.0
        assert traj.beta_total_sq[0] == 0.0
        assert traj.norm_history[0] == 1.0


class TestFitDecay:
    def _synthetic(self, rate: float) -> dynamics.AmplitudeTrajectory:
        t = np.linspace(0.0, 100.0, 501)
        alpha = np.exp(-0.5 * rate * t).astype(complex)
        return dynamics.AmplitudeTrajectory(
            times=t, alpha=alpha, beta_total_sq=1.0 - np.abs(alpha) ** 2,
            norm_history=np.ones_like(t),
        )

    def test_exact_exponential(self):
        traj = self._synthetic(0.05)
        assert dynamics.fit_decay(traj) == pytest.approx(0.05, abs=1e-12)

    def test_rabi_trajectory_rejected(self):
        # horizon covers a full Rabi period, so the window contains a revival
        g = 0.05
        bath = dynamics.BathSpec(np.array([LAT.omega_q]), np.array([g]), 1.0)
        traj = dynamics.integrate_amplitudes(LAT, CAV, bath, 3000.0, 0.5)
        with pytest.raises(dynamics.NonMonotoneWindowError):
            dynamics.fit_decay(traj, window=(0.0, 3000.0))

    def test_window_too_small(self):
        traj = self._synthetic(0.05)
        with pytest.raises(ValueError):
            dynamics.fit_decay(traj, window=(0.0, 0.1))

    def test_markov_regime_matches_analytic(self):
        gamma = radiation.decay_rate(LAT, CAV).gamma_normalized
        bath = dynamics.normalized_bath(LAT, bandwidth=max(60 * gamma, 0.5), n_modes=601)
        recurrence = 2.0 * math.pi / bath.spacing
        t_final = min(3.0 / gamma, 0.8 * recurrence)
        traj = dynamics.integrate_amplitudes(LAT, CAV, bath, t_final, 0.2)
        fitted = dynamics.fit_decay(traj)
        assert 0.9 < fitted / gamma < 1.1
