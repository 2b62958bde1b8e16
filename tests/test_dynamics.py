import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasilattice.model import CavitySpec, LatticeSpec
from quasilattice import cli, dynamics, radiation

CAV = CavitySpec(omega_c=6.729, eta=0.1)
# drive frequency on a quasi-period multiple, where the golden-rule rate
# for the discretized continuum coincides with the analytic one
LAT = LatticeSpec(n_qubits=4, relative_spacing=2 / 3, omega_q=3 * 6.729)


def _polariton(lattice, cavity, bath, t_final, dt, stride=1):
    """``integrate_amplitudes`` for the lowest excited polariton of
    lattice, as the ``dynamics`` command calls it: the emitter at omega_q,
    with the amplitude s(omega_k) at each bath mode."""
    amplitude = radiation.s_factor(lattice, cavity, bath.mode_frequencies)
    return dynamics.integrate_amplitudes(lattice.omega_q, amplitude, bath, t_final, dt, stride)


@functools.cache
def _defaults_trajectory(stride):
    """``_polariton`` at the ``dynamics`` defaults, 601 modes and the
    auto horizon: 19 329 steps in blocks of B = 140, at the given stride."""
    bath = dynamics.normalized_bath(LAT.omega_q, 0.5, 601)
    gamma = radiation.decay_rate(LAT, CAV).gamma_normalized
    t_final = min(3.0 / gamma, 0.8 * bath.recurrence_time)
    return _polariton(LAT, CAV, bath, t_final, 0.2, stride)


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
        bath = dynamics.normalized_bath(LAT.omega_q, bandwidth=0.5, n_modes=11)
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
        with pytest.raises(ValueError, match="nonempty vector"):
            dynamics.BathSpec(np.array([]), np.array([]), 1.0)
        with pytest.raises(ValueError, match="match mode_frequencies in shape"):
            dynamics.BathSpec(np.array([1.0, 2.0]), np.array([0.1, 0.1, 0.1]), 1.0)

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

    def test_rejects_nonpositive_frequencies(self):
        with pytest.raises(ValueError):
            dynamics.normalized_bath(LAT.omega_q, bandwidth=100.0, n_modes=11)

    @pytest.mark.parametrize("bandwidth", [math.nan, math.inf])
    def test_rejects_non_finite_bandwidth(self, bandwidth):
        with pytest.raises(ValueError):
            dynamics.normalized_bath(LAT.omega_q, bandwidth=bandwidth, n_modes=11)

    @pytest.mark.parametrize("omega_q, bandwidth, n_modes", [
        (1e308, 0.5, 601),  # the grid collapses to one float; 2*pi*omega_k overflows
        (1e17, 0.5, 601),  # float64 spacing 16 GHz: a handful of distinct modes
        (13.458, 1e-14, 11),  # a bandwidth far below the resolution of omega_q
    ])
    def test_unresolved_grid_raises_before_arithmetic(self, omega_q, bandwidth, n_modes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="distinct float64 mode frequencies"):
                dynamics.normalized_bath(omega_q, bandwidth, n_modes)


class TestIntegration:
    def test_decoupled_amplitude_is_constant(self):
        bath = dynamics.BathSpec(
            np.linspace(19.0, 21.0, 11), np.zeros(11), 0.2
        )
        traj = _polariton(LAT, CAV, bath, 2.0, 0.01)
        assert np.max(np.abs(traj.alpha - 1.0)) == 0.0

    def test_single_resonant_mode_rabi(self):
        g = 0.05
        bath = dynamics.BathSpec(np.array([LAT.omega_q]), np.array([g]), 1.0)
        rabi = g * abs(radiation.s_factor(LAT, CAV, LAT.omega_q))
        traj = _polariton(LAT, CAV, bath, 60.0, 0.01)
        expected = np.cos(rabi * traj.times) ** 2
        assert np.max(np.abs(np.abs(traj.alpha) ** 2 - expected)) < 1e-9

    @pytest.mark.parametrize("n_qubits", [1, 4])
    def test_single_mode_rabi_is_exact_over_many_periods(self, n_qubits):
        lat = LatticeSpec(n_qubits, 2 / 3, LAT.omega_q)
        g = 1.0  # 7 (N=1) and 27 (N=4) Rabi periods in the horizon
        bath = dynamics.BathSpec(np.array([lat.omega_q]), np.array([g]), 1.0)
        rabi = g * abs(radiation.s_factor(lat, CAV, lat.omega_q))
        traj = _polariton(lat, CAV, bath, 3000.0, 0.5)
        expected = np.cos(rabi * traj.times) ** 2
        assert np.max(np.abs(np.abs(traj.alpha) ** 2 - expected)) < 1e-12
        assert np.max(np.abs(traj.beta_total_sq - (1.0 - expected))) < 1e-12

    def test_norm_conservation(self):
        bath = dynamics.normalized_bath(LAT.omega_q, bandwidth=0.4, n_modes=101)
        traj = _polariton(LAT, CAV, bath, 60.0, 0.2)
        assert np.max(traj.error_bound) < 1e-6 * max(1.0, traj.times[-1])

    @pytest.mark.parametrize(
        "n_qubits, ell", [(1, 2 / 3), (3, 2 / 3), (4, 2 / 3), (1, 0.0), (4, 0.0), (4, 1.0)]
    )
    def test_matches_rk4_reference(self, n_qubits, ell):
        lat = LatticeSpec(n_qubits, ell, LAT.omega_q)
        bath = dynamics.normalized_bath(lat.omega_q, bandwidth=0.4, n_modes=51)
        traj = _polariton(lat, CAV, bath, 40.0, 0.2)
        alpha, beta_sq = _rk4_reference(lat, CAV, bath, 40.0, 0.2)
        assert np.max(np.abs(traj.alpha - alpha)) < 1e-10
        assert np.max(np.abs(traj.beta_total_sq - beta_sq)) < 1e-10

    def test_step_halving_convergence(self):
        # RK4's global error is O(dt^4): halving dt cuts it by about 16
        bath = dynamics.normalized_bath(LAT.omega_q, bandwidth=0.4, n_modes=51)
        errors = []
        for dt in (0.2, 0.1):
            exact = _polariton(LAT, CAV, bath, 40.0, dt).alpha
            alpha, _ = _rk4_reference(LAT, CAV, bath, 40.0, dt)
            errors.append(np.max(np.abs(alpha - exact)))
        assert errors[0] > 8 * errors[1]

    def test_sampled_rows(self, tmp_path):
        # the CLI writes rows 0, 7, 14, ... of the every-step CSV: t_ns and
        # norm_residual byte for byte, and the largest written norm_residual
        # as max_norm_residual.  7 does not divide isqrt(200) + 1 = 15, so
        # alpha comes from the split B = 21, each within twice the bound of
        # the every-step value, and |alpha|^2 and 1 - |alpha|^2 within
        # twice that plus the rounding of the square
        argv = ["dynamics", "--n", "1", "--modes", "51", "--t-final", "40"]
        every, strided = tmp_path / "every.csv", tmp_path / "strided.csv"
        assert cli.main(argv + ["--sample-stride", "1", "--out", str(every)]) == 0
        assert cli.main(argv + ["--sample-stride", "7", "--out", str(strided)]) == 0
        header, *rows = every.read_bytes().split(b"\r\n")[:-1]
        written_header, *written = strided.read_bytes().split(b"\r\n")[:-1]
        assert len(rows) == 201 and written_header == header and len(written) == len(rows[::7])
        eps = np.finfo(float).eps
        for mine, theirs in zip(written, rows[::7]):
            mine, theirs = mine.split(b","), theirs.split(b",")
            assert (mine[0], mine[-1]) == (theirs[0], theirs[-1])
            _, re_a, im_a, a_sq, beta_sq, bound = np.array(mine, dtype=float)
            _, re_b, im_b, b_sq, beta_b, _ = np.array(theirs, dtype=float)
            assert abs(complex(re_a, im_a) - complex(re_b, im_b)) <= 2 * bound
            assert abs(a_sq - b_sq) <= 4 * bound + 2 * eps
            assert abs(beta_sq - beta_b) <= 4 * bound + 2 * eps
        summary = json.loads(Path(f"{strided}.summary.json").read_text())
        assert summary["max_norm_residual"] == max(float(r.split(b",")[-1]) for r in rows[::7])

    @pytest.mark.parametrize("stride", [1, 7, 10, 140, 19329, 10**20])
    def test_stride_keeps_the_bits_of_every_written_step(self, stride):
        # a stride that divides isqrt(19328) + 1 = 140 keeps the split
        # B = 140 of the every-step product, so each written alpha sums the
        # same (q, r) terms in the same order; 19 329 is past the last step,
        # so step 0 alone is written, and so it is at 10**20, past the int64
        # range, which is clamped to 19 329
        every, strided = _defaults_trajectory(1), _defaults_trajectory(stride)
        assert (every.times.size, math.isqrt(every.times.size - 1) + 1) == (19329, 140)
        assert strided.times.tobytes() == every.times[::stride].tobytes()
        assert strided.alpha.tobytes() == every.alpha[::stride].tobytes()
        assert (strided.error_floor, strided.error_rate) == (every.error_floor, every.error_rate)
        assert strided.horizon == every.horizon == every.times[-1]

    @pytest.mark.parametrize("stride", [9, 141])
    def test_stride_off_the_block_keeps_alpha_within_its_bound(self, stride):
        # 9 and 141 do not divide 140: the split is B = 144 and 141, the
        # same sum over other (q, r) pairs, so each written alpha lies
        # within its bound of the exact value, as the every-step one does
        every, strided = _defaults_trajectory(1), _defaults_trajectory(stride)
        assert strided.times.tobytes() == every.times[::stride].tobytes()
        gap = np.abs(strided.alpha - every.alpha[::stride])
        assert np.all(gap <= 2 * strided.error_bound)
        assert (strided.error_floor, strided.error_rate) == (every.error_floor, every.error_rate)
        assert strided.horizon == every.horizon == every.times[-1]

    @pytest.mark.parametrize("stride", [10, 9])
    def test_fit_reads_the_written_rows(self, tmp_path, stride):
        # gamma_fit_ghz is the least-squares fit of ln(alpha_sq) over the
        # CSV's rows past the first 10% of their span, to rtol 1e-12; the
        # fit over every step differs from it by 2e-9 relative or more
        out = tmp_path / "dyn.csv"
        assert cli.main(["dynamics", "--sample-stride", str(stride), "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        t, alpha_sq = data[:, 0], data[:, 3]
        window = t >= 0.1 * t[-1]
        rate = -np.polyfit(t[window], np.log(alpha_sq[window]), 1)[0]
        summary = json.loads(Path(f"{out}.summary.json").read_text())
        assert summary["gamma_fit_ghz"] == pytest.approx(rate, rel=1e-12, abs=0)
        every_step = dynamics.fit_decay(_defaults_trajectory(1))
        assert summary["gamma_fit_ghz"] != pytest.approx(every_step, rel=1e-9, abs=0)
        # the horizon is the last step's time, not the last written row's
        assert summary["t_final_ns"] == 19328 * 0.2 > t[-1]

    def test_too_few_written_rows_in_the_window_give_no_fit(self, tmp_path):
        # steps 0, 100 and 200 are written, and the window t >= 4 ns holds two
        out = tmp_path / "dyn.csv"
        argv = ["dynamics", "--n", "1", "--modes", "51", "--t-final", "40", "--sample-stride", "100"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes().count(b"\r\n") == 4
        summary = json.loads(Path(f"{out}.summary.json").read_text())
        assert summary["gamma_fit_ghz"] is None
        assert summary["fit_error"] == "fit window contains fewer than 3 samples"

    def test_peak_memory_holds_no_square_array(self):
        """The ``dynamics`` defaults at 2401 modes under tracemalloc, about
        1 s: 19 329 samples in blocks of B = 140, M + 1 = 2402 roots.

        The run needs the two phase blocks of B x (M+1) complex values
        (5.4 MB each), the real phase arguments of one block while it
        becomes complex (half a block), alpha and the times (0.5 MB), and,
        before the blocks, the solver's scratch: a few arrays of
        _SOLVER_BLOCK doubles (0.5 MB each), four counted.  That is 16 MB.
        The (M+1)-square eigenvector array alone would be 46 MB.
        """
        bath = dynamics.normalized_bath(LAT.omega_q, 0.5, 2401)
        gamma = radiation.decay_rate(LAT, CAV).gamma_normalized
        t_final = min(3.0 / gamma, 0.8 * bath.recurrence_time)
        tracemalloc.start()
        try:
            traj = _polariton(LAT, CAV, bath, t_final, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        roots = bath.n_modes + 1
        block = math.isqrt(traj.alpha.size - 1) + 1
        phase_block = block * roots * 16
        needed = 2.5 * phase_block + traj.alpha.size * 24 + 4 * dynamics._SOLVER_BLOCK * 8
        assert (block, traj.alpha.size) == (140, 19329)
        assert peak < needed < roots**2 * 8 / 2

    def test_rejects_sample_stride_below_one(self, tmp_path, capsys):
        out = tmp_path / "dyn.csv"
        for stride in (0, -3):
            argv = ["dynamics", "--modes", "11", "--t-final", "5", "--sample-stride", str(stride)]
            assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_USAGE
            assert capsys.readouterr().err == f"error: sample_stride must be at least 1, got {stride}\n"
            assert not out.exists()

    def test_rejects_stride_below_one(self):
        bath = dynamics.normalized_bath(LAT.omega_q, bandwidth=0.4, n_modes=1)
        for stride in (0, -3):
            with pytest.raises(ValueError, match=f"stride must be at least 1, got {stride}"):
                dynamics.integrate_amplitudes(LAT.omega_q, 1.0, bath, 5.0, 0.2, stride)

    def test_rejects_non_finite_horizon_and_step(self):
        bath = dynamics.normalized_bath(LAT.omega_q, bandwidth=0.4, n_modes=1)
        for t_final, dt in ((math.inf, 0.2), (math.nan, 0.2), (5.0, math.inf), (5.0, math.nan)):
            with pytest.raises(ValueError):
                _polariton(LAT, CAV, bath, t_final, dt)
        # a non-finite emitter frequency or amplitude makes no amplitude equations
        for omega_e, amplitude in ((LAT.omega_q, math.nan), (LAT.omega_q, math.inf), (math.inf, 1.0)):
            with pytest.raises(RuntimeError, match="^non-finite amplitude equations$"):
                dynamics.integrate_amplitudes(omega_e, amplitude, bath, 5.0, 0.2)

    def test_coarse_step_runs_within_its_bound(self):
        # dt*max|omega_e - omega_k| = 0.5: no step size limits the accuracy,
        # so alpha at the steps of dt = 0.1 lies within the two bounds of
        # alpha at every other step of dt = 0.05, at the same times
        bath = dynamics.normalized_bath(LAT.omega_q, bandwidth=10.0, n_modes=51)
        coarse = _polariton(LAT, CAV, bath, 10.0, 0.1)
        fine = _polariton(LAT, CAV, bath, 10.0, 0.05, stride=2)
        assert coarse.times.tobytes() == fine.times.tobytes() and coarse.times.size == 101
        assert np.max(coarse.error_bound) < 1e-13
        assert np.all(np.abs(coarse.alpha - fine.alpha) <= coarse.error_bound + fine.error_bound)

    def test_bound_of_one_at_the_horizon_rejected(self):
        # a coupling of 1e153 GHz: error_rate >= 2*eps*max|lam| makes the
        # bound about 4e137*t, so no digit of alpha would be correct
        bath = dynamics.BathSpec(np.array([LAT.omega_q]), np.array([1e153]), 1.0)
        with pytest.raises(dynamics.ErrorBoundError, match="must stay below 1"):
            dynamics.integrate_amplitudes(LAT.omega_q, 1.0, bath, 10.0, 0.2)

    def test_recurrence_guard(self):
        bath = dynamics.normalized_bath(LAT.omega_q, bandwidth=0.5, n_modes=11)
        horizon = 2.0 * math.pi / bath.spacing + 1.0
        with pytest.raises(dynamics.RecurrenceError):
            _polariton(LAT, CAV, bath, horizon, 0.2)

    def test_l_resolved_matches_collapsed(self):
        # the transition element is l-uniform, so driving the propagator
        # with an explicit per-l sum of chi_l gives the same dynamics as
        # the collapsed s(k)
        def l_resolved_s(lattice, cavity, k, branch=0):
            element = radiation.first_excited_transition(lattice, cavity, branch)
            s_k = np.zeros(np.size(k), dtype=complex)
            for l in radiation.l_values(lattice):
                s_k += radiation.chi(lattice, cavity, l, k)
            return s_k * element / lattice.n_qubits

        bath = dynamics.normalized_bath(LAT.omega_q, bandwidth=0.4, n_modes=31)
        a = _polariton(LAT, CAV, bath, 30.0, 0.2)
        l_resolved = l_resolved_s(LAT, CAV, bath.mode_frequencies)
        b = dynamics.integrate_amplitudes(LAT.omega_q, l_resolved, bath, 30.0, 0.2)
        assert np.max(np.abs(a.alpha - b.alpha)) < 1e-12
        assert np.max(np.abs(a.beta_total_sq - b.beta_total_sq)) < 1e-12

    def test_only_the_amplitude_modulus_enters(self):
        # the phase of A(omega_k) is absorbed into b_k, and a scalar stands
        # for every mode: s(omega_k) against |s(omega_k)| and against s
        # turned by seeded quarter turns, which round nothing, and a scalar
        # against the same constant per mode give the same bits; seeded
        # phases of any angle round |A| by an ulp, and stay within the two
        # runs' bounds
        bath = dynamics.normalized_bath(LAT.omega_q, bandwidth=0.4, n_modes=51)
        s_k = radiation.s_factor(LAT, CAV, bath.mode_frequencies)
        rng = np.random.default_rng(0)
        turns = np.array([1, 1j, -1, -1j])[rng.integers(0, 4, s_k.size)]
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, s_k.size))
        const = 0.7 - 0.2j

        def run(amplitude):
            return dynamics.integrate_amplitudes(LAT.omega_q, amplitude, bath, 120.0, 0.2)

        for x, y in [(s_k, np.abs(s_k)), (s_k, s_k * turns), (const, np.full(s_k.size, const))]:
            a, b = run(x), run(y)
            assert a.alpha.tobytes() == b.alpha.tobytes()
            assert a.error_bound.tobytes() == b.error_bound.tobytes()
        a, b = run(s_k), run(s_k * phases)
        assert np.all(np.abs(b.alpha - a.alpha) <= b.error_bound + a.error_bound)

    def test_initial_condition(self):
        bath = dynamics.normalized_bath(LAT.omega_q, bandwidth=0.4, n_modes=11)
        traj = _polariton(LAT, CAV, bath, 5.0, 0.2)
        assert traj.alpha[0] == 1.0
        assert traj.beta_total_sq[0] == 0.0
        assert traj.error_bound[0] == 0.0

    def test_dark_modes_change_no_bit(self):
        # a mode with zero coupling is dropped before the eigensolver, so
        # the run is the run on the bath without it, bit for bit
        bath = dynamics.normalized_bath(LAT.omega_q, bandwidth=0.4, n_modes=51)
        couplings = bath.couplings.copy()
        couplings[::3] = 0.0
        dark = dynamics.BathSpec(bath.mode_frequencies, couplings, bath.spacing)
        keep = couplings > 0
        bright = dynamics.BathSpec(bath.mode_frequencies[keep], couplings[keep], bath.spacing)
        a = _polariton(LAT, CAV, dark, 120.0, 0.2)
        b = _polariton(LAT, CAV, bright, 120.0, 0.2)
        assert a.alpha.tobytes() == b.alpha.tobytes()
        assert a.beta_total_sq.tobytes() == b.beta_total_sq.tobytes()

    def test_dynamics_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS may split and round a product differently at another
        # thread count; ``dynamics`` makes no BLAS call, so one and two
        # threads give the same CSV and summary bytes
        src = str(Path(dynamics.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = set()
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.csv"
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "quasilattice.cli",
                            "dynamics", "--out", str(out)], env=env, check=True)
            outputs.add((out.read_bytes(), Path(f"{out}.summary.json").read_bytes()))
        assert len(outputs) == 1


def _arrowhead(lattice, cavity, bath):
    """Diagonal d and border z of the rotating-frame arrowhead H, the
    modes by descending frequency, as ``integrate_amplitudes`` forms them."""
    s_k = np.atleast_1d(radiation.s_factor(lattice, cavity, bath.mode_frequencies))
    return (lattice.omega_q - bath.mode_frequencies)[::-1], (bath.couplings * np.abs(s_k))[::-1]


def _bright_eigh_rows(d, z):
    """lam, V with the bright eigenvectors as columns, and the backward
    error, of ``_bright_eigh``, which returns V's first row only.  The
    other rows are formed here by Loewner's formula, V_ij =
    z_hat_i*V_0j/(lam_j - d_i), from the z_hat and the roots
    lam_j = d_o + s*tau of its solve, with the separations lam_j - d_i
    formed as the solver forms them, -u of ``dynamics._separations``:
    a plain lam - d would lose their relative accuracy near the poles."""
    solve, refine = dynamics._secular_eigh, dynamics._refine_roots
    solves, roots = [], []

    def recorded_solve(d, z):
        lam, v0, z_hat = solve(d, z)
        solves.append((d, z_hat))
        return lam, v0, z_hat

    def recorded_refine(d, z2, o, s, far, hi, tau, scratch):
        refine(d, z2, o, s, far, hi, tau, scratch)
        roots.append((o.copy(), s.copy(), tau.copy()))  # one block of roots, in order

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_secular_eigh", recorded_solve)
        patch.setattr(dynamics, "_refine_roots", recorded_refine)
        lam, v0, backward = dynamics._bright_eigh(d, z)
    if not solves:  # no bright mode: H is [[0]]
        return lam, v0[None, :], backward
    [(poles, z_hat)] = solves
    o, s, tau = (np.concatenate(part) for part in zip(*roots))
    rows = np.divide(z_hat, -dynamics._separations(poles, o, s, tau))  # row j: z_hat_i/(lam_j - d_i)
    rows *= v0[:, None]
    return lam, np.vstack((v0, rows.T)), backward


def _arrowhead_eigensystem(lattice, cavity, bath):
    """lam and V of the rotating-frame arrowhead H, from the eigensolver
    ``integrate_amplitudes`` calls."""
    return _bright_eigh_rows(*_arrowhead(lattice, cavity, bath))[:2]


def _whole_time_alpha(lam, vecs, times):
    """alpha by the q*B + r block product that ``integrate_amplitudes``
    uses, summed by ``np.einsum``."""
    n_steps = times.size - 1
    block = math.isqrt(n_steps) + 1
    e_q = np.exp(-1j * np.multiply.outer(times[::block], lam)) * vecs[0] ** 2
    e_r = np.exp(-1j * np.multiply.outer(times[:block], lam))
    alpha = np.einsum("qj,rj->qr", e_q, e_r).ravel()[: n_steps + 1]
    alpha[0] = 1.0
    return alpha


def _whole_time_bath(lam, vecs, sampled, chunk=256):
    """sum_k |beta_k|^2 with the phase of every sample from one cos and
    one sin of lam*t, and one product each for the real and imaginary
    parts: the bath evaluation before the block phases."""
    v0, bath_vecs = vecs[0], vecs[1:].T
    beta_sq = np.empty(sampled.size)
    for lo in range(0, sampled.size, chunk):
        phase = np.multiply.outer(sampled[lo : lo + chunk], lam)
        re = (np.cos(phase) * v0) @ bath_vecs
        im = (np.sin(phase) * v0) @ bath_vecs
        beta_sq[lo : lo + chunk] = np.sum(re * re + im * im, axis=1)
    beta_sq[0] = 0.0
    return beta_sq


def _bath_tolerance(lam, t_final):
    """Bound on the gap between two evaluations of sum_k |beta_k|^2 whose
    phases e_j = exp(-i lam_j t) are rounded differently.

    The block route forms t_lo*lam_j and t_r*lam_j, where t_lo + t_r is
    within 2*eps*t_final of the sampled t, and the whole-time route forms
    t*lam_j: the arguments differ by at most 4*eps*|lam_j|*t_final.  Two
    complex exponentials, their product and the weight V_0j add at most
    8*eps, so the weights w_j = V_0j e_j of the two routes differ by
    delta_phase*|V_0j| with delta_phase = eps*(4*max|lam|*t_final + 8),
    and in the 2-norm by delta_phase, as |V_0| = 1.  The bath amplitudes
    b = V_bath w move by no more, the rows of V being orthonormal.  Each
    route's products round every b_k by gamma_{M+1}*sum_j |V_kj||w_j|,
    which is at most gamma_{M+1}*sqrt(M) in the 2-norm over k, for the
    real and the imaginary part alike: 4*gamma_{M+1}*sqrt(M) for both
    routes.  With delta the sum of the two, and |b| <= 1,
    |sum|b|^2 - sum|b'|^2| <= (|b| + |b'|)*|b - b'| <= (2 + delta)*delta,
    plus 3*gamma_{M+1} for squaring and summing M terms in each route.
    """
    eps = np.finfo(float).eps
    m = lam.size
    gamma = m * eps / (1.0 - m * eps)
    delta = eps * (4.0 * np.max(np.abs(lam)) * t_final + 8.0) + 4.0 * gamma * math.sqrt(m - 1)
    return (2.0 + delta) * delta + 3.0 * gamma


BATH_CASES = {
    # bath, cavity, t_final, dt and the stride of the steps compared; the
    # names count chunks of 128 samples, the unit of an earlier bath
    # evaluation
    "defaults": (dynamics.normalized_bath(LAT.omega_q, 0.5, 601), CAV, None, 0.2, 10),
    # 601 samples
    "stride-1-partial-chunk": (dynamics.normalized_bath(LAT.omega_q, 0.4, 51), CAV, 120.0, 0.2, 1),
    # 512 samples
    "whole-chunks": (dynamics.normalized_bath(LAT.omega_q, 0.4, 51), CAV, 102.2, 0.2, 1),
    # 351 samples at stride 10
    "stride-10": (dynamics.normalized_bath(LAT.omega_q, 0.4, 51), CAV, 700.0, 0.2, 10),
    # 101 samples
    "short": (dynamics.normalized_bath(LAT.omega_q, 0.4, 51), CAV, 20.0, 0.2, 1),
    "one-mode": (dynamics.BathSpec(np.array([LAT.omega_q]), np.array([0.05]), 1.0),
                 CAV, 300.0, 0.5, 1),
    "eta-0": (dynamics.normalized_bath(LAT.omega_q, 0.4, 51), CavitySpec(6.729, 0.0), 120.0, 0.2, 1),
}


class TestBathEvaluation:
    """alpha against the block product bit for bit, and the bath
    population 1 - |alpha|^2 against sum_k |beta_k|^2 evaluated from psi
    with one exponential of the whole time."""

    @pytest.mark.parametrize("case", sorted(BATH_CASES))
    def test_matches_whole_time_phases(self, case):
        bath, cavity, t_final, dt, stride = BATH_CASES[case]
        if t_final is None:  # the horizon ``dynamics`` picks at its defaults
            gamma = radiation.decay_rate(LAT, cavity).gamma_normalized
            t_final = min(3.0 / gamma, 0.8 * 2.0 * math.pi / bath.spacing)
        traj = _polariton(LAT, cavity, bath, t_final, dt)
        lam, vecs = _arrowhead_eigensystem(LAT, cavity, bath)
        assert np.array_equal(traj.alpha, _whole_time_alpha(lam, vecs, traj.times))
        sampled = traj.times[::stride]
        beta_sq = traj.beta_total_sq[::stride]
        assert beta_sq.size == sampled.size
        reference = _whole_time_bath(lam, vecs, sampled)
        gap = np.max(np.abs(beta_sq - reference))
        assert gap <= _bath_tolerance(lam, traj.times[-1])


def _solver_case(case, m):
    """d and z of an M-mode arrowhead: the bath of ``normalized_bath``
    with omega_q on a quasi-period multiple (LAT) or off it, at eta = 0
    (z = 0 everywhere), or with every third coupling zero."""
    lat = LAT if case != "off-quasi-period" else LatticeSpec(4, 0.37, 13.458)
    cavity = CAV if case != "eta-0" else CavitySpec(6.729, 0.0)
    bath = dynamics.normalized_bath(lat.omega_q, 0.5, m)
    if case == "part-zero":
        couplings = bath.couplings.copy()
        couplings[::3] = 0.0
        bath = dynamics.BathSpec(bath.mode_frequencies, couplings, bath.spacing)
    return _arrowhead(lat, cavity, bath)


def _bright_embedding(d, z, vecs):
    """The bright eigenvectors of ``_bright_eigh`` in the full space of H,
    a merged mode's entry spread over its group as z_k/|z_G|, and the
    poles the solver dropped: each zero-coupling d_k, and each merged pole
    |G| - 1 times.  The dark couplings of these cases are exact zeros."""
    live = np.flatnonzero(z)
    head = np.ones(live.size, dtype=bool)
    head[1:] = d[live][1:] != d[live][:-1]
    pole = np.cumsum(head) - 1
    rho = np.sqrt(np.bincount(pole, weights=z[live] ** 2))
    full = np.zeros((d.size + 1, vecs.shape[1]))
    full[0] = vecs[0]
    full[1 + live] = vecs[1 + pole] * (z[live] / rho[pole])[:, None]
    return full, np.concatenate((d[z == 0], d[live][~head]))


def _assert_alpha_within_bound(omega_e, freqs, couplings):
    """``integrate_amplitudes`` for the bath (freqs, couplings) at unit
    amplitude, with no RuntimeWarning, against alpha(t) from dense eigh of
    the same arrowhead, over 0..20 ns.  eigh's pairs are exact for H + E,
    ||E||_2 <= 4*n*eps*||H||_2 (see ``TestArrowheadEigensolver``), and
    orthonormal to 4*n*eps: its alpha lies within 4*n*eps*(1 + ||H||_2*t)
    of the exact one, and the solver's within its own bound."""
    bath = dynamics.BathSpec(freqs, couplings, 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = dynamics.integrate_amplitudes(omega_e, 1.0, bath, 20.0, 0.5)
    d = (omega_e - bath.mode_frequencies)[::-1]
    h = np.diag(np.concatenate(([0.0], d)))
    h[0, 1:] = h[1:, 0] = bath.couplings[::-1]
    lam, vecs = np.linalg.eigh(h)
    dense = np.exp(-1j * np.multiply.outer(traj.times, lam)) @ vecs[0] ** 2
    n, h_norm = lam.size, np.max(np.abs(lam))
    dense_bound = 4 * n * np.finfo(float).eps * (1.0 + h_norm * traj.times)
    assert np.all(np.abs(traj.alpha - dense) <= traj.error_bound + dense_bound)


class TestArrowheadEigensolver:
    """The secular-equation solver against LAPACK's dense eigh.

    Both are backward stable.  eigh's pairs are exact for H + E with
    ||E||_2 <= p(M)*eps*||H||_2, p a modest function of M (LAPACK Users'
    Guide, sec. 4.7).  The secular solver's are exact, to a few ulp per
    vector entry, for the arrowhead whose border is Loewner's z_hat: a
    product of 2M - 1 paired factors, each rounded about four times, so
    |z_hat - z| <= 2*M*eps*|z| to first order; the couplings these cases
    deflate are exact zeros, which leave H as it is.  By Weyl's theorem
    two such spectra lie within 4*M*eps*||H||_2 of each other.  The
    computed eigenvectors of Loewner's arrowhead are orthogonal to a few
    ulp times M (Gu & Eisenstat 1995), and their residual against H is
    |z_hat - z| at most: 4*M*eps and 4*M*eps*||H||_2 hold both with room
    for the constants.  The solver returns the bright pairs only; the
    poles it drops complete the spectrum, and the bright vectors, spread
    back over each merged group, are eigenvectors of H itself.
    """

    @pytest.mark.parametrize("m", [1, 2, 51, 151, 601])
    @pytest.mark.parametrize("case", ["on-quasi-period", "off-quasi-period", "eta-0", "part-zero"])
    def test_matches_dense_eigh(self, case, m):
        d, z = _solver_case(case, m)
        h = np.diag(np.concatenate(([0.0], d)))
        h[0, 1:] = h[1:, 0] = z
        lam, vecs, _ = _bright_eigh_rows(d, z)
        full, dropped = _bright_embedding(d, z, vecs)
        reference = np.linalg.eigvalsh(h)
        h_norm = np.max(np.abs(reference))
        eps = np.finfo(float).eps
        assert vecs.shape == (lam.size, lam.size) and np.all(np.diff(lam) >= 0)
        assert lam.size + dropped.size == m + 1
        spectrum = np.sort(np.concatenate((lam, dropped)))
        assert np.max(np.abs(spectrum - reference)) <= 4 * m * eps * h_norm
        assert np.max(np.abs(full.T @ full - np.eye(lam.size))) <= 4 * m * eps
        assert np.max(np.abs(h @ full - full * lam)) <= 4 * m * eps * h_norm

    def test_zero_couplings_decouple_exactly(self):
        d, z = _solver_case("eta-0", 51)
        lam, vecs, _ = _bright_eigh_rows(d, z)
        assert lam.tolist() == [0.0] and vecs.tolist() == [[1.0]]

    def test_coinciding_poles_deflate(self):
        # 4 - (1 + 2^-52) rounds to 3.0: two distinct modes, one float pole
        d = np.array([-1.0, 3.0, 3.0, 3.0, 5.0])
        assert 4.0 - (1.0 + 2.0**-52) == 3.0
        z = np.array([0.3, 0.2, 0.5, 0.1, 0.4])
        h = np.diag(np.concatenate(([0.0], d)))
        h[0, 1:] = h[1:, 0] = z
        lam, vecs, _ = _bright_eigh_rows(d, z)
        full, dropped = _bright_embedding(d, z, vecs)
        eps = np.finfo(float).eps
        assert lam.size == 4 and dropped.tolist() == [3.0, 3.0]  # |G| - 1 dark pairs
        spectrum = np.sort(np.concatenate((lam, dropped)))
        assert np.max(np.abs(spectrum - np.linalg.eigvalsh(h))) <= 4 * 5 * eps * 5.5
        assert np.max(np.abs(full.T @ full - np.eye(4))) <= 4 * 5 * eps
        assert np.max(np.abs(h @ full - full * lam)) <= 4 * 5 * eps * 5.5

    def test_near_coincident_poles_merge(self):
        # two poles 6e-252 apart at unit scale: z^2/tau^2 of the two-pole
        # model overflows unless they merge, as coinciding poles do, into
        # one pole at 0 with coupling sqrt(2), at a backward error of the
        # spread; the bath [delta, 2*delta] at omega_e = 2*delta gives d exactly
        delta = 6.13266001722915e-252
        d, z = np.array([0.0, delta]), np.array([1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, v0, backward = dynamics._bright_eigh(d, z)
        eps = np.finfo(float).eps
        assert np.max(np.abs(lam - [-math.sqrt(2.0), math.sqrt(2.0)])) <= 4 * 2 * eps * 1.5
        assert np.max(np.abs(v0**2 - 0.5)) <= 4 * 2 * eps
        assert delta <= backward <= delta + 4 * 2 * eps * 1.5
        _assert_alpha_within_bound(2.0 * delta, np.array([delta, 2.0 * delta]), z)

    # 100 baths of up to 24 modes in clusters whose poles lie from
    # 1e-320 to 1e-12 apart, a few ms each
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(
        st.integers(-2, 1000), st.floats(1.0, 2.0),  # the cluster's lowest mode, m*2^-e
        st.lists(st.sampled_from([1e-320, 1e-300, 1e-250, 1e-200, 1e-155, 1e-150, 1e-100,
                                  1e-20, 1e-16, 1e-15, 1e-12]), max_size=5),
        st.floats(1e-3, 4.0),  # the coupling of each of its modes
    ), min_size=1, max_size=4))
    def test_clustered_poles_keep_alpha_within_its_bound(self, clusters):
        freqs, z = [], []
        for e, m, gaps, coupling in clusters:
            modes = math.ldexp(m, -e) + np.cumsum([0.0, *gaps])
            freqs.extend(modes)
            z.extend([coupling] * modes.size)
        freqs, first = np.unique(freqs, return_index=True)
        _assert_alpha_within_bound(0.0, freqs, np.array(z)[first])

    @pytest.mark.parametrize("k", [-600, -40, 40, 600])
    def test_power_of_two_scaling_changes_no_bit(self, k):
        d, z = _solver_case("part-zero", 151)
        lam, vecs, backward = _bright_eigh_rows(d, z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = _bright_eigh_rows(np.ldexp(d, k), np.ldexp(z, k))
        assert scaled[0].tobytes() == np.ldexp(lam, k).tobytes()
        assert scaled[1].tobytes() == vecs.tobytes()
        assert scaled[2] == math.ldexp(backward, k)

    @pytest.mark.parametrize("d", [[0.0], [-1e153, 0.0, 2e153]])
    def test_huge_coupling_solves_without_overflow(self, d):
        # d1*d2*g of the rational step overflows at z ~ 1e153 unless the
        # solver works at unit scale
        d, z = np.array(d), np.full(len(d), 1e153)
        h = np.diag(np.concatenate(([0.0], d)))
        h[0, 1:] = h[1:, 0] = z
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, vecs, _ = _bright_eigh_rows(d, z)
        eps = np.finfo(float).eps
        reference = np.linalg.eigvalsh(h)
        h_norm = np.max(np.abs(reference))
        m = d.size
        assert np.max(np.abs(lam - reference)) <= 4 * m * eps * h_norm
        assert np.max(np.abs(vecs.T @ vecs - np.eye(m + 1))) <= 4 * m * eps
        assert np.max(np.abs(h @ vecs - vecs * lam)) <= 4 * m * eps * h_norm

    def test_rejects_unsorted_diagonal(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            dynamics._bright_eigh(np.array([1.0, 0.5]), np.array([0.1, 0.1]))

    def test_makes_no_dense_linear_algebra_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense linear algebra call")

        cases = [_solver_case(case, 151) for case in ("on-quasi-period", "part-zero")]
        cases.append((np.array([-1.0, 3.0, 3.0, 5.0]), np.array([0.3, 0.2, 0.5, 0.4])))
        for name in ("eigh", "eigvalsh", "norm", "solve", "qr", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for name in ("dot", "vdot", "inner", "matmul", "einsum", "tensordot"):
            monkeypatch.setattr(np, name, refuse)
        for d, z in cases:
            dynamics._bright_eigh(d, z)

    def test_bits_do_not_depend_on_blas_threads(self):
        # eigh of the same 602-square arrowhead differs in its last bits
        # between one and two OpenBLAS threads; the secular solver makes no
        # BLAS call, so each thread count gives the same bytes
        src = str(Path(dynamics.__file__).resolve().parents[1])
        code = (
            "import hashlib, numpy as np, test_dynamics as t; "
            "from quasilattice import dynamics; "
            "lam, v0, _ = dynamics._bright_eigh(*t._solver_case('on-quasi-period', 601)); "
            "print(hashlib.sha256(lam.tobytes() + v0.tobytes()).hexdigest())"
        )
        digests = set()
        for threads in ("1", "2"):
            path = os.pathsep.join(filter(None, [src, str(Path(__file__).parent),
                                                 os.environ.get("PYTHONPATH")]))
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code], env=env,
                                  capture_output=True, text=True, check=True)
            digests.add(done.stdout)
        assert len(digests) == 1


def _frame_signed_separations(d, o, s, tau):
    """The solver's separations as they were formed before its offsets went
    unsigned: s*(d_i - d_o) - tau, the frame-signed s*(d_i - lam_j)."""
    sep = np.subtract(d, d[o, None])
    sep *= s[:, None]
    sep -= tau[:, None]
    return sep


def _frame_signed_refine_roots(d, z2, o, s, far, hi, tau):
    """``dynamics._refine_roots`` on frame-signed separations, with a fresh
    array for each of its passes: the reference for its bits."""
    act = np.arange(tau.size)
    lo, hi = np.zeros(tau.size), hi.copy()
    for _ in range(dynamics._SECULAR_STEPS):
        oa, ta, fa = o[act], tau[act], far[act]
        at = np.arange(act.size)
        sep = _frame_signed_separations(d, oa, s[act], ta)
        t = z2 / sep
        t[at, oa] = 0.0
        signed = s[act] * d[oa] + ta
        pole = z2[oa] / ta
        g = signed + np.sum(t, axis=1) - pole
        slopes = np.divide(t, sep, out=sep)
        total = np.sum(slopes, axis=1)
        behind = 0.5 * (total - np.sum(np.copysign(slopes, t, out=slopes), axis=1))
        scale = np.abs(signed) + np.sum(np.abs(t, out=t), axis=1) + pole
        grain = ta * (1.0 + total) + pole
        done = np.abs(g) <= dynamics._EPS * (dynamics._SECULAR_TOL * scale + 2.0 * grain)
        lo[act] = np.where(g < 0, ta, lo[act])
        hi[act] = np.where(g > 0, ta, hi[act])
        eta = dynamics._model_step(g, pole / ta + behind, 1.0 + total - behind, ta, fa)
        done |= np.abs(eta) <= 2.0 * dynamics._EPS * ta
        new = ta + eta
        inside = (new > lo[act]) & (new < hi[act])
        new = np.where(inside, new, 0.5 * (lo[act] + hi[act]))
        done |= new == ta
        tau[act] = np.where(done, ta, new)
        act = act[~done]
        if not act.size:
            return
    raise RuntimeError("a secular root of the bath arrowhead did not converge")


def _frame_signed_secular_eigh(d, z):
    """``dynamics._secular_eigh`` on frame-signed separations, each pass
    multiplying by s and allocating its own arrays: the reference for its
    bits."""
    m = d.size
    z2 = z * z
    rows = max(1, dynamics._SOLVER_BLOCK // m)
    o = np.empty(m + 1, dtype=np.intp)
    s, far, hi, tau = np.empty((4, m + 1))
    o[[0, m]], s[[0, m]] = (0, m - 1), (-1.0, 1.0)
    hi[[0, m]] = np.maximum(0.0, -s[[0, m]] * d[[0, m - 1]]) + 2.0 * math.sqrt(np.sum(z2))
    far[[0, m]] = 2.0 * hi[[0, m]]
    tau[[0, m]] = 0.5 * hi[[0, m]]
    for lo_r in range(1, m, rows):
        j = np.arange(lo_r, min(lo_r + rows, m))
        gap = d[j] - d[j - 1]
        half = 0.5 * gap
        t = z2 / _frame_signed_separations(d, j - 1, np.ones(j.size), half)
        mid_g = d[j - 1] + half + np.sum(t, axis=1)
        right = mid_g <= 0
        o[j], s[j], far[j], hi[j] = j - 1 + right, np.where(right, -1.0, 1.0), gap, gap
        near, beyond = z2[o[j]] / half**2, z2[2 * j - 1 - o[j]] / half**2
        step = dynamics._model_step(s[j] * mid_g, near, beyond, half, gap)
        tau[j] = np.where(np.abs(step) < half, half + step, half)
    for lo_r in range(0, m + 1, rows):
        blk = slice(lo_r, lo_r + rows)
        _frame_signed_refine_roots(d, z2, o[blk], s[blk], far[blk], hi[blk], tau[blk])

    prod = np.ones(m)
    cols = np.arange(m)
    for lo_r in range(0, m + 1, rows):
        j = np.arange(max(lo_r, 1), min(lo_r + rows, m))
        if j.size:
            paired = np.where(cols >= j[:, None], d[j - 1, None], d[j, None])
            paired -= d
            sep = _frame_signed_separations(d, o[j], s[j], tau[j])
            sep *= -s[j, None]
            prod *= np.prod(np.divide(sep, paired, out=paired), axis=0)
    ends = _frame_signed_separations(d, o[[0, m]], s[[0, m]], tau[[0, m]])
    z_hat = np.copysign(np.sqrt(ends[0] * ends[1] * prod), z)
    v0 = np.empty(m + 1)
    for lo_r in range(0, m + 1, rows):
        blk = slice(lo_r, lo_r + rows)
        sep = _frame_signed_separations(d, o[blk], s[blk], tau[blk])
        ratio = np.divide(z_hat, sep, out=sep)
        v0[blk] = 1.0 / np.sqrt(1.0 + np.sum(ratio * ratio, axis=1))
    return d[o] + s * tau, v0, z_hat


def _solve_recording_warnings(d, z):
    """``_bright_eigh``'s output and the text of every warning it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = dynamics._bright_eigh(d, z)
    return out, [str(w.message) for w in caught]


def _assert_solver_bits(d, z):
    """``_bright_eigh`` returns lam, V_0j and the backward error of the
    frame-signed reference solve, bit for bit, with the same warnings."""
    got, warned = _solve_recording_warnings(d, z)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_secular_eigh", _frame_signed_secular_eigh)
        want, reference_warned = _solve_recording_warnings(d, z)
    assert warned == reference_warned
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert math.copysign(1.0, got[2]) == math.copysign(1.0, want[2]) and got[2] == want[2]


class TestSolverBits:
    """The secular solver's unsigned offsets and shared scratch change no
    bit of its output against the frame-signed reference, and its scratch
    is one pair of _SOLVER_BLOCK arrays."""

    @pytest.mark.parametrize("m", [1, 2, 51, 151, 601, 2401])
    def test_default_bath(self, m):
        _assert_solver_bits(*_solver_case("on-quasi-period", m))

    @pytest.mark.parametrize("case", ["off-quasi-period", "part-zero"])
    def test_other_baths(self, case):
        _assert_solver_bits(*_solver_case(case, 601))

    def test_coinciding_poles(self):
        _assert_solver_bits(np.array([-1.0, 3.0, 3.0, 3.0, 5.0]), np.array([0.3, 0.2, 0.5, 0.1, 0.4]))

    @pytest.mark.parametrize("k", [-600, -40, 40, 600])
    def test_power_of_two_scaling(self, k):
        d, z = _solver_case("part-zero", 151)
        _assert_solver_bits(np.ldexp(d, k), np.ldexp(z, k))

    # 200 arrowheads of up to 64 modes, a few ms each
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(
        st.floats(-1e3, 1e3, allow_subnormal=False),
        st.floats(-1e2, 1e2, allow_subnormal=False) | st.just(0.0),
    ), min_size=1, max_size=64), st.sampled_from([0, -40, 40]))
    def test_random_arrowheads(self, modes, k):
        d, z = np.array(sorted(modes)).T
        _assert_solver_bits(np.ldexp(d, k), np.ldexp(z, k))

    @pytest.mark.parametrize("m", [601, 2401])
    def test_scratch_is_one_pair(self, m):
        # two arrays of _SOLVER_BLOCK doubles, 1.05 MB, and O(M) vectors;
        # a fresh block array in each pass took the peak to 2.5-2.8 MB
        d, z = _solver_case("on-quasi-period", m)
        tracemalloc.start()
        try:
            dynamics._bright_eigh(d, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0e6


def _mpmath_alpha(d, z, times, mp):
    """alpha(t) = sum_j V_0j^2 exp(-i lam_j t) of the arrowhead with
    diagonal (0, d) and border z, the float64 entries taken exactly, from
    mpmath's symmetric eigensolver at mp.dps digits."""
    m = d.size
    h = mp.zeros(m + 1, m + 1)
    for i in range(m):
        h[i + 1, i + 1] = mp.mpf(float(d[i]))
        h[0, i + 1] = h[i + 1, 0] = mp.mpf(float(z[i]))
    lam, vecs = mp.eigsy(h)
    weights = [vecs[0, j] ** 2 for j in range(m + 1)]
    return [mp.fsum(w * mp.expj(-lam[j] * mp.mpf(float(t))) for j, w in enumerate(weights))
            for t in times]


class TestErrorBound:
    """``AmplitudeTrajectory.error_bound`` against broken solves, and
    against an exact reference."""

    BATH = dynamics.normalized_bath(LAT.omega_q, 0.5, 601)

    def _run(self):
        return _polariton(LAT, CAV, self.BATH, 1000.0, 0.2)

    def _assert_flags(self, clean, broken):
        # the broken run strays far beyond the clean run's bound, its own
        # bound rises by orders of magnitude, and the two bounds cover the
        # distance between the runs
        gap = np.abs(broken.alpha - clean.alpha)[::10]
        clean_bound, broken_bound = clean.error_bound[::10], broken.error_bound[::10]
        assert np.max(gap) > 1e3 * np.max(clean_bound)
        assert np.max(broken_bound) > 1e3 * np.max(clean_bound)
        assert np.all(gap <= broken_bound + clean_bound)

    def test_flags_a_perturbed_root(self, monkeypatch):
        clean = self._run()
        refine = dynamics._refine_roots

        def shifted(d, z2, o, s, far, hi, tau, scratch):
            refine(d, z2, o, s, far, hi, tau, scratch)
            if o[0] == 0:  # the first block of roots
                tau[50] += 1e-10  # an inner root, in the solver's unit scale

        monkeypatch.setattr(dynamics, "_refine_roots", shifted)
        self._assert_flags(clean, self._run())

    def test_flags_a_perturbed_border(self, monkeypatch):
        # the pairs of a border off by 1e-10 in one entry: z_hat is off by
        # as much from the z the run was asked for
        clean = self._run()
        solve = dynamics._secular_eigh

        def off(d, z):
            z = z.copy()
            z[300] += 1e-10
            return solve(d, z)

        monkeypatch.setattr(dynamics, "_secular_eigh", off)
        self._assert_flags(clean, self._run())

    @pytest.mark.parametrize("case", ["on-quasi-period", "off-quasi-period", "one-mode", "part-zero"])
    def test_bounds_the_error_against_mpmath(self, case):
        # 9-mode arrowheads, 501 samples against a 40-digit reference: about
        # 0.3 s per case
        mp = pytest.importorskip("mpmath").mp
        lat = LatticeSpec(4, 0.37, 13.458) if case == "off-quasi-period" else LAT
        bath = dynamics.normalized_bath(lat.omega_q, 0.4, 1 if case == "one-mode" else 9)
        if case == "part-zero":
            couplings = bath.couplings.copy()
            couplings[::3] = 0.0
            bath = dynamics.BathSpec(bath.mode_frequencies, couplings, bath.spacing)
        traj = _polariton(lat, CAV, bath, 100.0, 0.2)
        with mp.workdps(40):
            reference = _mpmath_alpha(*_arrowhead(lat, CAV, bath), traj.times, mp)
            for a, ref, b, beta_sq in zip(traj.alpha, reference, traj.error_bound, traj.beta_total_sq):
                # the reference's own rounding is below 1e-30
                assert abs(mp.mpc(a) - ref) <= b + 1e-30
                assert abs(beta_sq - (1 - abs(ref) ** 2)) <= 2 * b + 2 * np.finfo(float).eps


class TestFitDecay:
    def _synthetic(self, rate: float, samples: int = 501) -> dynamics.AmplitudeTrajectory:
        t = np.linspace(0.0, 100.0, samples)
        alpha = np.exp(-0.5 * rate * t).astype(complex)
        return dynamics.AmplitudeTrajectory(
            times=t, alpha=alpha, error_floor=0.0, error_rate=0.0, horizon=t[-1]
        )

    def test_exact_exponential(self):
        traj = self._synthetic(0.05)
        assert dynamics.fit_decay(traj) == pytest.approx(0.05, abs=1e-12)
        # exp(-0.5*20*t) underflows to 0 from t of about 74.5 on, inside the window
        traj = self._synthetic(20.0)
        assert traj.alpha[-1] == 0.0
        with pytest.raises(ValueError, match="vanished inside the fit window"):
            dynamics.fit_decay(traj)

    def test_rabi_trajectory_rejected(self):
        # horizon covers a full Rabi period, so the window contains a revival
        g = 0.05
        bath = dynamics.BathSpec(np.array([LAT.omega_q]), np.array([g]), 1.0)
        traj = _polariton(LAT, CAV, bath, 3000.0, 0.5)
        with pytest.raises(dynamics.NonMonotoneWindowError):
            dynamics.fit_decay(traj)

    def test_window_too_small(self):
        # three samples: the window without the first 10% holds two
        traj = self._synthetic(0.05, samples=3)
        with pytest.raises(ValueError, match="fewer than 3"):
            dynamics.fit_decay(traj)

    def test_markov_regime_matches_analytic(self):
        gamma = radiation.decay_rate(LAT, CAV).gamma_normalized
        bath = dynamics.normalized_bath(LAT.omega_q, bandwidth=max(60 * gamma, 0.5), n_modes=601)
        recurrence = 2.0 * math.pi / bath.spacing
        t_final = min(3.0 / gamma, 0.8 * recurrence)
        traj = _polariton(LAT, CAV, bath, t_final, 0.2)
        fitted = dynamics.fit_decay(traj)
        assert 0.9 < fitted / gamma < 1.1

    @pytest.mark.parametrize("omega_e", [13.458, 16.0, 20.187, "s"])
    def test_bath_measure_gives_the_golden_rule_rate(self, omega_e):
        # away from ell = 2/3, omega_q = 3*omega_c: a constant amplitude a
        # decays at |a|^2, and s(omega_k) at ell = 0.5, omega_q = 16 (off
        # every quasi-period multiple) at |s(k_q)|^2.  The band of width B
        # cut around omega_e gives the self-energy a real part of slope
        # 2*rate/(pi*B) there, which raises the rate by that share to first
        # order: rate/B bounds it, where a wrong measure, such as a 2*pi
        # turned pi, is off by a factor of 2
        bandwidth = 0.5
        if omega_e == "s":
            lat = LatticeSpec(4, 0.5, 16.0)
            omega_e, amplitude = lat.omega_q, functools.partial(radiation.s_factor, lat, CAV)
            rate = abs(radiation.s_factor(lat, CAV, lat.omega_q)) ** 2
        else:
            amplitude, rate = (lambda freqs: 0.03), 0.03**2
        bath = dynamics.normalized_bath(omega_e, bandwidth, 601)
        t_final = min(3.0 / rate, 0.8 * bath.recurrence_time)
        traj = dynamics.integrate_amplitudes(
            omega_e, amplitude(bath.mode_frequencies), bath, t_final, 0.2, 10
        )
        assert abs(dynamics.fit_decay(traj) / rate - 1.0) <= rate / bandwidth
