import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from quasilattice.model import CavitySpec, LatticeSpec
from quasilattice import radiation, validation

LAT = LatticeSpec(n_qubits=4, relative_spacing=2 / 3, omega_q=13.458)
CAV = CavitySpec(omega_c=6.729, eta=0.1)


class TestChi:
    def test_all_weights_sum_at_zero_momentum(self):
        assert radiation.chi(LAT, CAV, 0.0, 0.0) == pytest.approx(4.0 + 0.0j)

    def test_alternating_index_cancels_at_zero_momentum(self):
        assert abs(radiation.chi(LAT, CAV, 0.5, 0.0)) < 1e-14

    def test_conjugation_symmetry(self):
        k = np.linspace(0.1, 30.0, 500)
        for l in radiation.l_values(LAT):
            plus = radiation.chi(LAT, CAV, l, k)
            minus = radiation.chi(LAT, CAV, l, -k)
            assert np.max(np.abs(minus - np.conj(plus))) < 1e-12

    def test_magnitude_bounded_by_qubit_count(self):
        k = np.linspace(0.0, 60.0, 2000)
        for n in (2, 4, 7):
            lat = LatticeSpec(n, 0.37, 13.458)
            for l in radiation.l_values(lat):
                assert np.max(np.abs(radiation.chi(lat, CAV, l, k))) <= n + 1e-12

    def test_closed_form_identity(self):
        rng = np.random.default_rng(11)
        for n in range(2, 9):
            lat = LatticeSpec(n, float(rng.uniform(0.05, 0.95)), 13.458)
            k = np.linspace(0.02, 40.0, 2000)
            for l in radiation.l_values(lat):
                phase = math.pi * lat.relative_spacing / CAV.omega_c * k
                den = 1 + np.exp(2j * phase) - 2 * np.exp(1j * phase) * math.cos(l * math.pi)
                good = np.abs(den) > 1e-3
                a = radiation.chi(lat, CAV, l, k[good])
                b = radiation.chi_closed_form(lat, CAV, l, k[good])
                bound = radiation.chi_closed_form_error_bound(lat, CAV, l, k[good])
                assert np.max(np.abs(a - b) / bound) < 1.0
                if l == 0.0:
                    # the bound still rejects a phase-sign error and a wrong l
                    flipped = radiation.chi_closed_form(lat, CAV, l, -k[good])
                    assert np.max(np.abs(a - flipped) / bound) > 1e3
                    wrong = radiation.chi_closed_form(lat, CAV, 1.0 / n, k[good])
                    assert np.max(np.abs(a - wrong) / bound) > 1e3

    def test_closed_form_rejects_singular_denominator(self):
        # l = 0 at k = 0 gives denominator 1 + 1 - 2 = 0
        with pytest.raises(radiation.SingularDenominatorError):
            radiation.chi_closed_form(LAT, CAV, 0.0, 0.0)

    def test_closed_form_small_momentum_limit(self):
        # l = 3/4 keeps the denominator finite as k -> 0
        direct = radiation.chi(LAT, CAV, 0.75, 1e-8)
        closed = radiation.chi_closed_form(LAT, CAV, 0.75, 1e-8)
        assert closed == pytest.approx(direct, abs=1e-10)


class TestQuasiPeriod:
    def test_reference_value(self):
        assert radiation.quasi_period(LAT, CAV) == pytest.approx(20.187, abs=1e-12)

    def test_unit_spacing(self):
        lat = LatticeSpec(4, 1.0, 13.458)
        assert radiation.quasi_period(lat, CAV) == pytest.approx(13.458)

    def test_homogeneous_limit_is_infinite(self):
        lat = LatticeSpec(4, 0.0, 13.458)
        assert math.isinf(radiation.quasi_period(lat, CAV))

    def test_chi_exactly_periodic(self):
        period = radiation.quasi_period(LAT, CAV)
        k = np.linspace(0.05, 9.5, 400)
        for l in radiation.l_values(LAT):
            a = radiation.chi(LAT, CAV, l, k)
            b = radiation.chi(LAT, CAV, l, k + period)
            assert np.max(np.abs(a - b)) < 1e-10


class TestSFactor:
    def test_vanishes_without_coupling(self):
        cav0 = CavitySpec(omega_c=6.729, eta=0.0)
        assert abs(radiation.s_factor(LAT, cav0, 10.0)) < 1e-14

    def test_homogeneous_limit_is_momentum_independent(self):
        lat = LatticeSpec(4, 0.0, 13.458)
        at_kq = radiation.s_factor(lat, CAV, lat.k_q)
        at_zero = radiation.s_factor(lat, CAV, 0.0)
        assert at_kq == pytest.approx(at_zero, abs=1e-13)

    @pytest.mark.parametrize("ell", [0.0, 2 / 3, 1.0, 0.3])
    def test_matches_explicit_l_sum(self, ell):
        k_real = np.linspace(-30.0, 30.0, 301)
        k_complex = k_real + 0.4j * np.cos(k_real)
        for n in range(1, 10):
            lat = LatticeSpec(n, ell, 13.458)
            element = radiation.first_excited_transition(lat, CAV)
            for k in (k_real, k_complex, 7.5, 2.0 - 0.3j):
                explicit = element / n * sum(
                    np.asarray(radiation.chi(lat, CAV, l, k)) for l in radiation.l_values(lat)
                )
                s = np.asarray(radiation.s_factor(lat, CAV, k))
                assert np.all(np.abs(s - explicit) <= 1e-14 * np.maximum(1.0, np.abs(s)))

    def test_profile_consistency(self):
        k = np.linspace(0.1, 30.0, 50)
        chi = np.array([radiation.chi(LAT, CAV, l, k) for l in radiation.l_values(LAT)])
        assert chi.shape == (4, 50)
        profile = radiation.s_factor(LAT, CAV, k)
        direct = np.array([radiation.s_factor(LAT, CAV, kk) for kk in k])
        assert np.max(np.abs(profile - direct)) < 1e-13

    def test_quasi_periodic_magnitude(self):
        period = radiation.quasi_period(LAT, CAV)
        k = np.linspace(0.1, 9.0, 200)
        a = np.abs(radiation.s_factor(LAT, CAV, k))
        b = np.abs(radiation.s_factor(LAT, CAV, k + period))
        assert np.max(np.abs(a - b)) < 1e-12


class TestDecayRate:
    def test_identity_between_fields(self):
        res = radiation.decay_rate(LAT, CAV)
        assert res.gamma_normalized == 2.0 * res.s_at_kq**2 - res.s_at_zero**2
        assert res.gamma_physical is None

    def test_physical_prefactor(self):
        pref = radiation.PrefactorInputs(mu=0.5, epsilon_d=2.0, area=1.5)
        res = radiation.decay_rate(LAT, CAV, pref)
        expected = LAT.k_q * 0.5**2 / (4 * 2.0 * 1.5) * res.gamma_normalized
        assert res.gamma_physical == pytest.approx(expected)

    def test_prefactor_validation(self):
        with pytest.raises(ValueError):
            radiation.PrefactorInputs(mu=0.5, epsilon_d=-1.0, area=1.5)
        for mu, epsilon_d, area in ((math.nan, 2.0, 1.5), (0.5, math.inf, 1.5), (0.5, 2.0, math.nan)):
            with pytest.raises(ValueError):
                radiation.PrefactorInputs(mu=mu, epsilon_d=epsilon_d, area=area)

    def test_symmetric_in_spacing_at_even_harmonic(self):
        # omega_q at twice the cavity frequency makes the sweep mirror-symmetric
        ells = np.linspace(0.0, 1.0, 41)
        gammas = [
            radiation.decay_rate(LatticeSpec(4, float(e), 13.458), CAV).gamma_normalized
            for e in ells
        ]
        assert np.max(np.abs(np.array(gammas) - np.array(gammas)[::-1])) < 1e-10


# Mutants of the numeric side of the principal-value check; the closed
# form does not call s_factor, so it keeps the true level shift.
S_FACTOR = radiation.s_factor
COT_INTEGRAL = radiation._cot_integral


def _wrong_weights(lattice, cavity, k, branch=0, transition_element=None):
    # (N, 1, 1, 1, ...) instead of (N, 1, 0, 1, ...)
    n = lattice.n_qubits
    weights = np.ones(n)
    weights[0] = n
    return transition_element * radiation._site_sum(lattice, cavity, weights, k) / n


def _wrong_theta(lattice, cavity, k, branch=0, transition_element=None):
    return S_FACTOR(lattice, cavity, 1.01 * np.asarray(k), branch, transition_element)


def _flipped_kq(lattice, cavity, element, centres, m):
    return COT_INTEGRAL(lattice, cavity, element, -centres, m)


class TestPrincipalValue:
    def test_matches_analytic(self):
        res = radiation.pv_integral_check(LAT, CAV)
        assert abs(res.numeric - res.analytic) < res.bound
        assert abs(res.analytic) > 1e6 * res.bound
        assert res.self_consistency < 1e-12
        assert validation.check_pv()[0].passed

    def test_constant_coupling_gives_zero(self, monkeypatch):
        # a constant s has no level shift: the numeric side vanishes while
        # the closed form keeps the true value, so the check fails
        monkeypatch.setattr(
            radiation, "s_factor",
            lambda lattice, cavity, k, branch=0, transition_element=None: np.ones_like(
                np.asarray(k, dtype=complex)
            ),
        )
        res = radiation.pv_integral_check(LAT, CAV)
        assert res.numeric == 0.0
        assert res.analytic == pytest.approx(1.0447e-4, rel=1e-4)
        assert not validation.check_pv()[0].passed

    @pytest.mark.parametrize("name, mutant", [
        ("s_factor", _wrong_weights),
        ("s_factor", _wrong_theta),
        ("_cot_integral", _flipped_kq),
    ])
    def test_numeric_side_mutation_fails(self, monkeypatch, name, mutant):
        monkeypatch.setattr(radiation, name, mutant)
        check = validation.check_pv()[0]
        assert not check.passed
        assert check.residual > 1e3

    @pytest.mark.parametrize("n, ell, omega_q", [
        (1, 2 / 3, 13.458),  # one qubit: |s|^2 is constant and Delta = 0
        (5, 2 / 3, 13.458),  # odd N
        (7, 0.37, 9.3),  # odd N
        (4, 0.0, 13.458),  # no quasi-period: |s|^2 is constant
        (4, 1.0, 9.3),
        (4, 1.0, 13.458),  # omega_q = omega_K at ell = 1
        (4, 2 / 3, 2 * 20.187),  # omega_q on a quasi-period multiple: Delta = 0
        (4, 0.75, 13.458),  # exact zero of Delta at omega_q = 2*omega_c
    ])
    def test_edge_inputs_pass(self, n, ell, omega_q):
        lat = LatticeSpec(n, ell, omega_q)
        res = radiation.pv_integral_check(lat, CAV)
        assert abs(res.numeric - res.analytic) < res.bound
        assert res.self_consistency < 1e-12
        if n == 1 or ell == 0.0:
            assert res.numeric == 0.0 and res.analytic == 0.0
        assert validation.check_pv(lat, CAV)[0].passed

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 32),
        ell=st.floats(0.0, 1.0),
        omega_q=st.floats(5.0, 20.0),
    )
    def test_ratio_to_bound_below_one(self, n, ell, omega_q):
        check = validation.check_pv(LatticeSpec(n, ell, omega_q), CAV)[0]
        assert check.residual < 1.0
