import math

import numpy as np
import pytest

from quasilattice.model import (
    CavitySpec,
    LatticeSpec,
    coupling_weights,
    deformation_factor,
)


def test_homogeneous_limit_is_one():
    lat = LatticeSpec(n_qubits=4, relative_spacing=0.0, omega_q=13.458)
    assert deformation_factor(lat) == pytest.approx(1.0, abs=1e-15)


def test_matches_mean_squared_weights():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        ell = float(rng.uniform(0.0, 1.0))
        lat = LatticeSpec(n_qubits=n, relative_spacing=ell, omega_q=10.0)
        w = coupling_weights(lat)
        assert deformation_factor(lat) == pytest.approx(float(np.mean(w**2)), abs=1e-13)


def test_symmetric_about_half():
    for n in (2, 3, 4, 7):
        for ell in (0.1, 0.25, 2 / 3, 0.9):
            a = deformation_factor(LatticeSpec(n, ell, 10.0))
            b = deformation_factor(LatticeSpec(n, 1.0 - ell, 10.0))
            assert a == pytest.approx(b, abs=1e-14)


def test_singularity_branch_is_continuous():
    # the sin ratio is evaluated by its limit just inside the guard band
    for n in (2, 4, 5):
        inside = deformation_factor(LatticeSpec(n, 1e-10 / math.pi, 10.0))
        outside = deformation_factor(LatticeSpec(n, 1e-8, 10.0))
        assert inside == pytest.approx(1.0, abs=1e-12)
        assert outside == pytest.approx(inside, abs=1e-10)


def test_weights_for_four_qubits_at_two_thirds():
    lat = LatticeSpec(n_qubits=4, relative_spacing=2 / 3, omega_q=13.458)
    w = coupling_weights(lat)
    assert np.allclose(w, [1.0, -0.5, -0.5, 1.0], atol=1e-12)


def test_lattice_validation():
    with pytest.raises(ValueError):
        LatticeSpec(n_qubits=0, relative_spacing=0.5, omega_q=10.0)
    with pytest.raises(ValueError):
        LatticeSpec(n_qubits=4, relative_spacing=-0.1, omega_q=10.0)
    with pytest.raises(ValueError):
        LatticeSpec(n_qubits=4, relative_spacing=1.5, omega_q=10.0)
    with pytest.raises(ValueError):
        LatticeSpec(n_qubits=4, relative_spacing=0.5, omega_q=-1.0)


def test_cavity_validation_and_detuning():
    lat = LatticeSpec(n_qubits=4, relative_spacing=0.5, omega_q=13.458)
    cav = CavitySpec(omega_c=6.729, eta=0.1)
    assert cav.detuning(lat) == pytest.approx(6.729 - 13.458)
    with pytest.raises(ValueError):
        CavitySpec(omega_c=-1.0, eta=0.1)
    with pytest.raises(ValueError):
        CavitySpec(omega_c=6.729, eta=-0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_specs_reject_non_finite(bad):
    with pytest.raises(ValueError):
        LatticeSpec(n_qubits=4, relative_spacing=bad, omega_q=10.0)
    with pytest.raises(ValueError):
        LatticeSpec(n_qubits=4, relative_spacing=0.5, omega_q=bad)
    with pytest.raises(ValueError):
        CavitySpec(omega_c=bad, eta=0.1)
    with pytest.raises(ValueError):
        CavitySpec(omega_c=6.729, eta=bad)


def test_doubled_spin_and_resonant_momentum():
    lat = LatticeSpec(n_qubits=5, relative_spacing=0.3, omega_q=9.0)
    assert lat.two_r == 5
    assert lat.k_q == pytest.approx(9.0)
