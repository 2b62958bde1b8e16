import dataclasses

import numpy as np
import pytest

from quasilattice.model import CavitySpec, LatticeSpec, coupling_weights
from quasilattice import oracle, polariton

CAV = CavitySpec(omega_c=6.729, eta=0.1)
FIELDS = ("S_z", "S_plus", "S_minus", "Sigma_z", "a", "a_dagger", "H_total")


def _kron_reference(lattice, cavity, n_max):
    """Independent dense construction of the product-space operators:
    per-site Kronecker chains and dense matrix products."""

    def site_operator(op, site, n_qubits):
        mat = np.array([[1.0]])
        for j in range(n_qubits):
            mat = np.kron(mat, op if j == site else np.eye(2))
        return mat

    sigma_z_1 = np.diag([0.5, -0.5])
    sigma_plus_1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    n = lattice.n_qubits
    weights = coupling_weights(lattice)
    dim_spin = 2**n
    s_z = np.zeros((dim_spin, dim_spin))
    s_plus = np.zeros((dim_spin, dim_spin))
    sigma_z = np.zeros((dim_spin, dim_spin))
    for j in range(n):
        s_z += site_operator(sigma_z_1, j, n)
        s_plus += weights[j] * site_operator(sigma_plus_1, j, n)
        sigma_z += weights[j] ** 2 * site_operator(sigma_z_1, j, n)
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1)
    eye_f = np.eye(n_max + 1)
    eye_s = np.eye(dim_spin)
    S_z = np.kron(s_z, eye_f)
    S_plus = np.kron(s_plus, eye_f)
    S_minus = np.kron(s_plus.conj().T, eye_f)
    A = np.kron(eye_s, a)
    A_dag = np.kron(eye_s, a.conj().T)
    H = (
        lattice.omega_q * S_z
        + cavity.omega_c * (A_dag @ A)
        + cavity.eta * (S_plus @ A + S_minus @ A_dag)
    )
    return {"S_z": S_z, "S_plus": S_plus, "S_minus": S_minus,
            "Sigma_z": np.kron(sigma_z, eye_f), "a": A, "a_dagger": A_dag, "H_total": H}


class TestBuildOperators:
    def test_single_qubit_inversion(self):
        lat = LatticeSpec(n_qubits=1, relative_spacing=0.0, omega_q=10.0)
        ops = oracle.build_operators(lat, CAV, n_max=2)
        spin_part = ops.S_z[:: (2 + 1), :: (2 + 1)]  # photon-vacuum block
        assert np.allclose(np.diag(spin_part), [0.5, -0.5])

    def test_dimension_guard(self):
        lat = LatticeSpec(n_qubits=9, relative_spacing=0.3, omega_q=10.0)
        with pytest.raises(oracle.DimensionGuardError):
            oracle.build_operators(lat, CAV, n_max=2)
        lat8 = LatticeSpec(n_qubits=8, relative_spacing=0.3, omega_q=10.0)
        with pytest.raises(oracle.DimensionGuardError):
            oracle.build_operators(lat8, CAV, n_max=13)

    def test_lowering_is_adjoint(self):
        lat = LatticeSpec(n_qubits=3, relative_spacing=0.4, omega_q=10.0)
        ops = oracle.build_operators(lat, CAV, n_max=3)
        assert np.array_equal(ops.S_minus, ops.S_plus.conj().T)

    def test_hamiltonian_hermitian(self):
        lat = LatticeSpec(n_qubits=4, relative_spacing=2 / 3, omega_q=13.458)
        ops = oracle.build_operators(lat, CAV, n_max=4)
        assert np.max(np.abs(ops.H_total - ops.H_total.conj().T)) < 1e-13

    @pytest.mark.parametrize("ell", [0.0, 0.3, 2 / 3, 1.0])
    def test_matches_kron_reference(self, ell):
        sizes = [(n, n_max) for n in range(1, 7) for n_max in (1, 3, 6)]
        sizes += [(n, n_max) for n in (7, 8) for n_max in (1, 2)]
        for n, n_max in sizes:
            lat = LatticeSpec(n_qubits=n, relative_spacing=ell, omega_q=13.458)
            ops = oracle.build_operators(lat, CAV, n_max=n_max)
            ref = _kron_reference(lat, CAV, n_max)
            for field in FIELDS:
                assert np.array_equal(getattr(ops, field), ref[field]), (n, n_max, field)
            # signed zeros too: the coupling is added onto +0.0
            assert np.array_equal(np.signbit(ops.H_total), np.signbit(ref["H_total"]))
            number = np.diag(ref["S_z"] + ref["a_dagger"] @ ref["a"])
            for two_u in range(-n, n + 2 * n_max + 1, 2):
                dense = np.nonzero(np.abs(2.0 * number - two_u) < 1e-9)[0]
                assert np.array_equal(oracle.sector_indices(ops, two_u), dense)

    def test_decoupled_signed_zeros(self):
        # at eta = 0 each coupling entry eta*w_j*sqrt(k+1) is -0.0 where
        # w_j < 0; added onto +0.0 it stays +0.0, as in the dense sum
        cav0 = CavitySpec(omega_c=6.729, eta=0.0)
        for n, ell in ((3, 2 / 3), (8, 0.37)):
            lat = LatticeSpec(n_qubits=n, relative_spacing=ell, omega_q=13.458)
            ops = oracle.build_operators(lat, cav0, n_max=2)
            ref = _kron_reference(lat, cav0, 2)
            assert np.array_equal(np.signbit(ops.H_total), np.signbit(ref["H_total"]))
            assert not np.any(np.signbit(ops.H_total[ops.H_total == 0.0]))

    def test_site_weights_enter_raising_operator(self):
        lat = LatticeSpec(n_qubits=4, relative_spacing=2 / 3, omega_q=13.458)
        ops = oracle.build_operators(lat, CAV, n_max=1)
        # acting on the all-down spin state in the photon vacuum must
        # produce one single-flip state per site, weighted cos(j*pi*ell)
        s_plus_spin = ops.S_plus[::2, ::2]
        all_down = np.zeros(16)
        all_down[15] = 1.0
        image = s_plus_spin @ all_down
        for j, weight in enumerate([1.0, -0.5, -0.5, 1.0]):
            flipped = 15 - 2 ** (3 - j)
            assert image[flipped] == pytest.approx(weight, abs=1e-12)
        assert np.count_nonzero(np.abs(image) > 1e-14) == 4


class TestCommutators:
    def test_homogeneous_su2(self):
        lat = LatticeSpec(n_qubits=4, relative_spacing=0.0, omega_q=13.458)
        ops = oracle.build_operators(lat, CAV, n_max=1)
        rep = oracle.verify_commutators(ops)
        assert rep.passed
        assert rep.splus_sminus_sz is not None and rep.splus_sminus_sz < 1e-12

    def test_deformed_identities(self):
        rng = np.random.default_rng(5)
        for n in range(2, 7):
            for ell in rng.uniform(0.0, 1.0, size=5):
                lat = LatticeSpec(n, float(ell), 13.458)
                ops = oracle.build_operators(lat, CAV, n_max=1)
                rep = oracle.verify_commutators(ops)
                assert rep.sz_splus < 1e-12
                assert rep.sz_sminus < 1e-12
                assert rep.splus_sminus_sigma < 1e-12


class TestSectorSpectra:
    def test_excitation_conserved(self):
        for ell in (0.0, 0.3, 2 / 3):
            lat = LatticeSpec(n_qubits=4, relative_spacing=ell, omega_q=13.458)
            ops = oracle.build_operators(lat, CAV, n_max=4)
            assert oracle.excitation_conservation_residual(ops) < 1e-12

    def test_conservation_guard_fires(self):
        lat = LatticeSpec(n_qubits=3, relative_spacing=0.3, omega_q=13.458)
        ops = oracle.build_operators(lat, CAV, n_max=3)
        # all spins down (spin index 7) with 0 and 1 photons: 2u = -3 and -1
        i, j, delta = 7 * 4, 7 * 4 + 1, 1e-6
        assert ops.H_total[i, j] == 0.0
        H = ops.H_total.copy()
        H[i, j] = H[j, i] = delta
        broken = dataclasses.replace(ops, H_total=H)
        assert oracle.excitation_conservation_residual(broken) == pytest.approx(delta, rel=1e-15)
        # the cached residual belongs to each operator set: every call on
        # the broken set raises, and intact sets, old or new, do not
        for _ in range(2):
            with pytest.raises(RuntimeError):
                oracle.exact_sector_spectrum(broken, -3)
        fresh = oracle.build_operators(lat, CAV, n_max=3)
        for intact in (fresh, ops):
            assert oracle.exact_sector_spectrum(intact, -3).shape == (1,)

    def test_conservation_guard_runs_once_per_operator_set(self, monkeypatch):
        lat = LatticeSpec(n_qubits=3, relative_spacing=0.3, omega_q=13.458)
        ops = oracle.build_operators(lat, CAV, n_max=3)
        calls = []
        residual = oracle.excitation_conservation_residual
        monkeypatch.setattr(
            oracle, "excitation_conservation_residual",
            lambda o: calls.append(o) or residual(o),
        )
        for two_u in (-3, -1, 1):
            oracle.exact_sector_spectrum(ops, two_u)
        assert len(calls) == 1 and calls[0] is ops

    def test_homogeneous_limit_matches_model(self):
        for n in (2, 4, 6):
            lat = LatticeSpec(n_qubits=n, relative_spacing=0.0, omega_q=13.458)
            ops = oracle.build_operators(lat, CAV, n_max=6)
            for two_u in (-n, -n + 2, -n + 4):
                exact = oracle.exact_sector_spectrum(ops, two_u)
                model = polariton.diagonalize_sector(lat, CAV, two_u).eigenvalues
                for ev in model:
                    assert np.min(np.abs(exact - ev)) < 1e-10

    def test_decoupled_bare_energies(self):
        lat = LatticeSpec(n_qubits=3, relative_spacing=0.4, omega_q=10.0)
        cav0 = CavitySpec(omega_c=7.0, eta=0.0)
        ops = oracle.build_operators(lat, cav0, n_max=5)
        exact = oracle.exact_sector_spectrum(ops, -1)
        # u = -1/2: (n, m) in {(0,-1/2), (1,-3/2)}
        expected = sorted([-0.5 * 10.0, -1.5 * 10.0 + 7.0])
        assert np.allclose(np.sort(exact)[: len(expected)], expected, atol=1e-12)

    def test_truncation_guard(self):
        lat = LatticeSpec(n_qubits=2, relative_spacing=0.3, omega_q=10.0)
        ops = oracle.build_operators(lat, CAV, n_max=2)
        with pytest.raises(oracle.TruncationError):
            oracle.exact_sector_spectrum(ops, 4)

    def test_empty_sector(self):
        lat = LatticeSpec(n_qubits=2, relative_spacing=0.3, omega_q=10.0)
        ops = oracle.build_operators(lat, CAV, n_max=2)
        with pytest.raises(ValueError):
            oracle.exact_sector_spectrum(ops, -4)


class TestDickeStates:
    def test_orthonormal(self):
        for n in (2, 4, 5):
            basis = oracle.dicke_basis(n)
            vecs = np.array([basis[k] for k in sorted(basis)])
            gram = vecs @ vecs.T
            assert np.max(np.abs(gram - np.eye(n + 1))) < 1e-13

    def test_diagonal_elements_vanish(self):
        for ell in (0.0, 0.3, 2 / 3):
            lat = LatticeSpec(n_qubits=4, relative_spacing=ell, omega_q=13.458)
            ops = oracle.build_operators(lat, CAV, n_max=1)
            diag = oracle.dicke_diagonal_elements(ops)
            assert np.max(np.abs(diag)) < 1e-13
