import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quasilattice.model import CavitySpec, LatticeSpec, coupling_weights
from quasilattice import oracle, polariton, radiation, validation

OMEGA_C = 6.729
CAV = CavitySpec(omega_c=OMEGA_C, eta=0.1)
SPIN_TERMS = {"s_z", "up", "down", "weight"}


def _kron_reference(lattice, cavity, n_max):
    """Independent dense construction of the operators: per-site
    Kronecker chains on the qubit space ("s_z", "s_plus", "s_minus",
    "sigma_z") and, from them, dense matrix products on the product
    space ("S_z", "a", "a_dagger", "H_total")."""

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
    s_minus = np.zeros((dim_spin, dim_spin))
    sigma_z = np.zeros((dim_spin, dim_spin))
    for j in range(n):
        s_z += site_operator(sigma_z_1, j, n)
        s_plus += weights[j] * site_operator(sigma_plus_1, j, n)
        s_minus += weights[j] * site_operator(sigma_plus_1.T, j, n)
        sigma_z += weights[j] ** 2 * site_operator(sigma_z_1, j, n)
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1)
    eye_f = np.eye(n_max + 1)
    eye_s = np.eye(dim_spin)
    S_z = np.kron(s_z, eye_f)
    S_plus = np.kron(s_plus, eye_f)
    S_minus = np.kron(s_minus, eye_f)
    A = np.kron(eye_s, a)
    A_dag = np.kron(eye_s, a.conj().T)
    H = (
        lattice.omega_q * S_z
        + cavity.omega_c * (A_dag @ A)
        + cavity.eta * (S_plus @ A + S_minus @ A_dag)
    )
    return {"s_z": s_z, "s_plus": s_plus, "s_minus": s_minus, "sigma_z": sigma_z,
            "S_z": S_z, "a": A, "a_dagger": A_dag, "H_total": H}


def _spin_raising(ops):
    """The weighted s_plus of one lattice as a dense 2^N-square matrix."""
    s_plus = np.zeros((ops.s_z.size, ops.s_z.size))
    s_plus[ops.up, ops.down] = ops.weight
    return s_plus


def _reference_sector(ref, two_u):
    """Product indices of the excitation-u eigenspace of the reference's
    S_z + a_dag*a, and their photon numbers."""
    photons = np.rint(np.diag(ref["a_dagger"] @ ref["a"]))  # sqrt(k)*sqrt(k) rounds
    idx = np.nonzero(2.0 * np.diag(ref["S_z"]) + 2.0 * photons == two_u)[0]
    return idx, photons[idx]


def _blocks_below_cutoff(n, n_max):
    """The 2u whose every basis state stays below the Fock cutoff."""
    return range(-n, 2 * n_max - n, 2)


class TestBuildOperators:
    def test_single_qubit_inversion(self):
        lat = LatticeSpec(n_qubits=1, relative_spacing=0.0, omega_q=10.0)
        ops = oracle.build_operators(lat, CAV, n_max=2)
        assert ops.s_z.tolist() == [0.5, -0.5]
        assert np.array_equal(ops.s_z, np.diag(_kron_reference(lat, CAV, 2)["s_z"]))

    def test_dimension_guard(self):
        # N guards the dense 2^N-square s_plus of verify_commutators alone;
        # the sector terms have no N bound, and no array grows with n_max,
        # which must only be at least 1
        lat = LatticeSpec(n_qubits=9, relative_spacing=0.3, omega_q=10.0)
        with pytest.raises(oracle.DimensionGuardError):
            oracle.verify_commutators(lat)
        assert oracle.build_operators(lat, CAV, n_max=2).dimension == 2**9 * 3
        lat8 = LatticeSpec(n_qubits=8, relative_spacing=0.3, omega_q=10.0)
        assert oracle.build_operators(lat8, CAV, n_max=13).dimension == 2**8 * 14
        with pytest.raises(ValueError, match="^n_max must be at least 1$"):
            oracle.build_operators(lat8, CAV, n_max=0)

    def test_lowering_is_adjoint(self):
        # the commutators take s_minus as the transpose of the raising
        # operator; it equals the chains of the site lowering operators
        lat = LatticeSpec(n_qubits=3, relative_spacing=0.4, omega_q=10.0)
        ops = oracle.build_operators(lat, CAV, n_max=3)
        ref = _kron_reference(lat, CAV, 3)
        assert np.array_equal(_spin_raising(ops).T, ref["s_minus"])

    def test_hamiltonian_hermitian(self):
        lat = LatticeSpec(n_qubits=4, relative_spacing=2 / 3, omega_q=13.458)
        ops = oracle.build_operators(lat, CAV, n_max=4)
        for two_u in _blocks_below_cutoff(4, 4):
            block = oracle._sector_block(ops, two_u)
            assert np.array_equal(block, block.T)

    @pytest.mark.parametrize("ell", [0.0, 0.3, 2 / 3, 1.0])
    def test_matches_kron_reference(self, ell):
        sizes = [(n, n_max) for n in range(1, 7) for n_max in (1, 3, 6)]
        sizes += [(n, n_max) for n in (7, 8) for n_max in (1, 2)]
        for n, n_max in sizes:
            lat = LatticeSpec(n_qubits=n, relative_spacing=ell, omega_q=13.458)
            ops = oracle.build_operators(lat, CAV, n_max=n_max)
            ref = _kron_reference(lat, CAV, n_max)
            # the spin terms are the Kronecker chains
            assert np.array_equal(ops.s_z, np.diag(ref["s_z"])), (n, n_max)
            assert np.array_equal(_spin_raising(ops), ref["s_plus"]), (n, n_max)
            assert ops.dimension == ref["H_total"].shape[0]
            for two_u in _blocks_below_cutoff(n, n_max):
                idx, _ = _reference_sector(ref, two_u)
                dense = ref["H_total"][np.ix_(idx, idx)]
                block = oracle._sector_block(ops, two_u)
                assert np.array_equal(block, dense), (n, n_max, two_u)
                # signed zeros too: the coupling is added onto +0.0
                assert np.array_equal(np.signbit(block), np.signbit(dense)), (n, n_max, two_u)

    def test_decoupled_signed_zeros(self):
        # at eta = 0 each coupling entry eta*w_j*sqrt(k+1) is -0.0 where
        # w_j < 0; added onto +0.0 it stays +0.0, as in the dense sum
        cav0 = CavitySpec(omega_c=OMEGA_C, eta=0.0)
        for n, ell in ((3, 2 / 3), (8, 0.37)):
            lat = LatticeSpec(n_qubits=n, relative_spacing=ell, omega_q=13.458)
            ops = oracle.build_operators(lat, cav0, n_max=2)
            ref = _kron_reference(lat, cav0, 2)
            for two_u in _blocks_below_cutoff(n, 2):
                idx, _ = _reference_sector(ref, two_u)
                block = oracle._sector_block(ops, two_u)
                dense = ref["H_total"][np.ix_(idx, idx)]
                assert np.array_equal(np.signbit(block), np.signbit(dense))
                assert not np.any(np.signbit(block[block == 0.0]))

    def test_site_weights_enter_raising_operator(self):
        lat = LatticeSpec(n_qubits=4, relative_spacing=2 / 3, omega_q=13.458)
        ops = oracle.build_operators(lat, CAV, n_max=1)
        # acting on the all-down spin state must produce one single-flip
        # state per site, weighted cos(j*pi*ell)
        all_down = np.zeros(16)
        all_down[15] = 1.0
        image = _spin_raising(ops) @ all_down
        for j, weight in enumerate([1.0, -0.5, -0.5, 1.0]):
            flipped = 15 - 2 ** (3 - j)
            assert image[flipped] == pytest.approx(weight, abs=1e-12)
        assert np.count_nonzero(np.abs(image) > 1e-14) == 4


def _commutator_reference(ref, ell):
    """The commutator residuals from dense matrix products throughout,
    on the reference's qubit-space operators (on the product space when
    given its S_plus, S_minus, Sigma_z and S_z)."""

    def comm(x, y):
        return x @ y - y @ x

    s_z, s_plus, s_minus, sigma_z = (ref[key] for key in ("s_z", "s_plus", "s_minus", "sigma_z"))
    pm = comm(s_plus, s_minus)
    return oracle.CommutatorReport(
        sz_splus=float(np.max(np.abs(comm(s_z, s_plus) - s_plus))),
        sz_sminus=float(np.max(np.abs(comm(s_z, s_minus) + s_minus))),
        splus_sminus_sigma=float(np.max(np.abs(pm - 2.0 * sigma_z))),
        splus_sminus_sz=float(np.max(np.abs(pm - 2.0 * s_z))) if ell == 0.0 else None,
    )


def _two_builds_per_n(rng, draws=20):
    """The residuals (worst, worst_tc) of `validation.check_commutators` as
    it was with one sweep of the random ell and one ell = 0 lattice per N."""
    worst = 0.0
    worst_tc = 0.0
    for n in range(2, 7):
        ells = rng.uniform(0.0, 1.0, size=draws)
        for lat in (LatticeSpec(n, ells, np.full(draws, 13.458)), LatticeSpec(n, 0.0, 13.458)):
            rep = oracle.verify_commutators(lat)
            worst = max(rep.sz_splus, rep.sz_sminus, rep.splus_sminus_sigma, worst)
            if rep.splus_sminus_sz is not None:
                worst_tc = max(worst_tc, rep.splus_sminus_sz)
    return worst, worst_tc


class TestCommutators:
    def test_equals_matmul_reference(self):
        rng = np.random.default_rng(11)
        # the residual of [S_plus, S_minus] = 2*Sigma_z equals the Kronecker
        # one only when verify_commutators forms the reference's Sigma_z
        for n in range(1, 8):
            for ell in (0.0, *(float(x) for x in rng.uniform(size=3))):
                lat = LatticeSpec(n, ell, 13.458)
                ref = _kron_reference(lat, CAV, 1)
                assert oracle.verify_commutators(lat) == _commutator_reference(ref, ell)

    def test_product_space_residuals_on_validate_draws(self):
        # S_pm = s_pm (x) 1, so the identities hold on the product space
        # exactly when they hold on the qubit space; on the draws of
        # `validation.check_commutators` (N <= 6, n_max = 1) the product-
        # space matmul residuals are also the same floats
        rng = np.random.default_rng(12)
        eye_f = np.eye(2)
        for n in range(1, 7):
            for ell in (0.0, float(rng.uniform())):
                lat = LatticeSpec(n, ell, 13.458)
                ref = _kron_reference(lat, CAV, 1)
                product = {key: np.kron(ref[key], eye_f)
                           for key in ("s_z", "s_plus", "s_minus", "sigma_z")}
                assert oracle.verify_commutators(lat) == _commutator_reference(product, ell)

    def test_sweep_report_is_max_over_point_reports(self):
        # bit for bit: each residual of a sweep is the max over its points'
        # own reports, the ell = 0 one over the points at ell = 0 only; the
        # weight rows of a build are those of the points alone
        rng = np.random.default_rng(19)
        for n in range(1, 9):
            draws = [float(x) for x in rng.uniform(size=4)]
            for ells in ([0.0, 1.0, *draws], [*draws, 1.0], [draws[0], 0.0, 0.0]):
                sweep = LatticeSpec(n, ells, [13.458] * len(ells))
                alone = [LatticeSpec(n, x, 13.458) for x in ells]
                weights = oracle.build_operators(sweep, CAV, 1).weight
                for i, lat in enumerate(alone):
                    assert weights[i].tobytes() == oracle.build_operators(lat, CAV, 1).weight.tobytes()
                reports = [oracle.verify_commutators(lat) for lat in alone]
                at_zero = [r.splus_sminus_sz for r in reports if r.splus_sminus_sz is not None]
                expected = oracle.CommutatorReport(
                    sz_splus=max(r.sz_splus for r in reports),
                    sz_sminus=max(r.sz_sminus for r in reports),
                    splus_sminus_sigma=max(r.splus_sminus_sigma for r in reports),
                    splus_sminus_sz=max(at_zero) if at_zero else None,
                )
                assert repr(oracle.verify_commutators(sweep)) == repr(expected), (n, ells)

    def test_check_commutators_is_one_sweep_per_n(self, monkeypatch):
        # ell = 0 joins each N's sweep of random ell: one call per N, with
        # the residuals and rng draws of two calls per N
        for seed in range(60):
            old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = _two_builds_per_n(old_rng)
            got = validation.check_commutators(new_rng)
            assert repr(tuple(c.residual for c in got)) == repr(expected), seed
            assert new_rng.bit_generator.state == old_rng.bit_generator.state
        calls = []
        verify = oracle.verify_commutators

        def counted(lattice):
            calls.append(lattice.n_qubits)
            return verify(lattice)

        monkeypatch.setattr(oracle, "verify_commutators", counted)
        validation.check_commutators(np.random.default_rng(0))
        assert calls == [2, 3, 4, 5, 6]

    def test_site_pattern_is_cached_read_only(self):
        # every build at one N shares the cached N-only arrays, so a write
        # to one of them must fail rather than corrupt later builds
        ops = oracle.build_operators(LatticeSpec(3, 0.4, 13.458), CAV, n_max=1)
        pattern = oracle._site_pattern(3)
        assert ops.s_z is pattern[0] and ops.up is pattern[2] and ops.down is pattern[3]
        for array in pattern:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_homogeneous_su2(self):
        lat = LatticeSpec(n_qubits=4, relative_spacing=0.0, omega_q=13.458)
        rep = oracle.verify_commutators(lat)
        assert max(rep.sz_splus, rep.sz_sminus, rep.splus_sminus_sigma) < 1e-12
        assert rep.splus_sminus_sz is not None and rep.splus_sminus_sz < 1e-12

    def test_deformed_identities(self):
        rng = np.random.default_rng(5)
        for n in range(2, 7):
            for ell in rng.uniform(0.0, 1.0, size=5):
                rep = oracle.verify_commutators(LatticeSpec(n, float(ell), 13.458))
                assert rep.sz_splus < 1e-12
                assert rep.sz_sminus < 1e-12
                assert rep.splus_sminus_sigma < 1e-12


@st.composite
def _spacing_and_frequency(draw):
    """ell with its edges 0 and 1, and omega_q free, equal to omega_c, or
    on a quasi-period multiple 2*m*omega_c/ell (for ell >= 0.1 only: at
    ell = 0 there is none, and a subnormal ell would make it infinite)."""
    ell = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    frequencies = [st.floats(5.0, 20.0), st.just(OMEGA_C)]
    if ell >= 0.1:
        period = radiation.quasi_period(LatticeSpec(1, ell, OMEGA_C), CAV)
        frequencies.append(st.integers(1, 3).map(lambda m: m * period))
    return ell, draw(st.one_of(*frequencies))


class TestSectorSpectra:
    def test_excitation_conserved(self):
        # the reference H_total has no entry between sectors, so the
        # sector blocks hold all of it
        for ell in (0.0, 0.3, 2 / 3):
            lat = LatticeSpec(n_qubits=4, relative_spacing=ell, omega_q=13.458)
            ref = _kron_reference(lat, CAV, 4)
            number = np.diag(ref["S_z"]) + np.rint(np.diag(ref["a_dagger"] @ ref["a"]))
            between = number[:, None] != number[None, :]
            assert np.count_nonzero(ref["H_total"]) > 0
            assert not np.any(ref["H_total"][between])

    def test_homogeneous_limit_matches_model(self):
        # N = 9 and 12 lie past the commutators' N <= 8 guard, which the
        # sector spectra, reading 2^N arrays only, do not share
        for n in (2, 4, 6, 9, 12):
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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 7),
        n_max=st.integers(1, 4),
        spacing=_spacing_and_frequency(),
        eta=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    )
    @example(n=1, n_max=3, spacing=(2 / 3, 13.458), eta=0.1)
    @example(n=5, n_max=3, spacing=(0.37, 9.3), eta=0.1)
    @example(n=4, n_max=3, spacing=(0.0, 13.458), eta=0.1)
    @example(n=4, n_max=3, spacing=(1.0, 13.458), eta=0.1)
    @example(n=3, n_max=3, spacing=(2 / 3, 13.458), eta=0.0)
    @example(n=3, n_max=3, spacing=(0.4, OMEGA_C), eta=0.1)
    @example(n=4, n_max=3, spacing=(2 / 3, 2 * 2 * OMEGA_C / (2 / 3)), eta=0.1)
    @example(n=5, n_max=2, spacing=(1.0, 2 * OMEGA_C), eta=0.0)
    def test_sector_block_from_nonzeros_equals_dense(self, n, n_max, spacing, eta):
        ell, omega_q = spacing
        lat = LatticeSpec(n_qubits=n, relative_spacing=ell, omega_q=omega_q)
        cav = CavitySpec(omega_c=OMEGA_C, eta=eta)
        ops = oracle.build_operators(lat, cav, n_max=n_max)
        ref = _kron_reference(lat, cav, n_max)
        for two_u in _blocks_below_cutoff(n, n_max):
            idx, _ = _reference_sector(ref, two_u)
            dense = ref["H_total"][np.ix_(idx, idx)]
            block = oracle._sector_block(ops, two_u)
            assert block.tobytes() == dense.tobytes()
            spectrum = oracle.exact_sector_spectrum(ops, two_u)
            assert spectrum.tobytes() == np.linalg.eigvalsh(dense).tobytes()

    def test_sector_spectra_form_no_dense_field(self):
        lat = LatticeSpec(n_qubits=8, relative_spacing=0.0, omega_q=13.458)
        ops = oracle.build_operators(lat, CAV, n_max=8)
        for two_u in (-8, -6, -4):
            oracle.exact_sector_spectrum(ops, two_u)
        arrays = {k for k, v in vars(ops).items() if isinstance(v, np.ndarray)}
        assert arrays == SPIN_TERMS
        # the 2^N diagonal s_z and the N*2^(N-1) entries of s_plus
        held = sum(getattr(ops, k).nbytes for k in arrays)
        assert held == 8 * (2**8 + 3 * 8 * 2**7)

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

    def test_refusal_class_grid(self):
        # the class each (N, n_max, 2u) raises is read off the dense
        # reference's sector: ValueError when it is empty in the product
        # space (of either parity, below the ground sector or wholly above
        # the cutoff), TruncationError when one of its states has n_max
        # photons, and nothing otherwise
        for n in range(1, 6):
            lat = LatticeSpec(n_qubits=n, relative_spacing=0.3, omega_q=10.0)
            for n_max in range(1, 5):
                ops = oracle.build_operators(lat, CAV, n_max=n_max)
                ref = _kron_reference(lat, CAV, n_max)
                for two_u in range(-n - 3, n + 2 * n_max + 4):
                    idx, photons = _reference_sector(ref, two_u)
                    expected = None
                    if idx.size == 0:
                        expected = ValueError
                    elif np.any(photons >= n_max):
                        expected = oracle.TruncationError
                    try:
                        oracle.exact_sector_spectrum(ops, two_u)
                        raised = None
                    except ValueError as exc:
                        raised = type(exc)
                    assert raised is expected, (n, n_max, two_u)


class TestModelExactness:
    """The deformed model is exact in its two lowest sectors.

    In u = -r and u = -r+1 the photon couples only to the bright state
    sum_j w_j|j>, of norm^2 sum_j w_j^2 = N*f, and the model's ladder
    element sqrt(f*2r) is exactly that.  So in exact arithmetic the
    oracle's (N+1)-dimensional block of u = -r+1 has the model's two
    polariton levels plus N-1 dark levels omega_q*(1-r), and u = -r is
    the one level -r*omega_q.

    The two computed spectra then differ by rounding only, bounded by
    tol = (N+3)*eps*max(1, max|Omega|), with u = eps/2 and ||H||_2 =
    max|Omega|:
    - entries: each is a product of at most three rounded factors, and
      f is the mean of N rounded squares, so each block lies within
      about (N+3)*u*||H|| of its exact value in norm, and by Weyl so do
      its eigenvalues;
    - eigensolver: the backward-stable LAPACK solver gives |dLambda| <=
      p(n)*u*||H||_2 with p(n) a modestly growing function of the
      dimension n (LAPACK Users' Guide, error bounds for the symmetric
      eigenproblem), taken as n: N+1 for the oracle, 2 for the model.
    That sums to (2N+6)*u = (N+3)*eps.  Over 800 seeded draws (N = 1..8,
    random ell and omega_q) the deviation stays below 1.2*N*eps*max|Omega|.

    From u = -r+2 the model is approximate: at N=4, ell=0.4 its deviation
    is 6.2e-4 GHz, reported by `validate` as the soft check
    `deformed-model-deviation`, not asserted here.
    """

    @staticmethod
    def _deviation(lat, ops, model_lattice=None):
        worst, tol = 0.0, 0.0
        n = lat.n_qubits
        for two_u in (-n, -n + 2):
            exact = oracle.exact_sector_spectrum(ops, two_u)
            model = polariton.diagonalize_sector(model_lattice or lat, CAV, two_u).eigenvalues
            dark = np.full(exact.size - model.size, lat.omega_q * (1.0 - 0.5 * n))
            expected = np.sort(np.concatenate([model, dark]))
            worst = max(worst, float(np.max(np.abs(exact - expected))))
            scale = max(1.0, float(np.max(np.abs(exact))))
            tol = max(tol, (n + 3) * np.finfo(float).eps * scale)
        return worst, tol

    def test_lowest_two_sectors_match_within_rounding(self):
        rng = np.random.default_rng(2024)
        for n in range(1, 9):
            for _ in range(100):
                lat = LatticeSpec(n, float(rng.uniform()), float(rng.uniform(5.0, 20.0)))
                ops = oracle.build_operators(lat, CAV, n_max=2)
                worst, tol = self._deviation(lat, ops)
                assert worst <= tol, (n, lat.relative_spacing, worst / tol)

    def test_wrong_deformation_factor_exceeds_bound(self):
        # f = 1 (the model at ell = 0) against the oracle at ell = 0.4
        lat = LatticeSpec(4, 0.4, 13.458)
        ops = oracle.build_operators(lat, CAV, n_max=2)
        worst, tol = self._deviation(lat, ops, LatticeSpec(4, 0.0, 13.458))
        assert worst > 1e9 * tol
