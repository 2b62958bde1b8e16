import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

from quasilattice.model import CavitySpec, LatticeSpec, deformation_factor
from quasilattice import polariton, radiation

LAT = LatticeSpec(n_qubits=4, relative_spacing=2 / 3, omega_q=13.458)
CAV = CavitySpec(omega_c=6.729, eta=0.1)


def _raising_reference(lattice, upper, lower):
    """Every raising element by its own loop: the coefficient products
    of the basis states sharing a photon number n, times the ladder
    amplitude sqrt(f*(r+u-n)*(r-u+n+1)), summed in ascending n."""
    f = deformation_factor(lattice)
    u = upper.basis.two_u / 2.0
    r = lattice.two_r / 2.0
    lower_by_n = {n: j for j, (n, _) in enumerate(lower.basis.entries)}
    shared = [
        (i, lower_by_n[n], math.sqrt(f * (r + u - n) * (r - u + n + 1)))
        for i, (n, _) in enumerate(upper.basis.entries)
        if n in lower_by_n
    ]
    c_up, c_lo = upper.coefficients.tolist(), lower.coefficients.tolist()
    out = np.zeros((upper.basis.dimension, lower.basis.dimension))
    for b_up, b_lo in np.ndindex(out.shape):
        total = 0.0
        for i, j, amp in shared:
            total += c_up[i][b_up] * c_lo[j][b_lo] * amp
        out[b_up, b_lo] = total
    return out


def _diagonalize_reference(lattice, cavity, two_u):
    """Sector branches by scipy's tridiagonal solver on the block's
    diagonal and off-diagonal (a 1x1 block is its own eigenvalue), then
    the ascending sort and the gauge fix of ``diagonalize_sector``."""
    h = polariton.build_sector_hamiltonian(lattice, cavity, two_u)
    diag = np.diag(h).copy()
    if len(diag) == 1:
        vals, vecs = diag, np.ones((1, 1))
    else:
        vals, vecs = eigh_tridiagonal(diag, np.diag(h, 1).copy())
    order = vals.argsort()
    vals = vals[order]
    vecs = vecs.take(order, axis=1)
    for b, col in enumerate(vecs.T.tolist()):
        if next(c for c in col if abs(c) > 1e-14) < 0:
            vecs[:, b] *= -1.0
    return vals, vecs, vals - lattice.omega_q * two_u / 2.0


def _refine_reference(dw, eta, f, basis, two_r, eps):
    """The Newton refinement in ``Fraction`` arithmetic: the continuant
    and its derivative as exact rationals, each step rounded once, by
    float(), to the nearest float."""
    x_dw, x_f2 = Fraction(dw), Fraction(eta) ** 2 * Fraction(f)
    diag = [n * x_dw for n, _ in basis.entries]
    off2 = [
        x_f2 * n * Fraction(two_r - two_m, 2) * Fraction(two_r + two_m + 2, 2)
        for n, two_m in basis.entries[1:]
    ]
    for _ in range(3):
        x = Fraction(eps)
        p_prev, p = 1, diag[0] - x
        dp_prev, dp = 0, -1
        for d, b2 in zip(diag[1:], off2):
            p_prev, p, dp_prev, dp = (
                p,
                (d - x) * p - b2 * p_prev,
                dp,
                (d - x) * dp - p - b2 * dp_prev,
            )
        if dp == 0:
            break
        new = float(x - p / dp)
        if new == eps:
            break
        eps = new
    return eps


def _bits(x):
    """The IEEE bit patterns, so that +0.0 and -0.0 differ."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class TestSectorBasis:
    def test_ground_sector_is_one_dimensional(self):
        basis = polariton.sector_basis(LAT, -4)
        assert basis.entries == ((0, -4),)

    def test_first_excited_sector(self):
        basis = polariton.sector_basis(LAT, -2)
        assert basis.entries == ((0, -2), (1, -4))

    def test_interior_sector_dimension(self):
        # u = 0 for N=4: n runs 0..2
        basis = polariton.sector_basis(LAT, 0)
        assert [n for n, _ in basis.entries] == [0, 1, 2]

    def test_above_top_sector_starts_at_positive_n(self):
        # u = r + 1: lowest photon number is 1
        basis = polariton.sector_basis(LAT, 6)
        assert basis.entries[0] == (1, 4)

    def test_below_ground_raises(self):
        with pytest.raises(polariton.EmptySectorError):
            polariton.sector_basis(LAT, -6)

    def test_parity_mismatch_raises(self):
        with pytest.raises(polariton.EmptySectorError):
            polariton.sector_basis(LAT, -3)

    def test_half_integer_sectors_for_odd_chain(self):
        lat = LatticeSpec(n_qubits=3, relative_spacing=0.4, omega_q=10.0)
        basis = polariton.sector_basis(lat, -1)
        assert basis.entries == ((0, -1), (1, -3))


class TestSectorHamiltonian:
    def test_symmetric_tridiagonal(self):
        h = polariton.build_sector_hamiltonian(LAT, CAV, 0)
        assert np.allclose(h, h.T)
        assert np.allclose(np.triu(h, 2), 0.0)

    def test_diagonal_is_bare_energy(self):
        h = polariton.build_sector_hamiltonian(LAT, CAV, -2)
        # (n=0, m=-1): -omega_q; (n=1, m=-2): -2*omega_q + omega_c
        assert h[0, 0] == pytest.approx(-13.458)
        assert h[1, 1] == pytest.approx(-2 * 13.458 + 6.729)

    def test_first_excited_coupling_element(self):
        f = deformation_factor(LAT)
        h = polariton.build_sector_hamiltonian(LAT, CAV, -2)
        assert h[0, 1] == pytest.approx(2 * CAV.eta * math.sqrt(f), abs=1e-14)


class TestDiagonalization:
    def test_ground_energy(self):
        sec = polariton.diagonalize_sector(LAT, CAV, -4)
        assert sec.eigenvalues[0] == pytest.approx(-2 * 13.458)

    def test_eigenvalues_ascending_and_splittings(self):
        sec = polariton.diagonalize_sector(LAT, CAV, -2)
        assert np.all(np.diff(sec.eigenvalues) > 0)
        assert np.allclose(sec.stark_splittings, sec.eigenvalues + 13.458)

    def test_first_excited_quadratic(self):
        # eps^2 - detuning*eps - 4*eta^2*f = 0 for both branches
        f = deformation_factor(LAT)
        dw = CAV.detuning(LAT)
        sec = polariton.diagonalize_sector(LAT, CAV, -2)
        for eps in sec.stark_splittings:
            assert eps**2 - dw * eps - 4 * CAV.eta**2 * f == pytest.approx(0.0, abs=1e-10)

    def test_sign_convention(self):
        for two_u in (-2, 0, 2):
            sec = polariton.diagonalize_sector(LAT, CAV, two_u)
            for b in range(sec.basis.dimension):
                col = sec.coefficients[:, b]
                lead = col[np.nonzero(np.abs(col) > 1e-14)[0][0]]
                assert lead > 0

    def test_columns_orthonormal(self):
        sec = polariton.diagonalize_sector(LAT, CAV, 0)
        gram = sec.coefficients.T @ sec.coefficients
        assert np.allclose(gram, np.eye(sec.basis.dimension), atol=1e-12)

    @pytest.mark.parametrize("n, two_u, message", [
        (4, -4, "non-finite eigenvalues"),
        (3, 1, "non-finite eigenvalues or coefficients"),
        (4, 0, "eigensolver failed"),
    ])
    def test_non_finite_sector_raises(self, n, two_u, message):
        # omega_q*m + omega_c*n overflows: at N=4, 2u=-4 to an infinite
        # eigenvalue; at N=3, 2u=1 to a nan diagonal entry, where the
        # eigenvalues stay finite and the coefficients do not; at N=4,
        # 2u=0 to a nan entry on which LAPACK does not converge
        lat = LatticeSpec(n_qubits=n, relative_spacing=0.37, omega_q=1e308)
        cav = CavitySpec(omega_c=1e308, eta=0.1)
        with pytest.raises(RuntimeError, match=message):
            polariton.diagonalize_sector(lat, cav, two_u)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 32),
        ell=st.one_of(st.sampled_from([0.0, 0.5, 2 / 3, 1.0]), st.floats(0.0, 1.0)),
        omega_c=st.floats(5.0, 20.0),
        detuning=st.one_of(
            st.floats(-4.9, 10.0),
            st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, 6.729e-12, "period"]),
        ),
        eta=st.one_of(st.floats(0.02, 0.5), st.sampled_from([0.0, 1e-150, 1e-8])),
        sector=st.integers(0, 33),
    )
    @example(n=1, ell=0.0, omega_c=6.729, detuning=-3.0, eta=0.1, sector=0)
    @example(n=1, ell=1.0, omega_c=6.729, detuning=0.0, eta=0.1, sector=1)
    @example(n=4, ell=2 / 3, omega_c=6.729, detuning="period", eta=0.1, sector=1)
    @example(n=5, ell=0.37, omega_c=6.729, detuning=1e-13, eta=0.0, sector=3)
    @example(n=32, ell=1.0, omega_c=6.729, detuning=6.729e-12, eta=0.1, sector=16)
    def test_eigh_equals_tridiagonal_reference(self, n, ell, omega_c, detuning, eta, sector):
        # omega_q = omega_c + detuning, or on the first quasi-period multiple
        # 2*omega_c/ell; sectors run from the ground sector (dimension 1)
        # to one above the top sector u = r.
        cav = CavitySpec(omega_c, eta)
        if detuning == "period":
            omega_q = radiation.quasi_period(LatticeSpec(n, ell, omega_c), cav)
            if not math.isfinite(omega_q):
                omega_q = omega_c
        else:
            omega_q = omega_c + detuning
        lat = LatticeSpec(n, ell, omega_q)
        two_u = -lat.two_r + 2 * (sector % (lat.two_r + 2))
        sec = polariton.diagonalize_sector(lat, cav, two_u)
        ref = _diagonalize_reference(lat, cav, two_u)
        for field, expected in zip(("eigenvalues", "coefficients", "stark_splittings"), ref):
            assert np.array_equal(_bits(getattr(sec, field)), _bits(expected)), field


class TestClosedForm:
    def test_index_sets_match_filtered_combinations(self):
        for n_top in range(-2, 15):
            for q in range(n_top // 2 + 3):
                filtered = [
                    c[::-1] for c in itertools.combinations(range(n_top + 1), q)
                    if all(b - a >= 2 for a, b in zip(c, c[1:]))
                ]
                assert list(polariton._descending_index_sets(n_top, q)) == filtered

    def test_matches_eigensolver_across_sectors(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            lat = LatticeSpec(n, float(rng.uniform(0.05, 0.95)), float(rng.uniform(5, 20)))
            cav = CavitySpec(float(rng.uniform(5, 20)), float(rng.uniform(0.05, 0.4)))
            two_r = lat.two_r
            two_u = -two_r + 2 * int(rng.integers(1, two_r + 1))
            sec = polariton.diagonalize_sector(lat, cav, two_u)
            dw = cav.detuning(lat)
            for b in range(sec.basis.dimension):
                eps = float(sec.stark_splittings[b])
                gap = min(abs(eps - j * dw) for j in range(sec.basis.dimension))
                if gap < 1e-3 * max(1.0, abs(dw)):
                    continue
                c = polariton.closed_form_coefficients(lat, cav, two_u, eps)
                assert np.linalg.norm(c - sec.coefficients[:, b]) < 1e-7

    def test_refines_inaccurate_splitting(self):
        # N=6, top sector 2u=6, branch 6: the expansion amplifies an error
        # in eps by about 1e8, and the float eps = Omega - u*omega_q (Omega
        # about 56) is off by a few 1e-15, so eps must be refined first.
        lat = LatticeSpec(6, 0.8498293760374994, 18.744859024601045)
        cav = CavitySpec(8.698632951104582, 0.20917292226798462)
        sec = polariton.diagonalize_sector(lat, cav, 6)
        eps = float(sec.stark_splittings[6])
        for shift in (0.0, 5e-15, -5e-15, 1e-13):
            c = polariton.closed_form_coefficients(lat, cav, 6, eps + shift)
            assert np.linalg.norm(c - sec.coefficients[:, 6]) < 1e-7

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 8),
        ell=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        omega_q=st.floats(5.0, 20.0),
        detuning=st.one_of(
            st.floats(-4.9, 10.0), st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, -1e-9])
        ),
        eta=st.one_of(st.floats(0.02, 0.5), st.sampled_from([1e-150, 1e-8])),
        sector=st.integers(0, 8),
        branch=st.integers(0, 8),
        start=st.one_of(st.just("branch"), st.sampled_from([0.0, -0.0])),
        shift=st.sampled_from([0.0, 1e-15, -1e-12, 1e-6]),
    )
    @example(n=2, ell=0.0, omega_q=13.458, detuning=-6.729, eta=0.1, sector=0,
             branch=1, start="branch", shift=0.0)
    @example(n=3, ell=1.0, omega_q=13.458, detuning=-6.729, eta=1e-150, sector=2,
             branch=2, start="branch", shift=0.0)
    @example(n=5, ell=0.37, omega_q=9.3, detuning=1e-13, eta=0.1, sector=4,
             branch=3, start=-0.0, shift=0.0)
    @example(n=6, ell=0.8498293760374994, omega_q=18.744859024601045,
             detuning=8.698632951104582 - 18.744859024601045, eta=0.20917292226798462,
             sector=5, branch=6, start="branch", shift=0.0)
    def test_refinement_equals_fraction_reference(
        self, n, ell, omega_q, detuning, eta, sector, branch, start, shift
    ):
        lat = LatticeSpec(n, ell, omega_q)
        cav = CavitySpec(omega_q + detuning, eta)
        two_u = -lat.two_r + 2 * (1 + sector % lat.two_r)
        sec = polariton.diagonalize_sector(lat, cav, two_u)
        if start == "branch":
            eps = float(sec.stark_splittings[branch % sec.basis.dimension]) + shift
        else:
            eps = start
        args = (cav.detuning(lat), eta, deformation_factor(lat), sec.basis, lat.two_r, eps)
        assert _bits(polariton._refine_splitting(*args)) == _bits(_refine_reference(*args))

    @pytest.mark.parametrize("refine", [polariton._refine_splitting, _refine_reference])
    @pytest.mark.parametrize("eps, error", [
        (math.nan, ValueError), (math.inf, OverflowError), (-math.inf, OverflowError),
    ])
    def test_refinement_rejects_non_finite_splitting(self, refine, eps, error):
        basis = polariton.sector_basis(LAT, 0)
        with pytest.raises(error):
            refine(CAV.detuning(LAT), CAV.eta, deformation_factor(LAT), basis, LAT.two_r, eps)

    def test_four_qubit_first_excited_forms(self):
        # normalized c_0 = 2*eta*sqrt(f)/sqrt(eps^2+4*eta^2*f), |c_1| = |eps|/...
        f = deformation_factor(LAT)
        sec = polariton.diagonalize_sector(LAT, CAV, -2)
        for b in range(2):
            eps = float(sec.stark_splittings[b])
            norm = math.sqrt(eps**2 + 4 * CAV.eta**2 * f)
            c = polariton.closed_form_coefficients(LAT, CAV, -2, eps)
            assert c[0] == pytest.approx(2 * CAV.eta * math.sqrt(f) / norm, abs=1e-12)
            assert abs(c[1]) == pytest.approx(abs(eps) / norm, abs=1e-12)

    def test_ground_sector_coefficient_is_one(self):
        c = polariton.closed_form_coefficients(LAT, CAV, -4, 0.0)
        assert c.shape == (1,)
        assert c[0] == 1.0

    def test_decoupled_limit(self):
        cav0 = CavitySpec(omega_c=6.729, eta=0.0)
        sec = polariton.diagonalize_sector(LAT, cav0, -2)
        for b in range(2):
            c = polariton.closed_form_coefficients(LAT, cav0, -2, float(sec.stark_splittings[b]))
            assert np.linalg.norm(np.abs(c) - np.abs(sec.coefficients[:, b])) < 1e-12

    def test_degenerate_detuning_raises(self):
        # resonance: detuning 0 makes eps = 0 possible in a 3-dim sector
        lat = LatticeSpec(n_qubits=4, relative_spacing=0.5, omega_q=6.729)
        cav = CavitySpec(omega_c=6.729, eta=0.1)
        sec = polariton.diagonalize_sector(lat, cav, 0)
        mid = float(sec.stark_splittings[1])  # 0 by symmetry at zero detuning
        with pytest.raises(polariton.DegenerateDetuningError):
            polariton.closed_form_coefficients(lat, cav, 0, mid)

    def test_above_top_sector_rejected(self):
        with pytest.raises(ValueError):
            polariton.closed_form_coefficients(LAT, CAV, 6, 0.1)


class TestTransitions:
    def test_ground_transition_matches_closed_form(self):
        f = deformation_factor(LAT)
        sec = polariton.diagonalize_sector(LAT, CAV, -2)
        for b in range(2):
            eps = float(sec.stark_splittings[b])
            expected = 4 * CAV.eta * f / math.sqrt(eps**2 + 4 * CAV.eta**2 * f)
            got = polariton.first_excited_transition(LAT, CAV, branch=b)
            assert abs(got) == pytest.approx(abs(expected), abs=1e-12)

    def test_adjacency_required(self):
        upper = polariton.diagonalize_sector(LAT, CAV, 0)
        lower = polariton.diagonalize_sector(LAT, CAV, -4)
        with pytest.raises(ValueError):
            polariton.raising_element(LAT, upper, lower, 0, 0)

    def test_branch_out_of_range(self):
        with pytest.raises(ValueError):
            polariton.first_excited_transition(LAT, CAV, branch=5)

    def test_raising_reproduces_hamiltonian_coupling(self):
        # the collective ladder amplitudes are the sector off-diagonals:
        # summing |element|^2 over branch pairs gives the squared ladder norm
        tm = polariton.transition_matrices(LAT, CAV, two_u_max=-2)
        total = float(np.sum(tm.raising[0] ** 2))
        f = deformation_factor(LAT)
        # single ladder amplitude sqrt(f*(r+u)*(r-u+1)) with u=-1: sqrt(4f)
        assert total == pytest.approx(4 * f, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32])
    def test_matrix_kernel_matches_reference(self, n):
        # every sector pair up to one above the top sector u = r, where
        # the upper sector's lowest photon number has no partner below
        for ell, eta in itertools.product((0.0, 0.37, 2 / 3, 1.0), (0.0, 0.1)):
            lat = LatticeSpec(n_qubits=n, relative_spacing=ell, omega_q=13.458)
            cav = CavitySpec(omega_c=6.729, eta=eta)
            two_u_max = lat.two_r + 2
            tm = polariton.transition_matrices(lat, cav, two_u_max)
            sectors = [
                polariton.diagonalize_sector(lat, cav, two_u)
                for two_u in range(-lat.two_r, two_u_max + 1, 2)
            ]
            assert len(tm.raising) == len(sectors) - 1
            for lower, upper, got in zip(sectors, sectors[1:], tm.raising):
                ref = _raising_reference(lat, upper, lower)
                assert np.array_equal(_bits(got), _bits(ref))
                for b_up, b_lo in ((0, 0), (ref.shape[0] - 1, ref.shape[1] - 1)):
                    element = polariton.raising_element(lat, upper, lower, b_up, b_lo)
                    assert _bits(element) == _bits(ref[b_up, b_lo])

    @pytest.mark.parametrize("n", [1, 4, 5, 16])
    def test_ladder_sectors_match_fresh_diagonalization(self, n):
        lat = LatticeSpec(n_qubits=n, relative_spacing=0.37, omega_q=13.458)
        tm = polariton.transition_matrices(lat, CAV, lat.two_r + 2)
        two_us = list(range(-lat.two_r, lat.two_r + 3, 2))
        assert [sec.basis.two_u for sec in tm.sectors] == two_us
        for sec, two_u in zip(tm.sectors, two_us):
            fresh = polariton.diagonalize_sector(lat, CAV, two_u)
            assert sec.basis == fresh.basis
            for field in ("eigenvalues", "coefficients", "stark_splittings"):
                assert np.array_equal(_bits(getattr(sec, field)), _bits(getattr(fresh, field)))

    def test_ladder_below_ground_sector_rejected(self):
        assert len(polariton.transition_matrices(LAT, CAV, -LAT.two_r).sectors) == 1
        with pytest.raises(ValueError, match="below the ground sector"):
            polariton.transition_matrices(LAT, CAV, -LAT.two_r - 2)

    @pytest.mark.parametrize("n", [1, 4, 5])
    def test_ladder_top_of_wrong_parity_rejected(self, n):
        lat = LatticeSpec(n_qubits=n, relative_spacing=2 / 3, omega_q=13.458)
        for two_u_max in (-lat.two_r + 1, -lat.two_r + 3):
            with pytest.raises(polariton.EmptySectorError, match="parity"):
                polariton.transition_matrices(lat, CAV, two_u_max)
