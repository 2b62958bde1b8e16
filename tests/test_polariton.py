import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

from quasilattice.model import CavitySpec, LatticeSpec, deformation_factor
from quasilattice import polariton, radiation, validation

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


def _closed_form_per_draw(rng):
    """The residual of `validation.check_closed_form` as it was: one
    eigensolve per draw, and the gap rule branch by branch."""
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        lat = LatticeSpec(n, float(rng.uniform(0.05, 0.95)), float(rng.uniform(5.0, 20.0)))
        cav = CavitySpec(float(rng.uniform(5.0, 20.0)), float(rng.uniform(0.02, 0.5)))
        two_u = int(rng.integers(-n + 2, n + 1))
        if (two_u - n) % 2 != 0:
            two_u += 1
        sec = polariton.diagonalize_sector(lat, cav, two_u)
        dw = cav.detuning(lat)
        for b in range(sec.basis.dimension):
            eps = float(sec.stark_splittings[b])
            gap = min(abs(eps - j * dw) for j in range(sec.basis.dimension))
            if gap < 1e-3 * max(1.0, abs(dw)):
                continue
            try:
                c = polariton.closed_form_coefficients(lat, cav, two_u, eps)
            except polariton.DegenerateDetuningError:
                continue
            worst = max(worst, float(np.linalg.norm(c - sec.coefficients[:, b])))
    return worst


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

    @pytest.mark.parametrize("n", [1, 3, 4])
    @pytest.mark.parametrize("eta", [0.0, 0.1])
    def test_sweep_stacks_its_points(self, n, eta):
        # blocks, sectors, raising matrices and the first excited element
        # of a sweep are those of its points alone, stacked, bit for bit;
        # omega_q = omega_c at eta = 0 makes every sector degenerate
        ells, omegas = (0.0, 0.37, 2 / 3, 1.0), (13.458, 6.729, 20.187, 9.3)
        cav = CavitySpec(omega_c=6.729, eta=eta)
        sweep = LatticeSpec(n, ells, omegas)
        points = [LatticeSpec(n, *p) for p in zip(ells, omegas)]

        def stacked(values):
            return np.array(values).tobytes()

        sectors = {}
        for two_u in range(-n, n + 3, 2):
            h = polariton.build_sector_hamiltonian(sweep, cav, two_u)
            blocks = [polariton.build_sector_hamiltonian(p, cav, two_u) for p in points]
            assert h.tobytes() == stacked(blocks)
            sec = sectors[two_u] = polariton.diagonalize_sector(sweep, cav, two_u)
            alone = [polariton.diagonalize_sector(p, cav, two_u) for p in points]
            for field in ("eigenvalues", "coefficients", "stark_splittings"):
                assert getattr(sec, field).tobytes() == stacked([getattr(a, field) for a in alone])
            if two_u > -n:
                lower = sectors[two_u - 2]
                raising = polariton.raising_matrix(sweep, sec, lower)
                assert raising.tobytes() == stacked([
                    polariton.raising_matrix(p, a, polariton.diagonalize_sector(p, cav, two_u - 2))
                    for p, a in zip(points, alone)
                ])
        element = polariton.first_excited_transition(sweep, cav)
        alone = [polariton.first_excited_transition(p, cav) for p in points]
        assert element.tobytes() == stacked(alone)

    @pytest.mark.parametrize("n", [1, 3, 4, 12])
    @pytest.mark.parametrize("lattice_sweep", [False, True])
    def test_cavity_sweep_stacks_its_points(self, n, lattice_sweep):
        # a sweep of omega_c and eta, with one lattice or with a lattice
        # sweep of its length: blocks, sectors, raising matrices and the
        # first excited element of its points alone, stacked, bit for bit
        omegas, etas = (6.729, 13.458, 5.1, 20.0), (0.1, 0.0, 0.37, 0.02)
        ells, omega_qs = (0.0, 0.37, 2 / 3, 1.0), (13.458, 13.458, 20.187, 9.3)
        cav = CavitySpec(omegas, etas)
        if lattice_sweep:
            lat = LatticeSpec(n, ells, omega_qs)
            points = [
                (LatticeSpec(n, ell, omega_q), CavitySpec(omega_c, eta))
                for ell, omega_q, omega_c, eta in zip(ells, omega_qs, omegas, etas)
            ]
        else:
            lat = LatticeSpec(n, 0.37, 13.458)
            points = [(lat, CavitySpec(*c)) for c in zip(omegas, etas)]

        def stacked(values):
            return np.array(values).tobytes()

        sectors = {}
        for two_u in range(-n, n + 3, 2):
            h = polariton.build_sector_hamiltonian(lat, cav, two_u)
            assert h.tobytes() == stacked([polariton.build_sector_hamiltonian(*p, two_u) for p in points])
            sec = sectors[two_u] = polariton.diagonalize_sector(lat, cav, two_u)
            alone = [polariton.diagonalize_sector(*p, two_u) for p in points]
            for field in ("eigenvalues", "coefficients", "stark_splittings"):
                assert getattr(sec, field).tobytes() == stacked([getattr(a, field) for a in alone])
            if two_u > -n:
                raising = polariton.raising_matrix(lat, sec, sectors[two_u - 2])
                assert raising.tobytes() == stacked([
                    polariton.raising_matrix(p[0], a, polariton.diagonalize_sector(*p, two_u - 2))
                    for p, a in zip(points, alone)
                ])
        element = polariton.first_excited_transition(lat, cav)
        assert element.tobytes() == stacked([polariton.first_excited_transition(*p) for p in points])
        # the radiation layer on the same points: chi and s on k with a
        # point axis (k = omega_q and a grid), on one grid for every point
        # (k[None]) and on a scalar k, which is each point's k (omega_q and
        # 0), and the decay rate; a k of another leading length is refused
        grid = np.array([(0.0, lat_p.omega_q, 30.0, -7.5) for lat_p, _ in points])
        shared = np.array([0.0, 13.458, 30.0, -7.5, 2.5])
        for k in (grid, shared[None], 13.458, 0.0):
            k_points = grid if k is grid else [k[0] if np.ndim(k) else k] * len(points)
            chi = radiation.chi(lat, cav, radiation.l_values(lat), k)
            assert chi.tobytes() == stacked([
                radiation.chi(*p, radiation.l_values(lat), k_p) for p, k_p in zip(points, k_points)
            ])
            s = radiation.s_factor(lat, cav, k)
            assert s.tobytes() == stacked([radiation.s_factor(*p, k_p) for p, k_p in zip(points, k_points)])
        refusal = r"^k's leading axis is the 4-point axis; k\[None\] is one grid for every point$"
        with pytest.raises(ValueError, match=refusal):
            radiation.chi(lat, cav, 0.25, shared)
        with pytest.raises(ValueError, match=refusal):
            radiation.s_factor(lat, cav, shared)
        rate = radiation.decay_rate(lat, cav)
        alone = [radiation.decay_rate(*p) for p in points]
        for field in ("gamma_normalized", "s_at_kq", "s_at_zero"):
            assert getattr(rate, field).tobytes() == stacked([getattr(a, field) for a in alone])

    @pytest.mark.parametrize("lattice_points, cavity_points", [(2, 3), (3, 2), (2, 1), (1, 3)])
    def test_sweeps_of_other_lengths_are_refused(self, lattice_points, cavity_points):
        # a one-point sweep does not broadcast against a longer one either;
        # the sector layer, the radiation layer and the detuning share the rule
        lat = LatticeSpec(4, (0.37,) * lattice_points, (13.458,) * lattice_points)
        cav = CavitySpec((6.729,) * cavity_points, (0.1,) * cavity_points)
        k = np.full(lattice_points, 2.0)
        calls = {
            "diagonalize_sector": lambda: polariton.diagonalize_sector(lat, cav, 0),
            "chi": lambda: radiation.chi(lat, cav, 0.25, k),
            "s_factor": lambda: radiation.s_factor(lat, cav, k),
            "decay_rate": lambda: radiation.decay_rate(lat, cav),
            "detuning": lambda: cav.detuning(lat),
        }
        message = f"^a lattice sweep of {lattice_points} points and a cavity sweep of {cavity_points} differ$"
        for name, call in calls.items():
            with pytest.raises(ValueError, match=message) as info:
                call()
            assert type(info.value) is ValueError, name

    @pytest.mark.parametrize("n, two_u", [(3, 1), (4, 0)])
    def test_overflowing_coupling_raises(self, n, two_u):
        # finite bare energies, but eta*sqrt(n)*sqrt(f*(r-m)*(r+m+1))
        # overflows: refused before any eigensolve, in build_sector_hamiltonian
        lat = LatticeSpec(n_qubits=n, relative_spacing=0.37, omega_q=13.458)
        cav = CavitySpec(omega_c=6.729, eta=1e308)
        for call in (polariton.diagonalize_sector, polariton.build_sector_hamiltonian):
            with pytest.raises(ValueError, match="sector coupling"):
                call(lat, cav, two_u)

    def test_non_finite_eigensolve_raises(self):
        # a finite block, diagonal (6.729, 1.7e308) and coupling 6e307,
        # whose larger eigenvalue overflows in the eigensolve itself
        lat = LatticeSpec(n_qubits=1, relative_spacing=0.37, omega_q=13.458)
        cav = CavitySpec(omega_c=1.7e308, eta=6e307)
        assert np.isfinite(polariton.build_sector_hamiltonian(lat, cav, 1)).all()
        with pytest.raises(RuntimeError, match="non-finite eigenvalues or coefficients"):
            polariton.diagonalize_sector(lat, cav, 1)

    def test_eigensolver_failure_raises(self, monkeypatch):
        def fail(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(RuntimeError, match="eigensolver failed: Eigenvalues did not"):
            polariton.diagonalize_sector(LAT, CAV, -LAT.two_r + 2)

    def test_overflowing_splitting_raises(self):
        # every bare energy and eigenvalue is finite, but u*omega_q is not
        # at 2u = 3 > 2r, a sector only a ladder above u = r reaches
        lat = LatticeSpec(n_qubits=1, relative_spacing=2 / 3, omega_q=1.7e308)
        cav = CavitySpec(omega_c=13.458, eta=0.1)
        assert np.isfinite(polariton.diagonalize_sector(lat, cav, 1).stark_splittings).all()
        with pytest.raises(ValueError, match="2u=3 splitting Omega - u.omega_q overflows"):
            polariton.diagonalize_sector(lat, cav, 3)

    def test_splitting_past_half_the_float_range_is_finite(self):
        # 2u*omega_q = 2.4e308 overflows, u*omega_q = 1.2e308 does not
        lat = LatticeSpec(n_qubits=1, relative_spacing=2 / 3, omega_q=8e307)
        cav = CavitySpec(omega_c=13.458, eta=0.1)
        sec = polariton.diagonalize_sector(lat, cav, 3)
        block = polariton.build_sector_hamiltonian(lat, cav, 3)
        assert np.array_equal(sec.stark_splittings, np.linalg.eigvalsh(block) - 1.5 * 8e307)
        assert np.isfinite(sec.stark_splittings).all()

    def test_half_integer_products_round_as_before(self):
        # omega_q*(2u/2) and (omega_q*2u)/2 round alike wherever the second
        # is finite: halving is exact away from the subnormals, and a
        # subnormal half comes from an exact product, |2u| >= 3 with a
        # normal omega_q keeping |u*omega_q| normal; pinned from the
        # smallest subnormal to the top of the range
        rng = np.random.default_rng(2024)
        omega_q = np.ldexp(1.0 + rng.random(40000), rng.integers(-1074, 1024, 40000))
        omega_q = np.concatenate((omega_q, [5e-324, 1e-323, 2.2250738585072014e-308, 8e307]))
        for two_u in range(-65, 66):
            with np.errstate(over="ignore"):
                before, now = omega_q * two_u / 2.0, omega_q * (two_u / 2.0)
            finite = np.isfinite(before)
            assert np.array_equal(now[finite], before[finite])
            assert np.isfinite(now[omega_q < 1e300]).all()

    def test_shared_deformation_factor_changes_no_bit(self):
        # first_excited_transition and transition_matrices read one f,
        # kept by the lattice, in every sector and raising matrix; each
        # output is that of the separate calls (TestBatchedDecayRate
        # counts the factor's evaluations)
        sweep = LatticeSpec(4, (0.0, 0.37, 2 / 3, 1.0), (13.458, 6.729, 20.187, 9.3))
        ladder = [polariton.diagonalize_sector(sweep, CAV, two_u) for two_u in (-4, -2, 0)]
        raising = [polariton.raising_matrix(sweep, up, lo) for lo, up in zip(ladder, ladder[1:])]
        element = polariton.raising_element(sweep, ladder[1], ladder[0], 0, 0)
        assert polariton.first_excited_transition(sweep, CAV).tobytes() == element.tobytes()
        walk = polariton.transition_matrices(sweep, CAV, 0)
        for field in ("eigenvalues", "coefficients", "stark_splittings"):
            assert [getattr(a, field).tobytes() for a in walk.sectors] == [
                getattr(a, field).tobytes() for a in ladder
            ]
        assert [r.tobytes() for r in walk.raising] == [r.tobytes() for r in raising]

    @pytest.mark.parametrize("n, two_u", [(4, -4), (3, 1), (4, 0)])
    def test_overflowing_bare_energy_raises(self, n, two_u):
        # omega_q*m + omega_c*n overflows: at N=4, 2u=-4 to -inf, at N=3,
        # 2u=1 to inf and N=4, 2u=0 to -inf + inf; refused before any
        # eigensolve, in build_sector_hamiltonian, which every caller goes through
        lat = LatticeSpec(n_qubits=n, relative_spacing=0.37, omega_q=1e308)
        cav = CavitySpec(omega_c=1e308, eta=0.1)
        for call in (polariton.diagonalize_sector, polariton.build_sector_hamiltonian):
            with pytest.raises(ValueError, match="bare sector energy"):
                call(lat, cav, two_u)
        if n == 3:
            # the two lowest sectors stay finite: omega_q*m is formed as
            # omega_q*(2m/2), so 2u=-3 is -1.5e308, not (-3e308)/2
            assert np.isfinite(polariton.first_excited_transition(lat, cav)).all()
            return
        with pytest.raises(ValueError, match="bare sector energy"):
            polariton.first_excited_transition(lat, cav)

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


def _index_sets_reference(n_top, q, low=0):
    """The former generator of descending index sets."""
    if q == 0:
        yield ()
        return
    for j in range(low, n_top - 2 * q + 3):
        for rest in _index_sets_reference(n_top, q - 1, j + 2):
            yield rest + (j,)


def _closed_form_reference(lattice, cavity, two_u, eps):
    """The former row-by-row expansion, verbatim: every row restarts its
    products from 1.0, checks its own denominators and forms each index
    factor anew."""
    basis = polariton.sector_basis(lattice, two_u)
    two_r = lattice.two_r
    if two_u > two_r:
        raise ValueError(
            "closed-form expansion only covers sectors with u <= r; use "
            "diagonalize_sector for higher sectors"
        )
    r = two_r / 2.0
    u = two_u / 2.0
    f = deformation_factor(lattice)
    dw = cavity.detuning(lattice)
    eta = cavity.eta

    if basis.dimension == 1:
        return np.ones(1)
    if eta == 0.0:
        # Decoupled limit: the branch is a bare basis state picked by eps.
        diag = np.array([dw * n for n, _ in basis.entries])
        col = np.zeros(basis.dimension)
        col[int(np.argmin(np.abs(diag - eps)))] = 1.0
        return col

    eps = polariton._refine_splitting(dw, eta, f, basis, two_r, eps)
    coeffs = np.empty(basis.dimension)
    n0 = basis.entries[0][0]
    for row, (n_abs, _) in enumerate(basis.entries):
        n = n_abs - n0  # steps above the sector's lowest photon number
        for j in range(1, n + 1):
            if abs(eps - j * dw) < 1e-12 * max(1.0, abs(eps)):
                raise polariton.DegenerateDetuningError(
                    f"eps - {j}*detuning vanishes for sector 2u={two_u}"
                )
        prefactor = 1.0
        for j in range(n):
            prefactor *= (eps - j * dw) / eta
        falling = math.prod(r + u - i for i in range(n))
        rising = math.prod(r - u + 1.0 + i for i in range(n))
        prefactor /= math.sqrt(math.factorial(n) * falling * rising)
        total = 0.0
        for q in range(n // 2 + 1):
            part = 0.0
            for desc in _index_sets_reference(n - 2, q):
                term = 1.0
                for jk in desc:
                    term *= (
                        -(eta**2)
                        * (jk + 1)
                        * (r + u - jk)
                        / (eps - jk * dw)
                        * (r - u + jk + 1)
                        / (eps - (jk + 1) * dw)
                    )
                part += term
            total += f ** (q - n / 2.0) * part
        coeffs[row] = prefactor * total
    coeffs /= np.linalg.norm(coeffs)
    lead = coeffs[np.nonzero(np.abs(coeffs) > 1e-14)[0][0]]
    if lead < 0:
        coeffs = -coeffs
    return coeffs


def _outcome(expansion, *args):
    """The repr of an expansion's coefficients, or of its refusal."""
    try:
        return repr(expansion(*args).tolist())
    except polariton.DegenerateDetuningError as exc:
        return f"DegenerateDetuningError({exc})"


class TestClosedForm:
    def test_index_sets_match_filtered_combinations(self):
        for n_top in range(-2, 15):
            for q in range(n_top // 2 + 3):
                filtered = [
                    c[::-1] for c in itertools.combinations(range(n_top + 1), q)
                    if all(b - a >= 2 for a, b in zip(c, c[1:]))
                ]
                assert list(polariton._descending_index_sets(n_top, q)) == filtered

    def test_equals_row_by_row_reference(self):
        # repr-equal to the former expansion for every branch of every
        # sector u <= r; zero detuning and a tiny eta put eps on a
        # denominator eps - j*dw, so the refusals, j included, match too
        rng = np.random.default_rng(19)
        refused = set()
        for draw in range(48):
            n = int(rng.integers(2, 9))
            lat = LatticeSpec(n, float(rng.uniform(0.05, 0.95)), float(rng.uniform(5.0, 20.0)))
            omega_c = [lat.omega_q, float(rng.uniform(5.0, 20.0))][draw % 3 > 0]
            cav = CavitySpec(omega_c, [1e-8, float(rng.uniform(0.02, 0.5))][draw % 3 != 1])
            for two_u in range(-n, n + 1, 2):
                sec = polariton.diagonalize_sector(lat, cav, two_u)
                for eps in sec.stark_splittings.tolist():
                    args = (lat, cav, two_u, eps)
                    got = _outcome(polariton.closed_form_coefficients, *args)
                    assert got == _outcome(_closed_form_reference, *args), (n, two_u, eps)
                    if got.startswith("Degenerate"):
                        refused.add(got.split(" - ")[1].split("*")[0])
        assert {"1", "2", "3"} <= refused

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
        # the multi-sum's n = 0 term; eps refines to 0.0 on one state, and
        # a non-finite eps is refused as in every other sector
        for eps in (0.0, -3.5, 1e300):
            c = polariton.closed_form_coefficients(LAT, CAV, -4, eps)
            assert c.tobytes() == np.ones(1).tobytes()
        with pytest.raises(ValueError):
            polariton.closed_form_coefficients(LAT, CAV, -4, math.nan)
        for eps in (math.inf, -math.inf):
            with pytest.raises(OverflowError):
                polariton.closed_form_coefficients(LAT, CAV, -4, eps)

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


class TestCheckClosedForm:
    """`validation.check_closed_form` stacks its draws by (N, 2u)."""

    def test_equals_per_draw_loop(self):
        # bit for bit, with the same rng draws
        for seed in range(60):
            old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = _closed_form_per_draw(old_rng)
            [got] = validation.check_closed_form(new_rng)
            assert repr(got.residual) == repr(expected), seed
            assert new_rng.bit_generator.state == old_rng.bit_generator.state

    def test_one_eigensolve_per_group(self, monkeypatch):
        # under run_all's rng, seed 0 draws 50 sectors in 20 (N, 2u) groups
        rng = np.random.default_rng(0)
        validation.check_deformation_identity(rng)
        validation.check_commutators(rng)
        calls = []
        diagonalize = polariton.diagonalize_sector

        def counted(lattice, cavity, two_u):
            calls.append((lattice.n_qubits, two_u, len(lattice.omega_q), len(cavity.eta)))
            return diagonalize(lattice, cavity, two_u)

        monkeypatch.setattr(polariton, "diagonalize_sector", counted)
        validation.check_closed_form(rng)
        assert len(calls) == len({call[:2] for call in calls}) == 20
        assert sum(call[2] for call in calls) == 50 and all(c[2] == c[3] for c in calls)


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
