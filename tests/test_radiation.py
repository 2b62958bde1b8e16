import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from quasilattice.model import CavitySpec, LatticeSpec, deformation_factor
from quasilattice import cli, polariton, radiation, validation

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


def _outcome(fn, *args):
    """fn's value as its bytes and shape, or the type and message of what it raises."""
    try:
        value = np.asarray(fn(*args))
    except ValueError as exc:
        return type(exc), str(exc)
    return value.tobytes(), value.shape


def _former_healthy(lat, cav, l, k):
    """Where the former check compared l's chi: |den| > 1e-3, with den
    rounded as it was then."""
    theta = math.pi * lat.relative_spacing / cav.omega_c * k
    cos_l = math.cos(l * math.pi)
    return np.abs(1.0 + np.exp(2j * theta) - 2.0 * np.exp(1j * theta) * cos_l) > 1e-3


def _former_chi_identity(rng):
    """check_chi_identity's residual as it was computed before every l
    shared one evaluation: l by l, on that l's healthy points only, with
    the closed form and its error bound written out as they were then."""
    worst = 0.0
    cav = CavitySpec(omega_c=6.729, eta=0.1)
    k = np.linspace(0.02, 40.0, 2000)
    for n in range(2, 9):
        lat = LatticeSpec(n_qubits=n, relative_spacing=float(rng.uniform(0.05, 0.95)), omega_q=13.458)
        theta = math.pi * lat.relative_spacing / cav.omega_c * k
        e1, e_n, e_n1 = (np.exp(1j * m * theta) for m in (1, n, n + 1))
        eps = np.finfo(float).eps
        scale = radiation.CHI_CLOSED_FORM_C * eps * (n + 1) * np.maximum(1.0, np.abs(theta))
        for l in radiation.l_values(lat):
            good = _former_healthy(lat, cav, l, k)
            if not np.any(good):
                continue
            cos_l = math.cos(l * math.pi)
            num = 1.0 + e_n1 * math.cos(l * (n - 1) * math.pi) - e_n * math.cos(n * l * math.pi)
            num = num - e1 * cos_l
            den = (1.0 + e1 * e1 - 2.0 * e1 * cos_l)[good]
            a = radiation.chi(lat, cav, l, k[good])
            bound = scale[good] / np.abs(den)
            worst = max(worst, float(np.max(np.abs(a - num[good] / den) / bound)))
    return worst


class TestArrayL:
    """An array of l gives, bit for bit, the scalar call of each l along a leading axis."""

    K_REAL = np.linspace(0.05, 30.0, 97)

    @pytest.mark.filterwarnings("ignore:divide by zero")  # the bound on a pole, as l by l
    @pytest.mark.parametrize("n", [1, 3, 4, 16])
    @pytest.mark.parametrize("ell", [0.0, 0.37, 2 / 3, 1.0])
    @pytest.mark.parametrize("k", [K_REAL, K_REAL + 0.4j * np.cos(K_REAL), 7.5, 2.0 - 0.3j, 0.0])
    def test_matches_scalar_calls(self, n, ell, k):
        lat = LatticeSpec(n, ell, 13.458)
        ls = radiation.l_values(lat)
        functions = [radiation.chi, radiation.chi_closed_form]
        if np.isrealobj(k):
            functions.append(radiation.chi_closed_form_error_bound)
        for fn in functions:
            per_l = [_outcome(fn, lat, CAV, l, k) for l in ls]
            raised = [o for o in per_l if isinstance(o[0], type)]
            if raised:  # the closed form refuses a pole: the first l on one decides
                assert _outcome(fn, lat, CAV, ls, k) == raised[0]
                continue
            stacked = np.asarray(fn(lat, CAV, ls, k))
            assert stacked.shape == (n,) + np.shape(k)
            assert stacked.tobytes() == b"".join(o[0] for o in per_l)

    def test_scalar_l_types_unchanged(self):
        assert type(radiation.chi(LAT, CAV, 0.25, 7.5)) is complex
        assert type(radiation.chi_closed_form(LAT, CAV, 0.25, 7.5)) is complex
        assert type(radiation.chi_closed_form_error_bound(LAT, CAV, 0.25, 7.5)) is np.float64
        assert radiation.chi(LAT, CAV, [0.25, 0.5], 7.5).shape == (2,)
        assert radiation.chi(LAT, CAV, np.zeros((2, 3)), self.K_REAL).shape == (2, 3, 97)

    @pytest.mark.parametrize("public_closed_form", [True, False])
    def test_check_chi_identity_matches_former_loop(self, monkeypatch, public_closed_form):
        # rng seeds 20, 25, 26 and 33 put a grid point within 1e-9 of some l's
        # pole, where chi_closed_form refuses.  The check evaluates the closed
        # form's terms itself: without public_closed_form both public functions
        # refuse every call, and chi is off by 1e6 wherever the former check
        # skipped a point, so a check that compares any such point fails
        seeds = [*range(8), 20, 25, 26, 33] if public_closed_form else [20, 25, 26, 33]
        former = [repr(_former_chi_identity(np.random.default_rng(seed))) for seed in seeds]
        if not public_closed_form:
            def refuse(*args):
                raise AssertionError("check_chi_identity called a public closed-form function")

            def chi_off_where_skipped(lat, cav, l, k, chi=radiation.chi):
                healthy = np.array([_former_healthy(lat, cav, l_i, k) for l_i in l])
                return np.where(healthy, chi(lat, cav, l, k), 1e6)

            monkeypatch.setattr(radiation, "chi_closed_form", refuse)
            monkeypatch.setattr(radiation, "chi_closed_form_error_bound", refuse)
            monkeypatch.setattr(radiation, "chi", chi_off_where_skipped)
        new = [repr(validation.check_chi_identity(np.random.default_rng(seed))[0].residual)
               for seed in seeds]
        assert new == former


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

    @pytest.mark.parametrize("epsilon_d, area", [(1e-300, 1.0), (1.0, 1e-300)])
    def test_overflowing_prefactor_raises(self, epsilon_d, area):
        pref = radiation.PrefactorInputs(mu=1e150, epsilon_d=epsilon_d, area=area)
        with pytest.raises(ValueError, match="prefactor"):
            radiation.decay_rate(LAT, CAV, pref)
        sweep = LatticeSpec(4, (2 / 3, 0.5), (13.458, 13.458))
        with pytest.raises(ValueError, match="prefactor"):
            radiation.decay_rate(sweep, CAV, pref)

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


def _decay_rate_reference(lattice, cavity, prefactor_inputs=None, branch=0):
    """decay_rate evaluated one point at a time with scalar arithmetic, as
    it was before sweeps were batched: each sector block built entry by
    entry and solved by eigh alone, the raising element as a sum of
    outer products, and the site sum as one dot product per scalar k.
    The bit-for-bit reference for the batched evaluation."""

    def sector(two_u):
        basis = polariton.sector_basis(lattice, two_u)
        two_r = lattice.two_r
        f = deformation_factor(lattice)
        diag = np.array(
            [lattice.omega_q * two_m / 2.0 + cavity.omega_c * n for n, two_m in basis.entries]
        )
        off = []
        for n, two_m in basis.entries[1:]:
            rm = (two_r - two_m) / 2.0
            rm1 = (two_r + two_m) / 2.0 + 1.0
            off.append(cavity.eta * math.sqrt(n) * math.sqrt(f * rm * rm1))
        h = np.diag(diag)
        idx = np.arange(len(off))
        h[idx, idx + 1] = off
        h[idx + 1, idx] = off
        vals, vecs = np.linalg.eigh(h)
        vecs = vecs.take(vals.argsort(), axis=1)
        for b, col in enumerate(vecs.T.tolist()):
            if next(c for c in col if abs(c) > 1e-14) < 0:
                vecs[:, b] *= -1.0
        return basis, vecs

    upper_basis, upper = sector(-lattice.two_r + 2)
    lower_basis, lower = sector(-lattice.two_r)
    f = deformation_factor(lattice)
    u = upper_basis.two_u / 2.0
    r = lattice.two_r / 2.0
    lower_by_n = {n: j for j, (n, _) in enumerate(lower_basis.entries)}
    raising = np.zeros((upper_basis.dimension, lower_basis.dimension))
    for i, (n, _) in enumerate(upper_basis.entries):
        j = lower_by_n.get(n)
        if j is None:
            continue
        amp = math.sqrt(f * (r + u - n) * (r - u + n + 1))
        raising += np.multiply.outer(upper[i], lower[j]) * amp
    element = raising[branch, 0]

    def s(k):
        n = lattice.n_qubits
        j = np.arange(n)
        k_arr = np.asarray(k, dtype=complex)
        phase = 1j * math.pi * lattice.relative_spacing / cavity.omega_c * np.multiply.outer(k_arr, j)
        weights = (np.arange(n) % 2).astype(float)
        weights[0] = n
        return element * complex(np.exp(phase) @ weights) / n

    k_q = lattice.k_q
    s_kq = abs(s(k_q))
    s_0 = abs(s(0.0))
    gamma = 2.0 * s_kq**2 - s_0**2
    physical = None
    if prefactor_inputs is not None:
        pref = (
            k_q
            * prefactor_inputs.mu**2
            / (4.0 * prefactor_inputs.epsilon_d * prefactor_inputs.area)
        )
        physical = pref * gamma
    return radiation.DecayResult(
        gamma_normalized=gamma, s_at_kq=s_kq, s_at_zero=s_0, gamma_physical=physical
    )


_DECAY_FIELDS = ("s_at_kq", "s_at_zero", "gamma_normalized", "gamma_physical")
_PREFACTOR = ["--mu", "0.5", "--epsilon-d", "2.0", "--area", "1.0"]


def _assert_bitwise(result, references):
    """Every field of a batched result equals its references' bit for bit."""
    for name in _DECAY_FIELDS:
        expected = [getattr(ref, name) for ref in references]
        if expected[0] is None:
            assert getattr(result, name) is None
        else:
            assert np.asarray(getattr(result, name)).tobytes() == np.array(expected).tobytes(), name


@st.composite
def _sweep_point(draw):
    """One sweep point (ell, omega_q): ell at 0, 1, 1/2, 2/3 or anywhere
    in [0, 1], and omega_q anywhere in [0.5, 45], on a quasi-period
    multiple 2*m*omega_c/ell, or at or next to omega_c."""
    ell = draw(st.sampled_from([0.0, 1.0, 0.5, 2 / 3]) | st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(["any", "multiple", "omega_c", "near"]))
    if kind == "multiple" and ell >= 1e-3:  # a finite omega_q
        omega_q = draw(st.integers(1, 4)) * 2.0 * CAV.omega_c / ell
    elif kind == "omega_c":
        omega_q = CAV.omega_c
    elif kind == "near":
        omega_q = math.nextafter(CAV.omega_c, draw(st.sampled_from([0.0, math.inf])))
    else:
        omega_q = draw(st.floats(0.5, 45.0))
    return ell, omega_q


class TestBatchedDecayRate:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 32), branch=st.integers(0, 1),
           eta=st.sampled_from([0.0, 0.1]) | st.floats(0.001, 2.0),
           prefactor=st.booleans())
    def test_matches_reference_bitwise(self, data, n, branch, eta, prefactor):
        pairs = data.draw(st.lists(_sweep_point(), min_size=1, max_size=12))
        points = [LatticeSpec(n, *p) for p in pairs]
        sweep = LatticeSpec(n, *zip(*pairs))
        cavity = CavitySpec(omega_c=CAV.omega_c, eta=eta)
        pref = radiation.PrefactorInputs(mu=0.5, epsilon_d=2.0, area=1.5) if prefactor else None
        references = [_decay_rate_reference(p, cavity, pref, branch) for p in points]
        _assert_bitwise(radiation.decay_rate(sweep, cavity, pref, branch), references)
        single = radiation.decay_rate(points[0], cavity, pref, branch)
        _assert_bitwise(single, references[:1])
        assert type(single.gamma_normalized) is np.float64
        assert type(single.s_at_kq) is np.float64

    @pytest.mark.parametrize("sweep", ["ell", "omega-q"])
    def test_cli_blocks_match_reference(self, tmp_path, sweep):
        # more points than one CSV block holds, at N = 64
        points = cli._CHUNK_ROWS + 77
        out = tmp_path / "decay.csv"
        argv = ["decay-sweep", "--n", "64", "--sweep", sweep, "--points", str(points), *_PREFACTOR]
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (points, 6)
        pref = radiation.PrefactorInputs(mu=0.5, epsilon_d=2.0, area=1.0)
        references = [
            _decay_rate_reference(LatticeSpec(64, float(ell), float(wq)), CAV, pref)
            for ell, wq in rows[:, :2]
        ]
        for column, name in zip(rows[:, 2:].T, _DECAY_FIELDS):
            assert column.tobytes() == np.array([getattr(r, name) for r in references]).tobytes(), name

    def test_deformation_factor_once_per_point(self, monkeypatch):
        # every call receives the whole sweep: one per sector and one for
        # the raising element, each giving one factor per point
        calls = []
        real = polariton.deformation_factor
        monkeypatch.setattr(polariton, "deformation_factor", lambda p: calls.append(p) or real(p))
        sweep = LatticeSpec(4, np.linspace(0.0, 1.0, 21), np.full(21, 13.458))
        radiation.decay_rate(sweep, CAV)
        assert calls == [sweep] * 3
        calls.clear()
        polariton.transition_matrices(LAT, CAV, 4)
        assert calls == [LAT] * 9  # five sectors and four raising matrices

    def test_mixed_qubit_counts_rejected(self):
        # a sweep holds one n_qubits, so its points cannot mix counts; a
        # point count that differs between the fields, or none, is refused
        with pytest.raises(ValueError, match="one nonzero length"):
            radiation.decay_rate(LatticeSpec(4, (2 / 3, 0.5), (13.458,)), CAV)
        with pytest.raises(ValueError, match="one nonzero length"):
            radiation.decay_rate(LatticeSpec(4, (), ()), CAV)

    def test_error_of_first_failing_point(self):
        # point 1 overflows its site phase, point 2 its bare sector
        # energy: the sweep raises what point 1 raises alone, as a
        # point-by-point sweep does
        cavity = CavitySpec(omega_c=1e-307, eta=0.1)
        ells, omegas = (0.0, 0.5, 0.5), (13.458, 13.458, 1e308)
        with pytest.raises(ValueError, match="site phase"):
            radiation.decay_rate(LatticeSpec(4, ells, omegas), cavity)
        with pytest.raises(ValueError, match="bare sector energy"):
            radiation.decay_rate(LatticeSpec(4, ells[::-1], omegas[::-1]), cavity)


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
