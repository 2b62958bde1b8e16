import math

import numpy as np
import pytest

from quasilattice import model, oracle, polariton, radiation, validation
from quasilattice.model import (
    CavitySpec,
    LatticeSpec,
    coupling_weights,
    deformation_factor,
)

SWEEP = LatticeSpec(4, (0.1, 0.2, 0.3, 0.4), (10.0, 11.0, 12.0, 13.0))
CAVITY = CavitySpec(omega_c=6.729, eta=0.1)
LATTICE = LatticeSpec(4, 0.3, 12.0)
CAVITY_SWEEP = CavitySpec((6.0, 6.5, 7.0, 7.5), (0.1, 0.0, 0.2, 0.3))
# each function that takes one spec of a kind: its call on (lattice,
# cavity), and the kinds of spec it refuses a sweep of
ONE_LATTICE_ONLY = {
    "quasi_period": (radiation.quasi_period, ("lattice", "cavity")),
    "pv_integral_check": (radiation.pv_integral_check, ("lattice", "cavity")),
    "closed_form_coefficients": (
        lambda lat, cav: polariton.closed_form_coefficients(lat, cav, -2, 0.1), ("lattice", "cavity")
    ),
    "exact_sector_spectrum": (
        lambda lat, cav: oracle.exact_sector_spectrum(oracle.build_operators(lat, cav, n_max=2), -4),
        ("lattice",),
    ),
    "build_operators": (lambda lat, cav: oracle.build_operators(lat, cav, n_max=2), ("cavity",)),
    "_closed_form_terms": (
        lambda lat, cav: validation._closed_form_terms(lat, cav, 0.25, np.array([2.0])), ("cavity",)
    ),
}


def _refusing(kind):
    return [name for name, (_, kinds) in ONE_LATTICE_ONLY.items() if kind in kinds]


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
    # decay_rate evaluates s at the resonant momentum k_q = omega_q
    assert radiation.decay_rate(lat, CAVITY).s_at_kq == abs(radiation.s_factor(lat, CAVITY, 9.0))


class TestSweepSpec:
    """A sweep is one LatticeSpec with one ell and one omega_q per point."""

    @pytest.mark.parametrize("ells, omegas", [
        ((0.1, 0.2), (10.0,)),  # lengths differ
        ((0.1,), (10.0, 11.0)),
        ((), ()),  # no point
        (0.5, (10.0, 11.0)),  # one field a scalar, the other a sequence
        ((0.1, 0.2), 10.0),
        (((0.1, 0.2),), ((10.0, 11.0),)),  # not one axis of points
    ])
    def test_refuses_bad_shapes(self, ells, omegas):
        with pytest.raises(ValueError, match="one nonzero length"):
            LatticeSpec(4, ells, omegas)

    @pytest.mark.parametrize("ells, omegas, field", [
        ((0.1, -0.1, 0.2), (10.0, 10.0, 10.0), "relative_spacing"),
        ((0.1, 0.2, 1.5), (10.0, 10.0, 10.0), "relative_spacing"),
        ((0.1, math.nan, 0.2), (10.0, 10.0, 10.0), "relative_spacing"),
        ((0.1, 0.2, 0.3), (10.0, 0.0, 10.0), "omega_q"),
        ((0.1, 0.2, 0.3), (10.0, 10.0, -1.0), "omega_q"),
        ((0.1, 0.2, 0.3), (10.0, math.inf, 10.0), "omega_q"),
        ((0.1, 0.2, 0.3), (math.nan, 10.0, 10.0), "omega_q"),
    ])
    def test_refuses_any_bad_point(self, ells, omegas, field):
        with pytest.raises(ValueError, match=field):
            LatticeSpec(4, ells, omegas)
        with pytest.raises(ValueError, match=field):
            LatticeSpec(4, np.array(ells), np.array(omegas))

    def test_stored_as_tuples_equal_and_hashable(self):
        ells, omegas = np.linspace(0.0, 1.0, 5), np.full(5, 13.458)
        sweep = LatticeSpec(4, ells, omegas)
        assert sweep.relative_spacing == tuple(ells.tolist())
        assert sweep.omega_q == (13.458,) * 5
        assert all(type(v) is float for v in sweep.relative_spacing + sweep.omega_q)
        same = LatticeSpec(4, list(ells), tuple(omegas))
        assert same == sweep and hash(same) == hash(sweep)
        assert len({sweep, same, LatticeSpec(4, ells[::-1], omegas)}) == 2
        assert sweep.two_r == 4

    def test_deformation_factor_per_point(self):
        # each entry bit for bit the point's own factor, ell in {0, 1} included
        ells = (0.0, 1e-10 / math.pi, 0.3, 0.5, 2 / 3, 1.0)
        for n in (1, 2, 5, 16):
            f = deformation_factor(LatticeSpec(n, ells, (10.0,) * len(ells)))
            alone = [deformation_factor(LatticeSpec(n, ell, 10.0)) for ell in ells]
            assert f.tobytes() == np.array(alone).tobytes()
        assert type(deformation_factor(LatticeSpec(4, 0.3, 10.0))) is float

    @pytest.mark.parametrize("name", _refusing("lattice"))
    def test_one_lattice_functions_refuse_a_sweep(self, name):
        # one plain ValueError naming the function, not a TypeError from
        # tuple arithmetic or a numpy broadcast error
        with pytest.raises(ValueError, match=f"^{name} takes one lattice, not a sweep$") as info:
            ONE_LATTICE_ONLY[name][0](SWEEP, CAVITY)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("name", _refusing("cavity"))
    @pytest.mark.parametrize("lattice", [LATTICE, SWEEP], ids=["one_lattice", "lattice_sweep"])
    def test_one_cavity_functions_refuse_a_cavity_sweep(self, name, lattice, monkeypatch):
        # refused before any arithmetic on the cavity, and before any
        # sector eigensolve; a function that takes one lattice refuses a
        # lattice sweep first
        solves, solve = [], polariton.diagonalize_sector
        monkeypatch.setattr(polariton, "diagonalize_sector", lambda *a: solves.append(a) or solve(*a))
        call, kinds = ONE_LATTICE_ONLY[name]
        kind = "lattice" if lattice is SWEEP and "lattice" in kinds else "cavity"
        with pytest.raises(ValueError, match=f"^{name} takes one {kind}, not a sweep$") as info:
            call(lattice, CAVITY_SWEEP)
        assert type(info.value) is ValueError
        assert solves == []

    def test_coupling_weights_per_point(self):
        # one row per point, even when there are as many points as qubits
        ells = (0.0, 0.3, 2 / 3, 1.0)
        rows = coupling_weights(LatticeSpec(4, ells, (10.0,) * 4))
        alone = [coupling_weights(LatticeSpec(4, ell, 10.0)) for ell in ells]
        assert rows.shape == (4, 4) and rows.tobytes() == np.array(alone).tobytes()


class TestCavitySweep:
    """A cavity sweep is one CavitySpec with one omega_c and one eta per point."""

    def test_one_cavity_keeps_float_fields(self):
        cav = CavitySpec(omega_c=6.729, eta=0.1)
        assert type(cav.omega_c) is float and type(cav.eta) is float
        detuning = cav.detuning(LATTICE)
        assert type(detuning) is float and detuning == 6.729 - 12.0

    def test_stored_as_tuples_equal_and_hashable(self):
        omegas, etas = np.linspace(5.0, 7.0, 5), np.array([0.0, 0.1, 0.2, 0.3, 0.4])
        sweep = CavitySpec(omegas, etas)
        assert sweep.omega_c == tuple(omegas.tolist()) and sweep.eta == tuple(etas.tolist())
        assert all(type(v) is float for v in sweep.omega_c + sweep.eta)
        same = CavitySpec(list(omegas), tuple(etas))
        assert same == sweep and hash(same) == hash(sweep)
        assert len({sweep, same, CavitySpec(omegas[::-1], etas)}) == 2

    def test_detuning_per_point(self):
        # each entry the float its point alone gives, for a lattice sweep too
        detuning = CAVITY_SWEEP.detuning(LATTICE)
        assert detuning.tolist() == [CavitySpec(w, 0.1).detuning(LATTICE) for w in CAVITY_SWEEP.omega_c]
        both = CAVITY_SWEEP.detuning(SWEEP)
        assert both.tolist() == [w - q for w, q in zip(CAVITY_SWEEP.omega_c, SWEEP.omega_q)]
        assert CAVITY.detuning(SWEEP).tolist() == [6.729 - q for q in SWEEP.omega_q]

    @pytest.mark.parametrize("omegas, etas", [
        ((6.0, 7.0), (0.1,)),  # lengths differ
        ((), ()),  # no point
        (6.0, (0.1, 0.2)),  # one field a scalar, the other a sequence
        (((6.0, 7.0),), ((0.1, 0.2),)),  # not one axis of points
    ])
    def test_refuses_bad_shapes(self, omegas, etas):
        with pytest.raises(ValueError, match="a sweep needs omega_c and eta of one nonzero length"):
            CavitySpec(omegas, etas)

    @pytest.mark.parametrize("omegas, etas, field", [
        ((6.0, 0.0, 7.0), (0.1, 0.1, 0.1), "omega_c"),
        ((6.0, 7.0, math.inf), (0.1, 0.1, 0.1), "omega_c"),
        ((math.nan, 6.0, 7.0), (0.1, 0.1, 0.1), "omega_c"),
        ((6.0, 6.5, 7.0), (0.1, -0.1, 0.1), "eta"),
        ((6.0, 6.5, 7.0), (0.1, 0.1, math.nan), "eta"),
    ])
    def test_refuses_any_bad_point(self, omegas, etas, field):
        with pytest.raises(ValueError, match=field):
            CavitySpec(omegas, etas)


def _deformation_identity_per_draw(rng):
    """The residuals of `validation.check_deformation_identity` as it was,
    one lattice and one mirror per draw."""
    worst_id = 0.0
    worst_sym = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        ell = float(rng.uniform(0.0, 1.0))
        lat = LatticeSpec(n_qubits=n, relative_spacing=ell, omega_q=10.0)
        f = deformation_factor(lat)
        worst_id = max(worst_id, abs(f - float(np.mean(coupling_weights(lat) ** 2))))
        mirror = LatticeSpec(n_qubits=n, relative_spacing=1.0 - ell, omega_q=10.0)
        worst_sym = max(worst_sym, abs(f - deformation_factor(mirror)))
    return worst_id, worst_sym


def test_check_deformation_identity_is_one_sweep_per_n(monkeypatch):
    # bit for bit the per-draw loop, with the same rng draws
    for seed in range(60):
        old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = _deformation_identity_per_draw(old_rng)
        got = validation.check_deformation_identity(new_rng)
        assert repr(tuple(c.residual for c in got)) == repr(expected), seed
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
    sweeps = []
    weights = validation.coupling_weights
    monkeypatch.setattr(validation, "coupling_weights", lambda lat: sweeps.append(lat) or weights(lat))
    validation.check_deformation_identity(np.random.default_rng(0))
    assert sorted(lat.n_qubits for lat in sweeps) == list(range(1, 9))
    assert all(isinstance(lat.relative_spacing, tuple) for lat in sweeps)


# ell in {0, 1}, ell on the analytic-limit branch, and two generic points
EDGE_ELLS = (0.0, 1e-10 / math.pi, 0.3, 2 / 3, 1.0)


class TestOwnedDeformationFactor:
    """A LatticeSpec forms its deformation factor once and keeps it."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        real = model._mean_squared_weight
        monkeypatch.setattr(model, "_mean_squared_weight", lambda n, x: calls.append(x) or real(n, x))
        return calls

    @pytest.mark.parametrize("n", [1, 4, 5])
    def test_sweep_factor_is_read_only(self, n):
        f = deformation_factor(LatticeSpec(n, EDGE_ELLS, (13.458,) * len(EDGE_ELLS)))
        with pytest.raises(ValueError, match="read-only"):
            f[0] = 0.5

    @pytest.mark.parametrize("n", [1, 4, 5])
    def test_sweep_formed_once_per_point(self, n, evaluations):
        sweep = LatticeSpec(n, EDGE_ELLS, (13.458,) * len(EDGE_ELLS))
        f = deformation_factor(sweep)
        radiation.decay_rate(sweep, CAVITY)
        polariton.transition_matrices(sweep, CAVITY, -n + 4)
        assert deformation_factor(sweep) is f
        assert evaluations == list(EDGE_ELLS)

    @pytest.mark.parametrize("n", [1, 4, 5])
    @pytest.mark.parametrize("ell", EDGE_ELLS)
    def test_one_lattice_formed_once(self, n, ell, evaluations):
        lat = LatticeSpec(n, ell, 13.458)
        f = deformation_factor(lat)
        radiation.decay_rate(lat, CAVITY)
        walk = polariton.transition_matrices(lat, CAVITY, -n + 2)
        eps = float(walk.sectors[1].stark_splittings[0])
        polariton.closed_form_coefficients(lat, CAVITY, -n + 2, eps)
        assert deformation_factor(lat) is f
        assert evaluations == [ell]

    @pytest.mark.parametrize("ells, omegas", [(0.3, 13.458), (EDGE_ELLS, (13.458,) * len(EDGE_ELLS))])
    def test_kept_factor_leaves_identity_alone(self, ells, omegas):
        read, fresh = LatticeSpec(5, ells, omegas), LatticeSpec(5, ells, omegas)
        deformation_factor(read)
        assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
        assert {read: "kept"}[fresh] == "kept"
