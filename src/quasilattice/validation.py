"""Aggregated self-checks: algebra identities, oracle commutators,
closed-form vs eigensolver agreement, coupling-coefficient identity,
the level-shift principal value (periodic-kernel quadrature vs closed
form), and the homogeneous-lattice exact limit.

Hard checks assert known identities and exact limits; soft checks report
the deformed model's deviation from brute-force diagonalization at
ell != 0 without imposing a pass/fail threshold, since no quantitative
accuracy bound is claimed for that regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle, polariton, radiation
from .model import CavitySpec, LatticeSpec, coupling_weights, deformation_factor, refuse_sweep


@dataclass
class CheckResult:
    """Outcome of one validation check.

    residual is the measured figure of merit.  A check with a tolerance
    is "hard": it counts toward the exit status and passes when
    residual < tolerance, so a NaN residual fails.  One without is
    "soft": reported only, it always passes.
    """

    name: str
    residual: float
    tolerance: float | None
    detail: str

    @property
    def kind(self) -> str:
        return "soft" if self.tolerance is None else "hard"

    @property
    def passed(self) -> bool:
        return self.tolerance is None or bool(self.residual < self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "passed": self.passed,
            "residual": float(self.residual),
            "tolerance": None if self.tolerance is None else float(self.tolerance),
            "detail": self.detail,
        }


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "n_checks": len(self.checks),
            "checks": [c.to_dict() for c in self.checks],
        }


def check_deformation_identity(rng: np.random.Generator) -> list[CheckResult]:
    """The closed-form deformation factor equals the mean squared site
    weight, and is symmetric under ell -> 1 - ell.  The 50 draws of (N,
    ell) are taken first, then each N is one sweep of its ell and one of
    their mirrors 1 - ell."""
    groups: dict[int, list[float]] = {}
    for _ in range(50):
        groups.setdefault(int(rng.integers(1, 9)), []).append(float(rng.uniform(0.0, 1.0)))
    worst_id = worst_sym = 0.0
    for n, ells in groups.items():
        lat = LatticeSpec(n, ells, [10.0] * len(ells))
        mirror = LatticeSpec(n, [1.0 - ell for ell in ells], [10.0] * len(ells))
        f = deformation_factor(lat)
        worst_id = max(worst_id, *np.abs(f - np.mean(coupling_weights(lat) ** 2, axis=-1)).tolist())
        worst_sym = max(worst_sym, *np.abs(f - deformation_factor(mirror)).tolist())
    return [
        CheckResult("deformation-factor-identity", worst_id, 1e-12,
                    "closed form vs mean squared coupling weight, 50 random draws"),
        CheckResult("deformation-factor-symmetry", worst_sym, 1e-12, "f(ell) = f(1-ell), 50 random draws"),
    ]


def check_commutators(rng: np.random.Generator) -> list[CheckResult]:
    """Collective-spin commutation identities in the product space: per N
    one sweep of ell = 0 and 20 random ell."""
    cav = CavitySpec(omega_c=6.729, eta=0.1)
    worst = 0.0
    worst_tc = 0.0
    for n in range(2, 7):
        ells = np.concatenate(([0.0], rng.uniform(0.0, 1.0, size=20)))
        lat = LatticeSpec(n, ells, np.full(ells.size, 13.458))
        rep = oracle.verify_commutators(oracle.build_operators(lat, cav, n_max=1))
        worst = max(rep.sz_splus, rep.sz_sminus, rep.splus_sminus_sigma, worst)
        worst_tc = max(worst_tc, rep.splus_sminus_sz)
    return [
        CheckResult(
            name="collective-spin-commutators",
            residual=worst,
            tolerance=1e-12,
            detail="[Sz,S+/-] and [S+,S-]=2*Sigma_z, N=2..6, 20 random ell each",
        ),
        CheckResult(
            name="homogeneous-limit-su2",
            residual=worst_tc,
            tolerance=1e-12,
            detail="[S+,S-]=2*Sz at ell=0",
        ),
    ]


def check_closed_form(rng: np.random.Generator) -> list[CheckResult]:
    """Coefficient expansion vs tridiagonal eigensolver, on 50 random sectors.

    The 50 draws of (N, 2u, ell, omega_q, omega_c, eta) are taken first.
    Each (N, 2u) group is then one ``diagonalize_sector`` of a lattice and
    a cavity sweep, each point solved as alone, and the expansion runs on
    each branch that the gap rule keeps.  max never takes a NaN norm, so
    the grouped order gives the maximum that the order of the draws gives."""
    groups: dict[tuple[int, int], list[tuple[float, ...]]] = {}
    for _ in range(50):
        n = int(rng.integers(2, 7))
        ell, omega_q = float(rng.uniform(0.05, 0.95)), float(rng.uniform(5.0, 20.0))
        omega_c, eta = float(rng.uniform(5.0, 20.0)), float(rng.uniform(0.02, 0.5))
        two_u = int(rng.integers(-n + 2, n + 1))
        groups.setdefault((n, two_u + (two_u - n) % 2), []).append((ell, omega_q, omega_c, eta))
    worst = 0.0
    for (n, two_u), points in groups.items():
        ells, omega_qs, omega_cs, etas = zip(*points)
        lat, cav = LatticeSpec(n, ells, omega_qs), CavitySpec(omega_cs, etas)
        sec = polariton.diagonalize_sector(lat, cav, two_u)
        dw = cav.detuning(lat)[:, None]
        # Near-zero denominators eps - j*dw make the expansion
        # ill-conditioned; skip those branches.  The rule guards small
        # denominators only: closed_form_coefficients itself refines
        # eps, so an error in eps needs no skip.
        j_dw = np.arange(sec.basis.dimension) * dw[..., None]
        gap = np.abs(sec.stark_splittings[..., None] - j_dw).min(-1)
        keep = gap >= 1e-3 * np.maximum(1.0, np.abs(dw))
        for point, eps, columns, kept in zip(points, sec.stark_splittings.tolist(), sec.coefficients, keep):
            lat, cav = LatticeSpec(n, *point[:2]), CavitySpec(*point[2:])
            for b in np.flatnonzero(kept).tolist():
                try:
                    c = polariton.closed_form_coefficients(lat, cav, two_u, eps[b])
                except polariton.DegenerateDetuningError:
                    continue
                worst = max(worst, float(np.linalg.norm(c - columns[:, b])))
    return [CheckResult("closed-form-coefficients", worst, 1e-7, "expansion vs eigensolver, 50 random sectors")]


CHI_CLOSED_FORM_C = 16.0


def _closed_form_terms(
    lattice: LatticeSpec, cavity: CavitySpec, l, k: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(num, den, scale) of the geometric-sum closed form chi_l(k) = num/den
    of the direct site sum ``radiation.chi``, at the site phase
    phi = pi*ell*k/omega_c, and scale/|den| its float64 error bound.

    num and den carry l's axes in front of k's; the phase factors
    e^{i*phi}, e^{i*N*phi} and e^{i*(N+1)*phi} are computed once for every
    l, and each cos(m*l*pi) by math.cos.  scale is the l-independent
    C*eps*(N+1)*max(1, |phi|), eps machine epsilon and C = CHI_CLOSED_FORM_C.

    The bound |chi - num/den| <= scale/|den| at real k, to first order:
    phi is off by about eps*phi, so the phase factors are off by up to
    about 2*eps*(N+1)*phi.  The numerator is then off by about
    4*eps*(N+1)*max(1, phi) and the denominator by 5*eps*max(1, phi), and
    dividing by den amplifies both by 1/|den| (|chi| <= N): about 9 units
    of eps*(N+1)*max(1, phi)/|den|.  The direct sum adds at most
    eps*N^2*phi/2, within 14 such units for N <= 8 because |den| <= 4.
    These worst cases align every rounding error; over validate seeds
    0-59 the largest measured ratio is 5.5, hence C = 16.  A wrong l or a
    sign error differs by O(1) and exceeds the bound by orders of magnitude.
    """
    refuse_sweep("_closed_form_terms", cavity)
    n = lattice.n_qubits
    phase = math.pi * lattice.relative_spacing / cavity.omega_c * k
    e1, e_n, e_n1 = (np.exp(1j * m * phase) for m in (1, n, n + 1))
    shape = np.shape(l) + (1,) * phase.ndim
    cos_1, cos_n1, cos_n = (
        np.reshape([math.cos(x) for x in (np.ravel(l) * m * math.pi).tolist()], shape)
        for m in (1, n - 1, n)
    )
    num = 1.0 + e_n1 * cos_n1 - e_n * cos_n - e1 * cos_1
    den = 1.0 + e1 * e1 - 2.0 * e1 * cos_1
    scale = CHI_CLOSED_FORM_C * np.finfo(float).eps * (n + 1) * np.maximum(1.0, np.abs(phase))
    return num, den, scale


def _chi_identity_residual(lat: LatticeSpec, cav: CavitySpec, k: np.ndarray) -> float:
    """Worst |direct - closed| / bound of chi over every l and every point of k
    where |den| > 1e-3; a function, so that each lattice's arrays go on return."""
    ls = radiation.l_values(lat)
    direct = radiation.chi(lat, cav, ls, k)  # before the closed form's arrays: less peak memory
    num, den, scale = _closed_form_terms(lat, cav, ls, k)
    with np.errstate(all="ignore"):  # a point on a pole is masked out below
        ratio = np.abs(direct - num / den) / (scale / np.abs(den))
    return float(np.max(ratio[np.abs(den) > 1e-3]))


def check_chi_identity(rng: np.random.Generator) -> list[CheckResult]:
    """Direct-sum coupling coefficient vs its geometric closed form.

    The residual is the worst ratio of |direct - closed| to the per-point
    float64 error bound of ``_closed_form_terms``,
    C*eps*(N+1)*max(1, theta)/|den| with C = 16; the check passes below
    1.  A flat tolerance cannot serve here, because the closed form's
    forward error grows as 1/|den| towards the skip threshold.  Each
    lattice evaluates both forms once for every l on the whole grid.
    """
    cav = CavitySpec(omega_c=6.729, eta=0.1)
    k = np.linspace(0.02, 40.0, 2000)
    worst = max(
        _chi_identity_residual(LatticeSpec(n, float(rng.uniform(0.05, 0.95)), 13.458), cav, k)
        for n in range(2, 9)
    )
    return [
        CheckResult(
            name="chi-direct-vs-closed-form",
            residual=worst,
            tolerance=1.0,
            detail=(
                "max |direct - closed| / (C*eps*(N+1)*max(1,theta)/|den|), "
                f"C={CHI_CLOSED_FORM_C:g} from the first-order float64 "
                "error of the closed form; 2000-point grids with |den| > 1e-3, N=2..8"
            ),
        )
    ]


def check_pv(
    lattice: LatticeSpec = LatticeSpec(n_qubits=4, relative_spacing=2.0 / 3.0, omega_q=13.458),
    cavity: CavitySpec = CavitySpec(omega_c=6.729, eta=0.1),
) -> list[CheckResult]:
    """Level shift by the periodic-kernel quadrature vs its closed form:
    |numeric - analytic| over the float64 bound of
    ``radiation.pv_integral_check``, passing below 1.  The bound is
    absolute because the shift has exact zeros (ell = 3/4 for N = 4 at
    omega_q = 2*omega_c; every ell for N = 1)."""
    res = radiation.pv_integral_check(lattice, cavity)
    ratio = abs(res.numeric - res.analytic) / max(res.bound, np.finfo(float).tiny)
    return [
        CheckResult(
            name="principal-value-quadrature",
            residual=ratio,
            tolerance=1.0,
            detail=(
                f"numeric={res.numeric:.6e}, analytic={res.analytic:.6e}; "
                "|numeric - analytic| / (C*eps*N*(1+theta*k_q)*(1+ln M)*(pi/k_q)*sum|c_d|), "
                f"C={radiation.PV_LEVEL_SHIFT_C:g}; M vs 2M residual={res.self_consistency:.2e}"
            ),
        )
    ]


def _worst_sector_deviation(lat: LatticeSpec, cav: CavitySpec, n_max: int, sectors) -> float:
    """Worst distance of a model sector eigenvalue from the nearest
    product-space eigenvalue of its sector, over the given sectors 2u."""
    ops = oracle.build_operators(lat, cav, n_max=n_max)
    worst = 0.0
    for two_u in sectors:
        exact = oracle.exact_sector_spectrum(ops, two_u)
        for ev in polariton.diagonalize_sector(lat, cav, two_u).eigenvalues:
            worst = max(worst, float(np.min(np.abs(exact - ev))))
    return worst


def check_exact_limit() -> list[CheckResult]:
    """Homogeneous-lattice (ell=0) model spectra vs brute-force
    diagonalization, plus soft deformed-case deviation reports."""
    cav = CavitySpec(omega_c=6.729, eta=0.1)
    worst = 0.0
    for n in (2, 4, 6):
        lat = LatticeSpec(n_qubits=n, relative_spacing=0.0, omega_q=13.458)
        sectors = range(-lat.two_r, -lat.two_r + 5, 2)
        worst = max(worst, _worst_sector_deviation(lat, cav, 4, sectors))
    # Deformed lattice: the model is approximate; report the deviation.
    lat = LatticeSpec(n_qubits=4, relative_spacing=2.0 / 3.0, omega_q=13.458)
    worst_soft = _worst_sector_deviation(lat, cav, 8, (-4, -2, 0))
    return [
        CheckResult(
            name="homogeneous-limit-spectra",
            residual=worst,
            tolerance=1e-10,
            detail="model sector eigenvalues vs product-space diagonalization, ell=0",
        ),
        CheckResult(
            name="deformed-model-deviation",
            residual=worst_soft,
            tolerance=None,
            detail="model vs exact eigenvalues at N=4, ell=2/3 (reported, not asserted)",
        ),
    ]


def run_all(seed: int = 0) -> ValidationReport:
    """Run the full suite with seeded random draws."""
    rng = np.random.default_rng(seed)
    report = ValidationReport()
    report.checks += check_deformation_identity(rng)
    report.checks += check_commutators(rng)
    report.checks += check_closed_form(rng)
    report.checks += check_chi_identity(rng)
    report.checks += check_pv()
    report.checks += check_exact_limit()
    return report
