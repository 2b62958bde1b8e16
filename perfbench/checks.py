"""Output checks, one per kind of operation.

Each check raises ``CheckError`` when the output is wrong and returns
nothing otherwise.  Every tolerance is one the package's own tests or
validation suite already use, except the spectrum bounds, which are
stated and argued at ``SPECTRUM_RESIDUAL_FACTOR``.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from quasilattice import polariton
from quasilattice.model import CavitySpec, LatticeSpec, deformation_factor


class CheckError(Exception):
    """An operation's output failed its check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _exit_ok(code: int) -> None:
    _require(code == 0, f"exit code {code}")


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) > 1, f"{path}: no data rows")
    return rows[0], np.array(rows[1:], dtype=float)


def check_dynamics(code: int, path: str) -> None:
    """Criterion 7 (0.9 < fitted/analytic rate < 1.1) and the norm bound
    of ``test_norm_conservation``, max|1 - norm| < 1e-6 * max(1, t_final),
    on both the summary and every written row."""
    _exit_ok(code)
    with open(path + ".summary.json") as fh:
        summary = json.load(fh)
    fit, analytic = summary["gamma_fit_ghz"], summary["gamma_analytic"]
    _require(fit is not None, f"no decay fit: {summary.get('fit_error')}")
    _require(0.9 < fit / analytic < 1.1, f"fitted/analytic rate {fit / analytic:.6g}")
    bound = 1e-6 * max(1.0, summary["t_final_ns"])
    header, data = _read_csv(path)
    _require(header[-1] == "norm_residual", f"unexpected header {header}")
    worst = max(summary["max_norm_residual"], float(np.max(data[:, -1])))
    _require(worst < bound, f"norm residual {worst:.3e} >= {bound:.3e}")
    n_steps = round(summary["t_final_ns"] / summary["dt_ns"])
    _require(len(data) == len(range(0, n_steps + 1, 10)), f"{len(data)} rows for {n_steps} steps")


def _chi_reference(lattice: LatticeSpec, cavity: CavitySpec, l: float, k: np.ndarray):
    """``radiation.chi_closed_form`` evaluated in extended precision.

    In float64 the closed form's own rounding, about
    eps * (N+1) * (1+phi) * (1+|chi|) / |den|, exceeds 1e-11 near its
    poles at N = 16.  The 64-bit mantissa of x86 long double makes eps
    2048 times smaller, so the program's output is held to the flat
    1e-11 of ``check_chi_identity`` (measured: within 2.1e-13 at N = 16).
    """
    ld, n = np.longdouble, lattice.n_qubits
    phase = ld(math.pi) * ld(lattice.relative_spacing) / ld(cavity.omega_c) * k.astype(ld)
    c1, cn1, cn = (np.cos(ld(x) * ld(math.pi)) for x in (l, l * (n - 1), n * l))
    e = [np.exp(1j * (p * phase).astype(np.clongdouble)) for p in (1, n, n + 1)]
    num = 1 + e[2] * cn1 - e[1] * cn - e[0] * c1
    den = 1 + e[0] * e[0] - 2 * e[0] * c1
    return num / den, np.abs(den)


def check_chi_sweep(code: int, path: str, lattice: LatticeSpec, cavity: CavitySpec,
                    k_points: int) -> None:
    """``check_chi_identity``: the CSV matches the closed form within
    1e-11 wherever the closed-form denominator exceeds 1e-3.  The
    reference is computed in extended precision (``_chi_reference``)."""
    _exit_ok(code)
    _, data = _read_csv(path)
    n = lattice.n_qubits
    _require(data.shape == (n * k_points, 7), f"shape {data.shape}, want {(n * k_points, 7)}")
    for i in range(n):
        rows = data[data[:, 0] == i]
        _require(len(rows) == k_points, f"l_index {i}: {len(rows)} rows")
        ref, den = _chi_reference(lattice, cavity, float(rows[0, 1]), rows[:, 2])
        good = den > 1e-3
        z = rows[good, 3] + 1j * rows[good, 4]
        err = float(np.max(np.abs(z - ref[good])))
        _require(err < 1e-11, f"l_index {i}: |chi - closed form| = {err:.3e}")


def check_decay_sweep(code: int, path: str, points: int, mirror: bool) -> None:
    """Row count, the column identity gamma = 2|s(k_q)|^2 - |s(0)|^2, and
    on the ell axis criterion 3a: mirror symmetry within 1e-10."""
    _exit_ok(code)
    _, data = _read_csv(path)
    _require(len(data) == points, f"{len(data)} rows, want {points}")
    _require(bool(np.all(np.isfinite(data))), "non-finite value")
    s_kq, s_0, gamma = data[:, 2], data[:, 3], data[:, 4]
    ident = float(np.max(np.abs(gamma - (2.0 * s_kq**2 - s_0**2))))
    _require(ident < 1e-12 * max(1.0, float(np.max(np.abs(gamma)))),
             f"gamma column identity off by {ident:.3e}")
    if mirror:
        asym = float(np.max(np.abs(gamma - gamma[::-1])))
        _require(asym < 1e-10, f"mirror asymmetry {asym:.3e}")


def check_pv(result) -> None:
    """Criterion 6: relative error below 1% and delta-halving
    self-consistency below 2e-3."""
    rel = abs(result.numeric - result.analytic) / abs(result.analytic)
    _require(rel < 0.01, f"PV relative error {rel:.3e}")
    _require(result.self_consistency < 2e-3, f"PV self-consistency {result.self_consistency:.3e}")


def check_validate(code: int, path: str) -> None:
    """The validation suite passed: exit code 0 and a passing report."""
    _exit_ok(code)
    with open(path) as fh:
        _require(json.load(fh)["passed"] is True, "report not passed")


# Backward stability of the symmetric tridiagonal eigensolver gives
# ||H c - Omega c|| <= p(d) * eps * ||H||_2 for a modest polynomial p of
# the dimension d, and the same with ||H||_2 -> 1 for the orthonormality
# of the eigenvectors.  We allow p(d) = 64 * d: the largest residual over
# every sector of 40 random (ell, omega_q) draws at N = 4, 8, 16, 32 was
# 0.95 * d * eps * ||H||_2, and the largest norm error 0.75 * d * eps.
SPECTRUM_RESIDUAL_FACTOR = 64


def _raising_operator(lattice: LatticeSpec, upper: dict, lower: dict) -> np.ndarray:
    """The collective raising operator from sector u-1 into u in the
    (n, m) basis: <n, m+1| S+ |n, m> = sqrt(f (r - m)(r + m + 1)), with
    the deformation factor f -- the ladder element of the coupling in
    ``polariton.build_sector_hamiltonian``."""
    f, r = deformation_factor(lattice), lattice.two_r / 2.0
    op = np.zeros((len(upper["basis"]), len(lower["basis"])))
    index = {(e["n"], e["two_m"]): j for j, e in enumerate(lower["basis"])}
    for i, e in enumerate(upper["basis"]):
        j = index.get((e["n"], e["two_m"] - 2))
        if j is not None:
            m = (e["two_m"] - 2) / 2.0
            op[i, j] = math.sqrt(f * (r - m) * (r + m + 1))
    return op


def check_spectrum(code: int, path: str, lattice: LatticeSpec, cavity: CavitySpec) -> None:
    """Every sector 2u = -N..N is present.  With b = 64 * d * eps, each
    sector satisfies ||H c - Omega c|| <= b ||H||_2 for every branch
    against ``polariton.build_sector_hamiltonian``, |sorted Omega -
    eigvalsh(H)| <= b ||H||_2, and |C^T C - I| <= b entrywise; and the
    raising elements into each sector are C_u^T S+ C_{u-1} within
    b * max(1, ||S+||_2) (``_raising_operator``)."""
    _exit_ok(code)
    with open(path) as fh:
        doc = json.load(fh)
    two_r = lattice.two_r
    got = [s["two_u"] for s in doc["sectors"]]
    _require(got == list(range(-two_r, two_r + 1, 2)), f"sectors {got}")
    eps = np.finfo(float).eps
    lower = None
    for sec in doc["sectors"]:
        h = polariton.build_sector_hamiltonian(lattice, cavity, sec["two_u"])
        d = h.shape[0]
        b = SPECTRUM_RESIDUAL_FACTOR * d * eps
        h_norm = max(1.0, float(np.linalg.norm(h, 2)))
        omega = np.array(sec["omega_ghz"])
        coef = np.array(sec["coefficients"]).T  # column b is branch b
        _require(coef.shape == (d, d) and omega.shape == (d,), f"sector {sec['two_u']}: shape")
        res = float(np.max(np.linalg.norm(h @ coef - coef * omega, axis=0)))
        _require(res <= b * h_norm,
                 f"sector {sec['two_u']}: eigen-residual {res:.3e} > {b * h_norm:.3e}")
        gap = float(np.max(np.abs(np.sort(omega) - np.linalg.eigvalsh(h))))
        _require(gap <= b * h_norm, f"sector {sec['two_u']}: eigenvalues off by {gap:.3e}")
        ortho = float(np.max(np.abs(coef.T @ coef - np.eye(d))))
        _require(ortho <= b, f"sector {sec['two_u']}: C^T C - I = {ortho:.3e}")
        if lower is not None:
            s_plus = _raising_operator(lattice, sec, lower)
            want = coef.T @ s_plus @ np.array(lower["coefficients"]).T
            got_r = np.array(sec.get("raising_elements_from_lower", []))
            _require(got_r.shape == want.shape, f"sector {sec['two_u']}: raising elements shape")
            bound = b * max(1.0, float(np.linalg.norm(s_plus, 2)))
            err = float(np.max(np.abs(got_r - want)))
            _require(err <= bound,
                     f"sector {sec['two_u']}: raising elements off by {err:.3e} > {bound:.3e}")
        lower = sec


def check_exact_spectrum(spectra: dict[int, np.ndarray], lattice: LatticeSpec,
                         cavity: CavitySpec) -> None:
    """``check_exact_limit``: at ell = 0 every model eigenvalue of each
    sector lies within 1e-10 of the exact product-space spectrum."""
    for two_u, exact in spectra.items():
        model = polariton.diagonalize_sector(lattice, cavity, two_u).eigenvalues
        worst = max(float(np.min(np.abs(exact - ev))) for ev in model)
        _require(worst < 1e-10, f"sector {two_u}: model vs exact {worst:.3e}")
