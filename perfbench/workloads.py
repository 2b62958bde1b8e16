"""The three benchmark workloads, as fixed lists of operations.

A workload seed draws the physical parameters of each operation and
never its size.  Each operation calls one public entry point,
``quasilattice.cli.main(argv)`` or a public library function, and has
an output check from ``checks``.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from quasilattice import cli, oracle, radiation
from quasilattice.model import CavitySpec, LatticeSpec

import checks

# Defaults of the CLI that the workloads rely on and the checks restate.
OMEGA_C = 6.729
ETA = 0.1
OMEGA_Q = 13.458
K_POINTS = 600
SWEEP_POINTS = 201

# Validate seeds 0-59 whose suite passed at the baseline commit with
# every hard residual at most 0.75 of its tolerance, so that no
# operation fails and rounding differences between BLAS builds cannot
# tip one over.  Workload seed s runs entries 3s, 3s+1 and 3s+2 of this
# list, cyclically.  Seed 7, the ROADMAP blocker, fails today; it is run
# once per validate-oracle run as an untimed probe (BLOCKER_SEED).
PASSING_VALIDATE_SEEDS = (
    0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 15, 17, 19, 20, 21, 22, 25, 26, 28, 29, 32,
    33, 35, 36, 37, 38, 39, 40, 42, 43, 45, 47, 48, 49, 50, 52, 53, 54, 55, 56, 57,
    58, 59,
)
VALIDATE_SEEDS_PER_RUN = 3
BLOCKER_SEED = 7


@dataclass
class Op:
    """One operation: ``run`` calls the entry point and returns what
    ``check`` needs; ``outputs`` are the files it writes."""

    kind: str
    params: dict
    run: Callable[[], object]
    check: Callable[[object], None]
    outputs: list[str] = field(default_factory=list)


def _cli_op(kind: str, argv: list[str], out: str, params: dict, check) -> Op:
    argv = argv + ["--out", out]
    outputs = [out, out + ".summary.json"] if argv[0] == "dynamics" else [out]
    return Op(kind, dict(params, argv=argv),
              run=lambda: cli.main(argv),
              check=lambda code: check(code, out),
              outputs=outputs)


def _num(x: float) -> str:
    return repr(float(x))


def bath_decay(rng: np.random.Generator, out_dir: str, seed: int) -> list[Op]:
    bandwidth = float(rng.uniform(0.4, 0.6))
    return [_cli_op(
        "dynamics", ["dynamics", "--bandwidth", _num(bandwidth)],
        os.path.join(out_dir, "dynamics.csv"),
        {"bandwidth": bandwidth, "n": 4, "modes": 601, "omega_q": 3 * OMEGA_C,
         "dt": 0.2, "t_final": "auto"},
        checks.check_dynamics,
    )]


def radiation_sweep(rng: np.random.Generator, out_dir: str, seed: int) -> list[Op]:
    ops = []
    cav = CavitySpec(omega_c=OMEGA_C, eta=ETA)
    for n in (4, 16):
        ell = float(rng.uniform(0.05, 0.95))
        lat = LatticeSpec(n_qubits=n, relative_spacing=ell, omega_q=OMEGA_Q)
        ops.append(_cli_op(
            "chi_sweep", ["chi-sweep", "--n", str(n), "--ell", _num(ell)],
            os.path.join(out_dir, f"chi_n{n}.csv"),
            {"n": n, "ell": ell, "k_points": K_POINTS, "k_min": 0.05, "k_max": 30.0},
            lambda code, out, lat=lat: checks.check_chi_sweep(code, out, lat, cav, K_POINTS),
        ))
    for n, axis in ((4, "ell"), (16, "ell"), (4, "omega-q")):
        ops.append(_cli_op(
            "decay_sweep", ["decay-sweep", "--n", str(n), "--sweep", axis],
            os.path.join(out_dir, f"decay_n{n}_{axis}.csv"),
            {"n": n, "sweep": axis, "points": SWEEP_POINTS},
            lambda code, out, axis=axis: checks.check_decay_sweep(
                code, out, SWEEP_POINTS, mirror=axis == "ell"),
        ))
    for n in (4, 8):
        ell = float(rng.uniform(0.55, 0.95))
        lat = LatticeSpec(n_qubits=n, relative_spacing=ell, omega_q=OMEGA_Q)
        ops.append(Op(
            "pv_check", {"n": n, "ell": ell, "omega_q": OMEGA_Q, "n_points": 400001},
            run=lambda lat=lat: radiation.pv_integral_check(lat, cav),
            check=checks.check_pv,
        ))
    return ops


def validate_oracle(rng: np.random.Generator, out_dir: str, seed: int) -> list[Op]:
    ops = []
    for i in range(VALIDATE_SEEDS_PER_RUN):
        pick = (VALIDATE_SEEDS_PER_RUN * seed + i) % len(PASSING_VALIDATE_SEEDS)
        vseed = PASSING_VALIDATE_SEEDS[pick]
        ops.append(_cli_op(
            "validate", ["validate", "--seed", str(vseed)],
            os.path.join(out_dir, f"validate_{vseed}.json"),
            {"validate_seed": vseed}, checks.check_validate,
        ))
    ell = float(rng.uniform(0.05, 0.95))
    omega_q = float(rng.uniform(5.0, 20.0))
    cav = CavitySpec(omega_c=OMEGA_C, eta=ETA)
    for n in (4, 8, 16, 32):
        lat = LatticeSpec(n_qubits=n, relative_spacing=ell, omega_q=omega_q)
        ops.append(_cli_op(
            "spectrum",
            ["spectrum", "--n", str(n), "--u-max-offset", str(n),
             "--ell", _num(ell), "--omega-q", _num(omega_q)],
            os.path.join(out_dir, f"spectrum_n{n}.json"),
            {"n": n, "ell": ell, "omega_q": omega_q, "u_max_offset": n},
            lambda code, out, lat=lat: checks.check_spectrum(code, out, lat, cav),
        ))
    # Ranges of validation.check_closed_form for omega_q and eta.
    ex_lat = LatticeSpec(n_qubits=8, relative_spacing=0.0, omega_q=float(rng.uniform(5.0, 20.0)))
    ex_cav = CavitySpec(omega_c=OMEGA_C, eta=float(rng.uniform(0.02, 0.5)))
    sectors = (-8, -6, -4)
    ops.append(Op(
        "exact_spectrum",
        {"n": 8, "n_max": 8, "ell": 0.0, "omega_q": ex_lat.omega_q, "eta": ex_cav.eta,
         "omega_c": OMEGA_C, "two_u": list(sectors)},
        run=lambda: _exact_spectrum(ex_lat, ex_cav, sectors),
        check=lambda spectra: checks.check_exact_spectrum(spectra, ex_lat, ex_cav),
    ))
    return ops


def blocker_probe(out_dir: str) -> Op:
    """``validate`` on the ROADMAP's blocker seed.  It fails today; the
    runner reports its outcome apart from the measured operations."""
    return _cli_op("validate", ["validate", "--seed", str(BLOCKER_SEED)],
                   os.path.join(out_dir, f"validate_{BLOCKER_SEED}.json"),
                   {"validate_seed": BLOCKER_SEED}, checks.check_validate)


def _exact_spectrum(lat, cav, sectors):
    ops = oracle.build_operators(lat, cav, n_max=8)
    return {two_u: oracle.exact_sector_spectrum(ops, two_u) for two_u in sectors}


WORKLOADS = {
    "bath-decay": bath_decay,
    "radiation-sweep": radiation_sweep,
    "validate-oracle": validate_oracle,
}

# Functions that must record calls on each workload in a traced run
# (the layer map of README.md).  A refactor that routes a workload
# around one of them fails the traced run instead of dropping the layer.
EXPECTED_CALLS = {
    "bath-decay": [
        "cli.main", "model.deformation_factor",
        "dynamics.integrate_amplitudes", "dynamics.fit_decay", "dynamics.normalized_bath",
        "radiation.decay_rate", "radiation.s_factor", "polariton.first_excited_transition",
    ],
    "radiation-sweep": [
        "cli.main", "model.deformation_factor",
        "radiation.chi", "radiation.s_factor", "radiation.decay_rate",
        "radiation.pv_integral_check", "polariton.diagonalize_sector",
        "polariton.first_excited_transition", "polariton.raising_element",
    ],
    "validate-oracle": [
        "cli.main", "model.deformation_factor", "model.coupling_weights",
        "polariton.diagonalize_sector", "polariton.first_excited_transition",
        "polariton.raising_element", "polariton.closed_form_coefficients",
        "radiation.chi", "radiation.s_factor", "radiation.pv_integral_check",
        "oracle.build_operators", "oracle.exact_sector_spectrum", "oracle.verify_commutators",
        "validation.check_deformation_identity", "validation.check_commutators",
        "validation.check_closed_form", "validation.check_chi_identity",
        "validation.check_pv", "validation.check_exact_limit",
    ],
}


def build(workload: str, seed: int, out_dir: str) -> list[Op]:
    """The workload's operations for one seed, in the order one client
    issues them."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    return WORKLOADS[workload](rng, out_dir, seed)
