"""Command-line front end: parameter parsing, sweep orchestration, and
CSV/JSON emission.

Exit codes: 0 success, 1 validation failure, 2 bad arguments, 3 I/O
error.  All floating-point CSV values are written with 17 significant
digits so they round-trip exactly, and repeated runs with the same
configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import dynamics, polariton, radiation, validation
from .model import CavitySpec, LatticeSpec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

_DEFAULTS = {
    "n": 4,
    "ell": 2.0 / 3.0,
    "omega_c": 6.729,
    "eta": 0.1,
    "omega_q": 13.458,
    "format": "csv",
    "branch": 0,
    "seed": 0,
    "threads": 0,  # 0 means machine parallelism
    "k_min": 0.05,
    "k_max": 30.0,
    "k_points": 600,
    "ell_min": 0.0,
    "ell_max": 1.0,
    "points": 201,
    "omega_q_min": 1.0,
    "omega_q_max": 40.5,
    "u_max_offset": 4,
    "bandwidth": 0.5,
    "modes": 601,
    "t_final": 0.0,  # 0 means auto from the analytic rate
    "dt": 0.2,
    "sample_stride": 10,
}
# The dynamics default drive frequency sits on a quasi-period multiple
# (3*omega_c for ell=2/3), where the discretized-continuum golden rule
# coincides with the analytic normalized rate.
_DYNAMICS_OMEGA_Q = 3 * 6.729


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value file; command-line flags override it")
    parser.add_argument("--n", type=int, help="number of qubits (default 4)")
    parser.add_argument("--ell", type=float, help="relative spacing in [0, 1] (default 2/3)")
    parser.add_argument("--omega-q", type=float, help="qubit frequency, GHz")
    parser.add_argument("--omega-c", type=float, help="cavity frequency, GHz (default 6.729)")
    parser.add_argument("--eta", type=float, help="cavity coupling, GHz (default 0.1)")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], help="output format")
    parser.add_argument("--threads", type=int, help="worker pool size (default: machine parallelism)")
    parser.add_argument("--branch", type=int, help="polariton branch index (default 0)")
    parser.add_argument("--seed", type=int, help="seed for randomized validation draws")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasilattice",
        description="Polariton spectra, radiation coupling profiles, and decay rates "
        "for a qubit quasi-lattice coupled to a cavity mode.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="polariton branches per excitation sector (JSON)")
    _add_shared(p)
    p.add_argument("--u-max-offset", type=int,
                   help="sectors up to u = -r + offset (default 4)")

    p = sub.add_parser("chi-sweep", help="coupling coefficient chi_l(k) over a k-grid (CSV)")
    _add_shared(p)
    p.add_argument("--k-min", type=float, help="lowest omega_k, GHz (default 0.05)")
    p.add_argument("--k-max", type=float, help="highest omega_k, GHz (default 30)")
    p.add_argument("--k-points", type=int, help="grid size (default 600)")

    p = sub.add_parser("decay-sweep", help="normalized decay rate over ell or omega_q (CSV)")
    _add_shared(p)
    p.add_argument("--sweep", choices=["ell", "omega-q"], default="ell",
                   help="sweep axis (default ell)")
    p.add_argument("--ell-min", type=float, help="ell sweep start (default 0)")
    p.add_argument("--ell-max", type=float, help="ell sweep end (default 1)")
    p.add_argument("--omega-q-min", type=float, help="omega_q sweep start, GHz")
    p.add_argument("--omega-q-max", type=float, help="omega_q sweep end, GHz")
    p.add_argument("--points", type=int, help="sweep grid size (default 201)")
    p.add_argument("--mu", type=float, help="dipole moment for the physical prefactor")
    p.add_argument("--epsilon-d", type=float, help="dielectric constant for the prefactor")
    p.add_argument("--area", type=float, help="resonator cross-section for the prefactor")

    p = sub.add_parser("dynamics", help="polariton amplitude decay into a discretized bath (CSV)")
    _add_shared(p)
    p.add_argument("--bandwidth", type=float, help="bath bandwidth, GHz (default 0.5)")
    p.add_argument("--modes", type=int, help="bath mode count (default 601)")
    p.add_argument("--t-final", type=float, help="horizon, ns (default: auto from the analytic rate)")
    p.add_argument("--dt", type=float, help="sampling step, ns (default 0.2)")
    p.add_argument("--sample-stride", type=int, help="write every k-th step (default 10)")

    p = sub.add_parser("validate", help="run the full self-check suite (JSON report)")
    _add_shared(p)

    return parser


def _load_config(path: str) -> dict:
    """Plain key=value file; '#' starts a comment, dashes and
    underscores in keys are interchangeable."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset options from the config file, then from defaults.
    Command-line flags always win."""
    from_file: dict[str, str] = {}
    if getattr(args, "config", None):
        from_file = _load_config(args.config)
    for key, raw in from_file.items():
        if getattr(args, key, None) is None and hasattr(args, key):
            default = _DEFAULTS.get(key)
            if isinstance(default, int) and not isinstance(default, bool):
                setattr(args, key, int(raw))
            elif isinstance(default, float):
                setattr(args, key, float(raw))
            else:
                setattr(args, key, raw)
    for key, default in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            if key == "omega_q" and args.command == "dynamics":
                setattr(args, key, _DYNAMICS_OMEGA_Q)
            else:
                setattr(args, key, default)
    return args


def _specs(args: argparse.Namespace) -> tuple[LatticeSpec, CavitySpec]:
    lattice = LatticeSpec(n_qubits=args.n, relative_spacing=args.ell, omega_q=args.omega_q)
    cavity = CavitySpec(omega_c=args.omega_c, eta=args.eta)
    return lattice, cavity


def _open_out(args: argparse.Namespace):
    if args.out:
        directory = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(directory):
            raise OSError(f"output directory does not exist: {directory}")
        return open(args.out, "w", newline="")
    return None


def _pool_size(args: argparse.Namespace) -> int:
    if args.threads and args.threads > 0:
        return args.threads
    return os.cpu_count() or 1


def run_chi_sweep(args: argparse.Namespace) -> int:
    lattice, cavity = _specs(args)
    if args.k_points < 2:
        raise ValueError("--k-points must be at least 2")
    if not 0 < args.k_min < args.k_max:
        raise ValueError("need 0 < --k-min < --k-max")
    k_grid = np.linspace(args.k_min, args.k_max, args.k_points)
    ls = radiation.l_values(lattice)

    def one_branch(l: float) -> np.ndarray:
        return np.atleast_1d(radiation.chi(lattice, cavity, l, k_grid))

    with ThreadPoolExecutor(max_workers=_pool_size(args)) as pool:
        rows_by_l = list(pool.map(one_branch, ls))

    fh = _open_out(args)
    out = fh or sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["l_index", "l_value", "omega_k_ghz", "re_chi", "im_chi", "abs_chi", "arg_chi_rad"])
        for i, (l, vals) in enumerate(zip(ls, rows_by_l)):
            for k, z in zip(k_grid, vals):
                writer.writerow([
                    i, _fmt(l), _fmt(k), _fmt(z.real), _fmt(z.imag),
                    _fmt(abs(z)), _fmt(math.atan2(z.imag, z.real)),
                ])
    finally:
        if fh:
            fh.close()
    return EXIT_OK


def run_decay_sweep(args: argparse.Namespace) -> int:
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    prefactor = None
    given = [args.mu, args.epsilon_d, args.area]
    if any(v is not None for v in given):
        if any(v is None for v in given):
            raise ValueError("--mu, --epsilon-d, and --area must be given together")
        prefactor = radiation.PrefactorInputs(mu=args.mu, epsilon_d=args.epsilon_d, area=args.area)

    if args.sweep == "ell":
        axis = np.linspace(args.ell_min, args.ell_max, args.points)
        if not 0.0 <= args.ell_min < args.ell_max <= 1.0:
            raise ValueError("ell sweep range must satisfy 0 <= min < max <= 1")
        def point(x: float):
            lat = LatticeSpec(n_qubits=args.n, relative_spacing=float(x), omega_q=args.omega_q)
            cav = CavitySpec(omega_c=args.omega_c, eta=args.eta)
            return radiation.decay_rate(lat, cav, prefactor, args.branch)
        ells = axis
        omegas = np.full(args.points, args.omega_q)
    else:
        if not 0.0 < args.omega_q_min < args.omega_q_max:
            raise ValueError("omega_q sweep range must satisfy 0 < min < max")
        axis = np.linspace(args.omega_q_min, args.omega_q_max, args.points)
        def point(x: float):
            lat = LatticeSpec(n_qubits=args.n, relative_spacing=args.ell, omega_q=float(x))
            cav = CavitySpec(omega_c=args.omega_c, eta=args.eta)
            return radiation.decay_rate(lat, cav, prefactor, args.branch)
        ells = np.full(args.points, args.ell)
        omegas = axis

    with ThreadPoolExecutor(max_workers=_pool_size(args)) as pool:
        results = list(pool.map(point, axis))

    header = ["ell", "omega_q_ghz", "s_kq_abs", "s_zero_abs", "gamma_normalized"]
    if prefactor is not None:
        header.append("gamma_physical_ghz")
    fh = _open_out(args)
    out = fh or sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for ell, wq, res in zip(ells, omegas, results):
            row = [_fmt(ell), _fmt(wq), _fmt(res.s_at_kq), _fmt(res.s_at_zero), _fmt(res.gamma_normalized)]
            if prefactor is not None:
                row.append(_fmt(res.gamma_physical))
            writer.writerow(row)
    finally:
        if fh:
            fh.close()
    return EXIT_OK


def run_spectrum(args: argparse.Namespace) -> int:
    lattice, cavity = _specs(args)
    two_r = lattice.two_r
    two_u_max = -two_r + 2 * args.u_max_offset
    sectors = []
    for two_u in range(-two_r, two_u_max + 1, 2):
        sec = polariton.diagonalize_sector(lattice, cavity, two_u)
        entry = {
            "two_u": two_u,
            "u": two_u / 2.0,
            "dimension": sec.basis.dimension,
            "basis": [{"n": n, "two_m": tm} for n, tm in sec.basis.entries],
            "omega_ghz": [float(v) for v in sec.eigenvalues],
            "stark_splitting_ghz": [float(v) for v in sec.stark_splittings],
            "coefficients": [
                [float(c) for c in sec.coefficients[:, b]]
                for b in range(sec.basis.dimension)
            ],
        }
        if two_u > -two_r:
            lower = polariton.diagonalize_sector(lattice, cavity, two_u - 2)
            entry["raising_elements_from_lower"] = [
                [
                    float(polariton.raising_element(lattice, sec, lower, b_up, b_lo))
                    for b_lo in range(lower.basis.dimension)
                ]
                for b_up in range(sec.basis.dimension)
            ]
        sectors.append(entry)
    doc = {
        "n_qubits": lattice.n_qubits,
        "relative_spacing": lattice.relative_spacing,
        "omega_q_ghz": lattice.omega_q,
        "omega_c_ghz": cavity.omega_c,
        "eta_ghz": cavity.eta,
        "sectors": sectors,
    }
    fh = _open_out(args)
    out = fh or sys.stdout
    try:
        json.dump(doc, out, indent=2)
        out.write("\n")
    finally:
        if fh:
            fh.close()
    return EXIT_OK


def run_dynamics(args: argparse.Namespace) -> int:
    lattice, cavity = _specs(args)
    bath = dynamics.normalized_bath(lattice, args.bandwidth, args.modes)
    gamma = radiation.decay_rate(lattice, cavity, branch=args.branch).gamma_normalized
    t_final = args.t_final
    if t_final <= 0:
        recurrence = 2.0 * math.pi / bath.spacing if bath.n_modes > 1 else math.inf
        horizon = 3.0 / gamma if gamma > 0 else 100.0
        t_final = min(horizon, 0.8 * recurrence)
    traj = dynamics.integrate_amplitudes(
        lattice, cavity, bath, t_final, args.dt,
        branch=args.branch, sample_stride=args.sample_stride,
    )
    stride = traj.sample_stride

    fh = _open_out(args)
    out = fh or sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["t_ns", "re_alpha", "im_alpha", "alpha_sq", "beta_total_sq", "norm_residual"])
        rows = zip(traj.times[::stride], traj.alpha[::stride], traj.beta_total_sq, traj.norm_history)
        for t, a, beta_sq, norm in rows:
            writer.writerow([
                _fmt(t), _fmt(a.real), _fmt(a.imag),
                _fmt(abs(a) ** 2), _fmt(beta_sq), _fmt(abs(1.0 - norm)),
            ])
    finally:
        if fh:
            fh.close()

    summary = {
        "t_final_ns": float(traj.times[-1]),
        "dt_ns": args.dt,
        "n_modes": bath.n_modes,
        "bandwidth_ghz": args.bandwidth,
        "max_norm_residual": float(np.max(np.abs(1.0 - traj.norm_history))),
    }
    try:
        summary["gamma_fit_ghz"] = dynamics.fit_decay(traj)
    except (dynamics.NonMonotoneWindowError, ValueError) as exc:
        summary["gamma_fit_ghz"] = None
        summary["fit_error"] = str(exc)
    summary["gamma_analytic"] = gamma
    if args.out:
        with open(args.out + ".summary.json", "w") as sfh:
            json.dump(summary, sfh, indent=2)
            sfh.write("\n")
    else:
        json.dump(summary, sys.stderr, indent=2)
        sys.stderr.write("\n")
    return EXIT_OK


def run_validate(args: argparse.Namespace) -> int:
    report = validation.run_all(seed=args.seed)
    doc = report.to_dict()
    doc["seed"] = args.seed
    fh = _open_out(args)
    out = fh or sys.stdout
    try:
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")
    finally:
        if fh:
            fh.close()
    return EXIT_OK if report.passed else EXIT_VALIDATION


_RUNNERS = {
    "spectrum": run_spectrum,
    "chi-sweep": run_chi_sweep,
    "decay-sweep": run_decay_sweep,
    "dynamics": run_dynamics,
    "validate": run_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        args = _resolve(args)
        return _RUNNERS[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, dynamics.StepSizeError, dynamics.RecurrenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
