"""Command-line front end: parameter parsing, sweep orchestration, and
CSV/JSON emission.

Each option is declared once, with its default, on the subcommands that
read it: ``--config`` and ``--out`` on all five; the model flags
``--n``, ``--ell``, ``--omega-q``, ``--omega-c`` and ``--eta`` on
``spectrum``, ``chi-sweep``, ``decay-sweep`` and ``dynamics``;
``--branch`` on ``decay-sweep`` and ``dynamics``; ``--seed`` on
``validate``.  Any other flag, or ``--config`` key, is a usage error.

Exit codes: 0 success, 1 a failed ``validate`` and nothing else, 2 bad
arguments (among them a request too large to allocate, and finite inputs
whose results leave the float range), 3 I/O error.  All floating-point CSV
values are written with 17 significant digits so they round-trip
exactly; CSV rows end in ``\r\n`` and no field is quoted, since every
field is numeric.  Repeated runs with the same configuration are
byte-identical.  Each ``run_*`` imports the layer modules it calls, so a
run loads only its own subcommand's layers.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .model import CavitySpec, LatticeSpec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

_CHUNK_ROWS = 1024  # rows held as Python objects at a time, and decay_rate points per call


def _format(template: str, values) -> list[str]:
    """template % v for each v: the one step at which a CSV value becomes text."""
    return [template % v for v in values]


def _write_csv(out, header: list[str], columns) -> None:
    """Write the header, then the rows of the table, whose columns are numpy arrays or lists of one
    length, at most _CHUNK_ROWS rows per write, each chunk as one % of its repeated row template over
    one flat tuple.  A str field is written as is, any other as "%.17g" (an int prints as is)."""
    out.write(",".join(header) + "\r\n")
    for lo in range(0, len(columns[0]), _CHUNK_ROWS):
        chunk = [c[lo : lo + _CHUNK_ROWS] for c in columns]
        chunk = [c.tolist() if isinstance(c, np.ndarray) else c for c in chunk]
        template = ",".join(["%s" if isinstance(c[0], str) else "%.17g" for c in chunk]) + "\r\n"
        out.write(_format(template * len(chunk[0]), [tuple(itertools.chain.from_iterable(zip(*chunk)))])[0])


def _json_leaf(value) -> str:
    """json.dumps(value) for a leaf: a str, an int, a finite float, None, True or False without
    json.dumps, any other value through it."""
    kind = type(value)
    if kind is int or kind is float and math.isfinite(value):
        return kind.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    return json.dumps(value)


def _json_pieces(value, sort_keys: bool, indent: str = "\n"):
    """The text of json.dumps(value, indent=2, sort_keys=sort_keys), in pieces: a flat list of
    finite floats is joined with float.__repr__, and every other leaf goes to _json_leaf."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        sep = "{" + inner
        for key, item in sorted(value.items()) if sort_keys else value.items():
            yield sep + _json_leaf(key) + ": "
            yield from _json_pieces(item, sort_keys, inner)
            sep = "," + inner
        yield indent + "}"
    elif isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {float} and math.isfinite(sum(value)):
            yield "[" + inner + ("," + inner).join(map(float.__repr__, value)) + indent + "]"
            return
        sep = "[" + inner
        for item in value:
            yield sep
            yield from _json_pieces(item, sort_keys, inner)
            sep = "," + inner
        yield indent + "]"
    else:
        yield _json_leaf(value)


def _write_json(out, doc, sort_keys: bool = False) -> None:
    """Write doc as json.dump(doc, out, indent=2, sort_keys=sort_keys) does, piece by piece, and
    a newline."""
    out.writelines(_json_pieces(doc, sort_keys))
    out.write("\n")


class _HelpFormatter(argparse.HelpFormatter):
    """Appends an option's default, if it has one, to its help text."""

    def _get_help_string(self, action: argparse.Action) -> str:
        if action.default in (None, argparse.SUPPRESS):
            return action.help
        return f"{action.help} (default %(default)s)"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value file; command-line flags override it")
    parser.add_argument("--out", help="output path (default stdout)")


def _add_model(parser: argparse.ArgumentParser, omega_q: float = 13.458) -> None:
    parser.add_argument("--n", type=int, default=4, help="number of qubits")
    parser.add_argument("--ell", type=float, default=2 / 3, help="relative spacing in [0, 1]")
    parser.add_argument("--omega-q", type=float, default=omega_q, help="qubit frequency, GHz")
    parser.add_argument("--omega-c", type=float, default=6.729, help="cavity frequency, GHz")
    parser.add_argument("--eta", type=float, default=0.1, help="cavity coupling, GHz")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasilattice",
        description="Polariton spectra, radiation coupling profiles, and decay rates "
        "for a qubit quasi-lattice coupled to a cavity mode.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, formatter_class=_HelpFormatter)
        _add_common(p)
        return p

    p = command("spectrum", "polariton branches per excitation sector (JSON)")
    _add_model(p)
    p.add_argument("--u-max-offset", type=int, default=4, help="sectors up to u = -r + offset")

    p = command("chi-sweep", "coupling coefficient chi_l(k) over a k-grid (CSV)")
    _add_model(p)
    p.add_argument("--k-min", type=float, default=0.05, help="lowest omega_k, GHz")
    p.add_argument("--k-max", type=float, default=30.0, help="highest omega_k, GHz")
    p.add_argument("--k-points", type=int, default=600, help="grid size")

    p = command(
        "decay-sweep",
        "the paper's normalized decay rate 2|s(k_q)|^2 - |s(0)|^2 over ell or "
        "omega_q (CSV); off quasi-period multiples it can be negative",
    )
    _add_model(p)
    p.add_argument("--branch", type=int, default=0, help="polariton branch index")
    p.add_argument("--sweep", choices=["ell", "omega-q"], default="ell", help="sweep axis")
    p.add_argument("--ell-min", type=float, default=0.0, help="ell sweep start")
    p.add_argument("--ell-max", type=float, default=1.0, help="ell sweep end")
    p.add_argument("--omega-q-min", type=float, default=1.0, help="omega_q sweep start, GHz")
    p.add_argument("--omega-q-max", type=float, default=40.5, help="omega_q sweep end, GHz")
    p.add_argument("--points", type=int, default=201, help="sweep grid size")
    p.add_argument("--mu", type=float, help="dipole moment for the physical prefactor")
    p.add_argument("--epsilon-d", type=float, help="dielectric constant for the prefactor")
    p.add_argument("--area", type=float, help="resonator cross-section for the prefactor")

    p = command("dynamics", "polariton amplitude decay into a discretized bath (CSV)")
    # The default drive frequency sits on a quasi-period multiple
    # (3*omega_c for ell=2/3), where the discretized-continuum golden rule
    # coincides with the analytic normalized rate.
    _add_model(p, omega_q=3 * 6.729)
    p.add_argument("--branch", type=int, default=0, help="polariton branch index")
    p.add_argument("--bandwidth", type=float, default=0.5, help="bath bandwidth, GHz")
    p.add_argument("--modes", type=int, default=601, help="bath mode count")
    p.add_argument("--t-final", type=float, default=0.0, help="horizon, ns; 0 is auto from the analytic rate")
    p.add_argument("--dt", type=float, default=0.2, help="sampling step, ns")
    p.add_argument("--sample-stride", type=int, default=10, help="write every k-th step")

    p = command("validate", "run the full self-check suite (JSON report)")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized validation draws")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` reuses: parse_args leaves a parser as it
    found it, and building one costs more than any parse."""
    return build_parser()


def _config_argv(path: str) -> list[str]:
    """A plain key=value file as the flags ``--key=value``; '#' starts a
    comment, dashes and underscores in keys are interchangeable."""
    flags = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, val = line.split("=", 1)
            flags.append(f"--{key.strip().replace('_', '-')}={val.strip()}")
    return flags


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv, with the --config file's keys read as the subcommand's
    flags placed before argv's own, so that argparse converts and checks
    them (a key that names no option, a value of the wrong type or an
    invalid choice is a usage error) and the command line wins."""
    args = parser.parse_args(argv)
    if args.config:
        # argv[0] is the subcommand: the top-level parser has no options.
        return parser.parse_args(argv[:1] + _config_argv(args.config) + argv[1:])
    return args


def _specs(args: argparse.Namespace) -> tuple[LatticeSpec, CavitySpec]:
    lattice = LatticeSpec(n_qubits=args.n, relative_spacing=args.ell, omega_q=args.omega_q)
    cavity = CavitySpec(omega_c=args.omega_c, eta=args.eta)
    return lattice, cavity


@contextlib.contextmanager
def _output(args: argparse.Namespace):
    """The --out file, open for writing, or stdout without --out."""
    if not args.out:
        yield sys.stdout
        return
    directory = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(directory):
        raise OSError(f"output directory does not exist: {directory}")
    with open(args.out, "w", newline="") as fh:
        yield fh


def run_chi_sweep(args: argparse.Namespace) -> int:
    from . import radiation

    lattice, cavity = _specs(args)
    if args.k_points < 2:
        raise ValueError("--k-points must be at least 2")
    if not 0 < args.k_min < args.k_max < math.inf:
        raise ValueError("need 0 < --k-min < --k-max < inf")
    k_grid = np.linspace(args.k_min, args.k_max, args.k_points)
    ls = radiation.l_values(lattice)
    rows_by_l = radiation.chi(lattice, cavity, ls, k_grid)
    k_text = _format("%.17g", k_grid.tolist())
    l_text = [_format("%d", range(ls.size)), _format("%.17g", ls.tolist())]  # l_index, l_value
    z = rows_by_l.ravel()  # abs and atan2 of each complex chi, as the scalar calls form them
    columns = [[t for t in c for _ in k_text] for c in l_text] + [k_text * ls.size, z.real, z.imag,
               np.hypot(z.real, z.imag), np.fromiter(map(math.atan2, z.imag, z.real), float, z.size)]

    header = ["l_index", "l_value", "omega_k_ghz", "re_chi", "im_chi", "abs_chi", "arg_chi_rad"]
    with _output(args) as out:
        _write_csv(out, header, columns)
    return EXIT_OK


def run_decay_sweep(args: argparse.Namespace) -> int:
    from . import radiation

    if args.points < 2:
        raise ValueError("--points must be at least 2")
    prefactor = None
    given = [args.mu, args.epsilon_d, args.area]
    if any(v is not None for v in given):
        if any(v is None for v in given):
            raise ValueError("--mu, --epsilon-d, and --area must be given together")
        prefactor = radiation.PrefactorInputs(mu=args.mu, epsilon_d=args.epsilon_d, area=args.area)

    if args.sweep == "ell":
        if not 0.0 <= args.ell_min < args.ell_max <= 1.0:
            raise ValueError("ell sweep range must satisfy 0 <= min < max <= 1")
        axes = [np.linspace(args.ell_min, args.ell_max, args.points), args.omega_q]
    else:
        if not 0.0 < args.omega_q_min < args.omega_q_max < math.inf:
            raise ValueError("omega_q sweep range must satisfy 0 < min < max < inf")
        axes = [args.ell, np.linspace(args.omega_q_min, args.omega_q_max, args.points)]
    cavity = CavitySpec(omega_c=args.omega_c, eta=args.eta)
    fields = {"s_kq_abs": "s_at_kq", "s_zero_abs": "s_at_zero", "gamma_normalized": "gamma_normalized"}
    if prefactor is not None:
        fields["gamma_physical_ghz"] = "gamma_physical"

    results = []  # decay_rate over the grid, one sweep of at most _CHUNK_ROWS points at a time
    for lo in range(0, args.points, _CHUNK_ROWS):
        block = [a[lo : lo + _CHUNK_ROWS] if np.ndim(a) else a for a in axes]
        result = radiation.decay_rate(LatticeSpec(args.n, *np.broadcast_arrays(*block)), cavity,
                                      prefactor, args.branch)
        results.append([getattr(result, f) for f in fields.values()])
    columns = [a if np.ndim(a) else _format("%.17g", [a]) * args.points for a in axes]
    columns += [np.concatenate(c) for c in zip(*results)]
    with _output(args) as out:
        _write_csv(out, ["ell", "omega_q_ghz", *fields], columns)
    return EXIT_OK


def run_spectrum(args: argparse.Namespace) -> int:
    from . import polariton

    lattice, cavity = _specs(args)
    walk = polariton.transition_matrices(
        lattice, cavity, -lattice.two_r + 2 * args.u_max_offset
    )
    sectors = []
    for i, sec in enumerate(walk.sectors):
        entry = {
            "two_u": sec.basis.two_u,
            "u": sec.basis.two_u / 2.0,
            "dimension": sec.basis.dimension,
            "basis": [{"n": n, "two_m": tm} for n, tm in sec.basis.entries],
            "omega_ghz": sec.eigenvalues.tolist(),
            "stark_splitting_ghz": sec.stark_splittings.tolist(),
            "coefficients": sec.coefficients.T.tolist(),
        }
        if i > 0:
            entry["raising_elements_from_lower"] = walk.raising[i - 1].tolist()
        sectors.append(entry)
    doc = {
        "n_qubits": lattice.n_qubits,
        "relative_spacing": lattice.relative_spacing,
        "omega_q_ghz": lattice.omega_q,
        "omega_c_ghz": cavity.omega_c,
        "eta_ghz": cavity.eta,
        "sectors": sectors,
    }
    with _output(args) as out:
        _write_json(out, doc)
    return EXIT_OK


def run_dynamics(args: argparse.Namespace) -> int:
    from . import dynamics, radiation

    if args.sample_stride < 1:
        raise ValueError(f"sample_stride must be at least 1, got {args.sample_stride}")
    if args.t_final < 0:
        raise ValueError(f"--t-final must be positive, or 0 for auto, got {args.t_final:g}")
    lattice, cavity = _specs(args)
    bath = dynamics.normalized_bath(lattice.omega_q, args.bandwidth, args.modes)
    gamma = radiation.decay_rate(lattice, cavity, branch=args.branch).gamma_normalized
    t_final = args.t_final
    if t_final == 0:
        t_final = min(3.0 / gamma if gamma > 0 else 100.0, 0.8 * bath.recurrence_time)
    amplitude = radiation.s_factor(lattice, cavity, bath.mode_frequencies, args.branch)
    traj = dynamics.integrate_amplitudes(lattice.omega_q, amplitude, bath, t_final, args.dt,
                                         args.sample_stride)
    bound = traj.error_bound
    header = ["t_ns", "re_alpha", "im_alpha", "alpha_sq", "beta_total_sq", "norm_residual"]
    re, im = traj.alpha.real, traj.alpha.imag  # abs(a) ** 2 of each complex alpha, through libm's pow
    columns = [traj.times, re, im, np.float_power(np.hypot(re, im), 2), traj.beta_total_sq, bound]
    with _output(args) as out:
        _write_csv(out, header, columns)

    summary = {
        "t_final_ns": traj.horizon,
        "dt_ns": args.dt,
        "n_modes": bath.n_modes,
        "bandwidth_ghz": args.bandwidth,
        "max_norm_residual": float(np.max(bound)),
    }
    try:
        summary["gamma_fit_ghz"] = dynamics.fit_decay(traj)
    except (dynamics.NonMonotoneWindowError, ValueError) as exc:
        summary["gamma_fit_ghz"] = None
        summary["fit_error"] = str(exc)
    summary["gamma_analytic"] = gamma
    if args.out:
        with open(args.out + ".summary.json", "w") as sfh:
            _write_json(sfh, summary)
    else:
        _write_json(sys.stderr, summary)
    return EXIT_OK


def run_validate(args: argparse.Namespace) -> int:
    from . import validation

    report = validation.run_all(seed=args.seed)
    doc = report.to_dict()
    doc["seed"] = args.seed
    with _output(args) as out:
        _write_json(out, doc, sort_keys=True)
    return EXIT_OK if report.passed else EXIT_VALIDATION


_RUNNERS = {
    "spectrum": run_spectrum,
    "chi-sweep": run_chi_sweep,
    "decay-sweep": run_decay_sweep,
    "dynamics": run_dynamics,
    "validate": run_validate,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(_parser(), argv)
        return _RUNNERS[args.command](args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, MemoryError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
