import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import quasilattice
from quasilattice import cli, dynamics, radiation
from quasilattice.model import LatticeSpec


def run(argv):
    return cli.main(argv)


class TestChiSweep:
    def test_schema_and_row_count(self, tmp_path):
        out = tmp_path / "chi.csv"
        assert run(["chi-sweep", "--k-points", "50", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["l_index", "l_value", "omega_k_ghz", "re_chi", "im_chi", "abs_chi", "arg_chi_rad"]
        assert len(rows) == 1 + 4 * 50  # four l-branches by default

    def test_l_major_ordering_and_bound(self, tmp_path):
        out = tmp_path / "chi.csv"
        run(["chi-sweep", "--k-points", "40", "--out", str(out)])
        with open(out) as fh:
            rows = list(csv.reader(fh))[1:]
        indices = [int(r[0]) for r in rows]
        assert indices == sorted(indices)
        assert max(float(r[5]) for r in rows) <= 4.0 + 1e-12

    def test_round_trip_precision(self, tmp_path):
        out = tmp_path / "chi.csv"
        run(["chi-sweep", "--k-points", "5", "--out", str(out)])
        with open(out) as fh:
            rows = list(csv.reader(fh))[1:]
        z = complex(float(rows[1][3]), float(rows[1][4]))
        assert abs(z) == float(rows[1][5])


class TestDecaySweep:
    def test_schema(self, tmp_path):
        out = tmp_path / "decay.csv"
        assert run(["decay-sweep", "--points", "11", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["ell", "omega_q_ghz", "s_kq_abs", "s_zero_abs", "gamma_normalized"]
        assert len(rows) == 12

    def test_physical_column_appears_with_prefactor(self, tmp_path):
        out = tmp_path / "decay.csv"
        run([
            "decay-sweep", "--points", "5", "--out", str(out),
            "--mu", "0.5", "--epsilon-d", "2.0", "--area", "1.0",
        ])
        with open(out) as fh:
            header = next(csv.reader(fh))
        assert header[-1] == "gamma_physical_ghz"

    def test_partial_prefactor_rejected(self, tmp_path):
        out = tmp_path / "decay.csv"
        code = run(["decay-sweep", "--points", "5", "--out", str(out), "--mu", "0.5"])
        assert code == cli.EXIT_USAGE

    def test_omega_q_sweep(self, tmp_path):
        out = tmp_path / "decay.csv"
        assert run([
            "decay-sweep", "--sweep", "omega-q", "--points", "9",
            "--omega-q-min", "5.0", "--omega-q-max", "25.0", "--out", str(out),
        ]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))[1:]
        assert float(rows[0][1]) == 5.0
        assert float(rows[-1][1]) == 25.0

    def test_gamma_normalized_is_not_a_rate(self, tmp_path):
        # gamma_normalized = 2|s(k_q)|^2 - |s(0)|^2 with |s(k_q)| <= |s(0)|
        # on every row of the default sweep, so off quasi-period multiples
        # the value can be negative.
        out = tmp_path / "decay.csv"
        assert run(["decay-sweep", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 201
        assert all(float(r["s_kq_abs"]) <= float(r["s_zero_abs"]) for r in rows)
        assert min(float(r["gamma_normalized"]) for r in rows) < 0.0

    @pytest.mark.parametrize("argv, code, message", [
        (["--branch", "2"], cli.EXIT_USAGE, "branch 2 outside"),
        (["--branch", "-1"], cli.EXIT_USAGE, "branch -1 outside"),
        (["--omega-q", "1e308"], cli.EXIT_USAGE, "bare sector energy"),
        (["--sweep", "omega-q", "--omega-q-max", "1e308"], cli.EXIT_USAGE, "bare sector energy"),
        (["--omega-c", "1e-308"], cli.EXIT_USAGE, "site phase"),
        (["--ell-min", "0.5", "--ell-max", "0.2"], cli.EXIT_USAGE, "ell sweep range"),
        (["--ell-max", "nan"], cli.EXIT_USAGE, "ell sweep range"),
        (["--sweep", "omega-q", "--omega-q-min", "nan"], cli.EXIT_USAGE, "omega_q sweep range"),
        # points that fail in different ways: the first failing point decides
        (["--sweep", "omega-q", "--omega-q-max", "1e308", "--omega-c", "1e-300"],
         cli.EXIT_USAGE, "site phase"),
        (["--sweep", "omega-q", "--omega-q-max", "1e308", "--branch", "2"],
         cli.EXIT_USAGE, "branch 2 outside"),
    ])
    def test_exit_codes(self, tmp_path, capsys, argv, code, message):
        out = tmp_path / "decay.csv"
        assert run(["decay-sweep", *argv, "--out", str(out)]) == code
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1


class TestSpectrum:
    def test_ground_sector_energy(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run(["spectrum", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        ground = doc["sectors"][0]
        assert ground["two_u"] == -4
        assert ground["omega_ghz"][0] == pytest.approx(-2 * 13.458)

    def test_first_excited_quadratic(self, tmp_path):
        out = tmp_path / "spec.json"
        run(["spectrum", "--out", str(out)])
        doc = json.loads(out.read_text())
        sec = doc["sectors"][1]
        dw = doc["omega_c_ghz"] - doc["omega_q_ghz"]
        eta = doc["eta_ghz"]
        f = 0.625  # deformation factor for N=4, ell=2/3
        for eps in sec["stark_splitting_ghz"]:
            assert eps**2 - dw * eps - 4 * eta**2 * f == pytest.approx(0.0, abs=1e-10)

    def test_transition_elements_present(self, tmp_path):
        out = tmp_path / "spec.json"
        run(["spectrum", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert "raising_elements_from_lower" not in doc["sectors"][0]
        assert len(doc["sectors"][1]["raising_elements_from_lower"]) == 2

    def test_negative_u_max_offset_is_usage_error(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run(["spectrum", "--u-max-offset", "-1", "--out", str(out)]) == cli.EXIT_USAGE
        assert not out.exists()
        assert run(["spectrum", "--u-max-offset", "0", "--out", str(out)]) == 0
        assert [sec["two_u"] for sec in json.loads(out.read_text())["sectors"]] == [-4]

    def test_overflowing_sector_is_validation_failure(self, tmp_path, capsys):
        # every bare energy is finite (at most 8.5e307), but the 2u=1 block's
        # eigenvalues 8.5e307 +- 1.7e308 overflow in the eigensolve itself
        out = tmp_path / "spec.json"
        argv = ["--n", "1", "--omega-q", "1.7e308", "--omega-c", "1.7e308", "--eta", "1.7e308",
                "--u-max-offset", "1"]
        assert run(["spectrum", *argv, "--out", str(out)]) == cli.EXIT_VALIDATION
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--omega-c", "--omega-q"])
    def test_overflowing_bare_energy_is_usage_error(self, tmp_path, capsys, flag):
        # omega_c*n (2u = 4) or omega_q*m (2u = -4) overflows before any eigensolve
        out = tmp_path / "spec.json"
        assert run(["spectrum", flag, "1e308", "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bare sector energy" in err
        assert not out.exists()


class TestDynamics:
    def test_schema_and_summary(self, tmp_path):
        out = tmp_path / "dyn.csv"
        assert run([
            "dynamics", "--modes", "51", "--bandwidth", "0.4",
            "--t-final", "40", "--dt", "0.2", "--out", str(out),
        ]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t_ns", "re_alpha", "im_alpha", "alpha_sq", "beta_total_sq", "norm_residual"]
        assert float(rows[1][3]) == 1.0
        assert all(float(r[5]) < 1e-6 for r in rows[1:])
        summary = json.loads((tmp_path / "dyn.csv.summary.json").read_text())
        assert "gamma_analytic" in summary and "gamma_fit_ghz" in summary

    def test_decoupled_amplitude_is_flat(self, tmp_path):
        out = tmp_path / "dyn.csv"
        assert run([
            "dynamics", "--eta", "0", "--modes", "21", "--bandwidth", "0.4",
            "--t-final", "20", "--dt", "0.2", "--out", str(out),
        ]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(float(r[3]) == 1.0 for r in rows)

    def test_single_mode_bath(self, tmp_path):
        out = tmp_path / "dyn.csv"
        assert run([
            "dynamics", "--modes", "1", "--t-final", "40", "--dt", "0.2", "--out", str(out),
        ]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == len(range(0, 201, 10))

    @pytest.mark.parametrize("bad", [["--sample-stride", "0"], ["--sample-stride", "-3"], ["--l-resolved"]])
    def test_bad_dynamics_arguments_are_usage_errors(self, tmp_path, bad):
        out = tmp_path / "dyn.csv"
        code = run([
            "dynamics", "--modes", "11", "--bandwidth", "0.4",
            "--t-final", "10", "--dt", "0.2", "--out", str(out),
        ] + bad)
        assert code == cli.EXIT_USAGE

    def test_recurrence_violation_is_usage_error(self, tmp_path):
        out = tmp_path / "dyn.csv"
        code = run([
            "dynamics", "--modes", "5", "--bandwidth", "0.4",
            "--t-final", "1000", "--dt", "0.2", "--out", str(out),
        ])
        assert code == cli.EXIT_USAGE

    def test_step_size_violation_is_usage_error(self, tmp_path, capsys):
        # dynamics.StepSizeError is a ValueError, caught as bad arguments
        out = tmp_path / "dyn.csv"
        assert run(["dynamics", "--dt", "1", "--out", str(out)]) == cli.EXIT_USAGE
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: dt*max|omega_q-omega_k|") and err.count("\n") == 1

    def test_unresolved_bath_grid_is_one_usage_error(self, tmp_path, capsys):
        # at omega_q = 1e308 the 601 modes collapse onto one float: one typed
        # error, before 2*pi*omega_k overflows, and no warning
        out = tmp_path / "dyn.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["dynamics", "--omega-q", "1e308", "--out", str(out)]) == cli.EXIT_USAGE
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: a bandwidth of 0.5 GHz") and err.count("\n") == 1
        assert "distinct float64 mode frequencies" in err

    @pytest.mark.parametrize("extra, message", [
        (["--modes", "1"], "error: a bare sector energy"),  # 2*pi*omega_k overflows
        (["--bandwidth", "1e306"], "error: mode frequencies and couplings must be finite"),
    ], ids=["one-mode", "wide-band"])
    def test_overflowing_bath_couplings_are_one_usage_error(self, tmp_path, capsys, extra, message):
        # the grid resolves, but the couplings' arithmetic overflows: the
        # input is still refused with one error line, and numpy warns nothing
        out = tmp_path / "dyn.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["dynamics", "--omega-q", "1e308", *extra, "--out", str(out)]
            assert run(argv) == cli.EXIT_USAGE
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1


class TestValidate:
    def test_exit_zero_and_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["validate", "--seed", "0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        names = {c["name"] for c in doc["checks"]}
        assert "deformation-factor-identity" in names
        assert "homogeneous-limit-spectra" in names


class TestPlumbing:
    def test_bad_arguments_exit_code(self):
        assert run(["chi-sweep", "--k-points", "1"]) == cli.EXIT_USAGE
        assert run(["no-such-command"]) == cli.EXIT_USAGE

    def test_main_builds_one_parser(self, monkeypatch, tmp_path):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            assert run(["validate", "--n", "8"]) == cli.EXIT_USAGE
            out = tmp_path / "a.csv"
            assert run(["chi-sweep", "--k-points", "5", "--n", "2", "--out", str(out)]) == 0
            # a reused parser keeps no value of an earlier command line
            args = cli._parse(cli._parser(), ["chi-sweep"])
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert (args.k_points, args.n, args.out) == (600, 4, None)

    def test_missing_output_directory(self, tmp_path):
        out = tmp_path / "nope" / "x.csv"
        assert run(["chi-sweep", "--k-points", "5", "--out", str(out)]) == cli.EXIT_IO

    def test_config_file_defaults_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k-points = 7\nell = 0.5  # spacing\n")
        out = tmp_path / "a.csv"
        run(["chi-sweep", "--config", str(cfg), "--out", str(out)])
        with open(out) as fh:
            assert len(list(csv.reader(fh))) == 1 + 4 * 7
        # the flag wins over the file
        out2 = tmp_path / "b.csv"
        run(["chi-sweep", "--config", str(cfg), "--k-points", "3", "--out", str(out2)])
        with open(out2) as fh:
            assert len(list(csv.reader(fh))) == 1 + 4 * 3

    @pytest.mark.parametrize("line", ["omegaq = 99", "format = json"])
    def test_unknown_config_key_is_usage_error(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "x.csv"
        assert run(["chi-sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
        assert not out.exists()

    def test_config_values_take_option_types(self, tmp_path):
        # options without a built-in default: mu, epsilon-d and area
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 0.5\nepsilon-d = 2\narea = 1\npoints = 5\n")
        out = tmp_path / "decay.csv"
        assert run(["decay-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "gamma_physical_ghz" and len(rows) == 6

    def test_config_sweep_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sweep = omega-q\npoints = 3\nomega-q-min = 5\nomega-q-max = 25\n")
        out = tmp_path / "decay.csv"
        assert run(["decay-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))[1:]
        assert [float(r[1]) for r in rows] == [5.0, 15.0, 25.0]
        # the flag wins over the file
        assert run(["decay-sweep", "--config", str(cfg), "--sweep", "ell", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))[1:]
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("line", ["sweep = bogus", "points = five", "mu = x"])
    def test_bad_config_value_is_usage_error(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "x.csv"
        assert run(["decay-sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
        assert not out.exists()

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for argv in (["chi-sweep", "--k-points", "30"], ["decay-sweep", "--points", "21"]):
            assert run(argv + ["--out", str(a)]) == 0
            assert run(argv + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()

    # Every subcommand's defaults, one entry per option it declares.
    _MODEL = {"n": 4, "ell": 2.0 / 3.0, "omega_q": 13.458, "omega_c": 6.729, "eta": 0.1}
    _DEFAULTS = {
        "spectrum": dict(_MODEL, u_max_offset=4),
        "chi-sweep": dict(_MODEL, k_min=0.05, k_max=30.0, k_points=600),
        "decay-sweep": dict(
            _MODEL, branch=0, sweep="ell", ell_min=0.0, ell_max=1.0, omega_q_min=1.0,
            omega_q_max=40.5, points=201, mu=None, epsilon_d=None, area=None,
        ),
        "dynamics": dict(
            _MODEL, omega_q=3 * 6.729, branch=0, bandwidth=0.5, modes=601, t_final=0.0,
            dt=0.2, sample_stride=10,
        ),
        "validate": {"seed": 0},
    }

    @pytest.mark.parametrize("command", sorted(_DEFAULTS))
    def test_defaults(self, command):
        args = vars(cli._parse(cli.build_parser(), [command]))
        expected = dict(self._DEFAULTS[command], command=command, config=None, out=None)
        assert args == expected
        for key, value in expected.items():
            assert type(args[key]) is type(value)

    @pytest.mark.parametrize("argv", [
        ["validate", "--n", "8"],
        ["validate", "--eta", "0.5"],
        ["validate", "--branch", "1"],
        ["spectrum", "--branch", "1"],
        ["spectrum", "--seed", "3"],
        ["chi-sweep", "--k-points", "5", "--seed", "3"],
        ["decay-sweep", "--points", "5", "--seed", "1"],
        ["dynamics", "--modes", "11", "--seed", "1"],
    ])
    def test_unread_flag_is_usage_error(self, tmp_path, argv):
        out = tmp_path / "x.out"
        assert run(argv + ["--out", str(out)]) == cli.EXIT_USAGE
        assert not out.exists()

    def test_unread_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k-points = 5\nseed = 1\n")
        out = tmp_path / "x.csv"
        assert run(["chi-sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
        assert not out.exists()

    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency; a fresh interpreter shows
        # whether any import pulls scipy in
        src = str(Path(quasilattice.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        code = (
            "import sys, quasilattice, quasilattice.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"

    def test_threads_flag_is_gone(self):
        assert run(["chi-sweep", "--k-points", "5", "--threads", "4"]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["chi-sweep", "--k-points", "5", "--format", "json"],
        ["spectrum", "--format", "csv"],
    ])
    def test_format_flag_is_gone(self, tmp_path, argv):
        assert run(argv + ["--out", str(tmp_path / "x.out")]) == cli.EXIT_USAGE
        assert not (tmp_path / "x.out").exists()

    @pytest.mark.parametrize("argv", [
        ["dynamics", "--omega-q", "nan"],
        ["dynamics", "--omega-c", "inf"],
        ["dynamics", "--eta", "nan"],
        ["dynamics", "--bandwidth", "nan"],
        ["decay-sweep", "--points", "5", "--eta", "inf"],
        ["chi-sweep", "--k-points", "5", "--omega-c", "nan"],
        ["chi-sweep", "--k-points", "5", "--k-max", "inf"],
        ["decay-sweep", "--points", "5", "--mu", "nan", "--epsilon-d", "1", "--area", "1"],
        ["dynamics", "--modes", "1", "--t-final", "inf"],
    ])
    def test_non_finite_inputs_are_usage_errors(self, tmp_path, argv):
        assert run(argv + ["--out", str(tmp_path / "x.csv")]) == cli.EXIT_USAGE
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["chi-sweep", "--omega-c", "1e-308"],
        ["chi-sweep", "--k-max", "1.7e308", "--k-points", "2"],
        ["decay-sweep", "--omega-c", "1e-308"],
        ["dynamics", "--omega-c", "1e-308"],
    ])
    def test_overflowing_site_phase_is_usage_error(self, tmp_path, capsys, argv):
        # theta = pi*ell/omega_c, or theta*k*j, overflows: bad arguments,
        # not nan rows with exit 0
        out = tmp_path / "x.csv"
        assert run(argv + ["--out", str(out)]) == cli.EXIT_USAGE
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: site phase") and err.count("\n") == 1

    @pytest.mark.parametrize("mu", ["1e200", "-1e155"])
    def test_overflowing_dipole_square_is_usage_error(self, tmp_path, capsys, mu):
        # mu**2 overflows: bad arguments, not an OverflowError traceback
        out = tmp_path / "x.csv"
        argv = ["decay-sweep", "--points", "5", f"--mu={mu}", "--epsilon-d", "1", "--area", "1"]
        assert run(argv + ["--out", str(out)]) == cli.EXIT_USAGE
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "mu^2" in err

    @pytest.mark.parametrize(
        "epsilon_d, area", [("1e-300", "1"), ("1", "1e-300"), ("1e200", "1e200")]
    )
    def test_overflowing_prefactor_is_usage_error(self, tmp_path, capsys, epsilon_d, area):
        # k_q*mu^2/(4*epsilon_d*A) overflows: bad arguments, not inf rows
        # with exit 0; or its denominator does, though the prefactor (about
        # 3.4e-100) would not: bad arguments, not rows of 0 and -0
        out = tmp_path / "x.csv"
        argv = ["decay-sweep", "--mu", "1e150", "--epsilon-d", epsilon_d, "--area", area]
        assert run(argv + ["--out", str(out)]) == cli.EXIT_USAGE
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: prefactor") and err.count("\n") == 1

    def test_unallocatable_horizon_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "dyn.csv"
        code = run(["dynamics", "--modes", "1", "--t-final", "1e15", "--out", str(out)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def _fmt(x):
    return f"{x:.17g}"


def _reference_csv(argv):
    """The bytes of a chi-sweep, decay-sweep or dynamics CSV as csv.writer
    wrote them, row by row over numpy scalars, recomputed from the library:
    the reference for the CLI's bulk emitter."""
    args = cli._parse(cli.build_parser(), argv)
    lattice, cavity = cli._specs(args)
    buf = io.StringIO()
    writer = csv.writer(buf)
    if args.command == "chi-sweep":
        k_grid = np.linspace(args.k_min, args.k_max, args.k_points)
        ls = radiation.l_values(lattice)
        rows_by_l = [radiation.chi(lattice, cavity, l, k_grid) for l in ls]
        writer.writerow(["l_index", "l_value", "omega_k_ghz", "re_chi", "im_chi", "abs_chi", "arg_chi_rad"])
        for i, (l, vals) in enumerate(zip(ls, rows_by_l)):
            for k, z in zip(k_grid, vals):
                writer.writerow([
                    i, _fmt(l), _fmt(k), _fmt(z.real), _fmt(z.imag),
                    _fmt(abs(z)), _fmt(math.atan2(z.imag, z.real)),
                ])
    elif args.command == "decay-sweep":
        prefactor = None
        if args.mu is not None:
            prefactor = radiation.PrefactorInputs(mu=args.mu, epsilon_d=args.epsilon_d, area=args.area)
        if args.sweep == "ell":
            ells = np.linspace(args.ell_min, args.ell_max, args.points)
            omegas = np.full(args.points, args.omega_q)
        else:
            ells = np.full(args.points, args.ell)
            omegas = np.linspace(args.omega_q_min, args.omega_q_max, args.points)
        results = [
            radiation.decay_rate(
                LatticeSpec(n_qubits=args.n, relative_spacing=float(ell), omega_q=float(wq)),
                cavity, prefactor, args.branch,
            )
            for ell, wq in zip(ells, omegas)
        ]
        header = ["ell", "omega_q_ghz", "s_kq_abs", "s_zero_abs", "gamma_normalized"]
        if prefactor is not None:
            header.append("gamma_physical_ghz")
        writer.writerow(header)
        for ell, wq, res in zip(ells, omegas, results):
            row = [_fmt(ell), _fmt(wq), _fmt(res.s_at_kq), _fmt(res.s_at_zero), _fmt(res.gamma_normalized)]
            if prefactor is not None:
                row.append(_fmt(res.gamma_physical))
            writer.writerow(row)
    else:
        bath = dynamics.normalized_bath(lattice, args.bandwidth, args.modes)
        gamma = radiation.decay_rate(lattice, cavity, branch=args.branch).gamma_normalized
        t_final = args.t_final
        if t_final <= 0:
            recurrence = 2.0 * math.pi / bath.spacing if bath.n_modes > 1 else math.inf
            t_final = min(3.0 / gamma if gamma > 0 else 100.0, 0.8 * recurrence)
        traj = dynamics.integrate_amplitudes(
            lattice, cavity, bath, t_final, args.dt,
            branch=args.branch, sample_stride=args.sample_stride,
        )
        stride = traj.sample_stride
        writer.writerow(["t_ns", "re_alpha", "im_alpha", "alpha_sq", "beta_total_sq", "norm_residual"])
        rows = zip(traj.times[::stride], traj.alpha[::stride], traj.beta_total_sq, traj.norm_history)
        for t, a, beta_sq, norm in rows:
            writer.writerow([
                _fmt(t), _fmt(a.real), _fmt(a.imag),
                _fmt(abs(a) ** 2), _fmt(beta_sq), _fmt(abs(1.0 - norm)),
            ])
    return buf.getvalue().encode()


_SPECIAL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308]
_PREFACTOR = ["--mu", "0.5", "--epsilon-d", "2.0", "--area", "1.0"]


class TestCsvBytes:
    @pytest.mark.parametrize("argv", [
        ["chi-sweep"],
        ["chi-sweep", "--n", "1"],
        ["chi-sweep", "--n", "3", "--ell", "0"],
        ["chi-sweep", "--n", "5", "--ell", "1", "--eta", "0"],
        ["chi-sweep", "--n", "2", "--k-points", "2500"],
        ["decay-sweep"],
        ["decay-sweep", *_PREFACTOR],
        ["decay-sweep", "--sweep", "omega-q"],
        ["decay-sweep", "--sweep", "omega-q", "--n", "3", "--eta", "0", *_PREFACTOR],
        ["decay-sweep", "--n", "1", "--points", "1100"],
        ["dynamics"],
        ["dynamics", "--sample-stride", "1", "--modes", "151"],
        ["dynamics", "--n", "1", "--ell", "1", "--modes", "51", "--t-final", "40"],
    ])
    def test_bytes_match_row_by_row_writer(self, tmp_path, capfdbinary, argv):
        expected = _reference_csv(argv)
        out = tmp_path / "x.csv"
        assert run(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == expected
        capfdbinary.readouterr()
        assert run(argv) == 0
        sys.stdout.flush()
        assert capfdbinary.readouterr().out == expected

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(
        st.tuples(*[st.floats() | st.sampled_from(_SPECIAL)] * 3), max_size=40,
    ))
    @example([tuple(_SPECIAL[i : i + 3]) for i in range(5)])
    def test_emitter_matches_csv_writer(self, rows):
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["a", "b", "c"])
        writer.writerows([[_fmt(x) for x in row] for row in rows])
        got = io.StringIO()
        columns = [np.array([row[c] for row in rows], dtype=float) for c in range(3)]
        half = len(rows) // 2  # two blocks, one of them empty when there are no rows
        cli._write_csv(got, ["a", "b", "c"], [[c[:half] for c in columns], [c[half:] for c in columns]])
        assert got.getvalue() == expected.getvalue()

    @pytest.mark.parametrize("argv, rows", [
        (["dynamics", "--sample-stride", "1"], 19329),
        (["chi-sweep", "--k-points", "5000"], 4 * 5000),
    ])
    def test_writes_are_chunked(self, monkeypatch, argv, rows):
        # The output is never built whole in memory: no write carries
        # more than one chunk of rows.
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text.count("\r\n"))

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert run(argv) == 0
        assert sum(writes) == 1 + rows
        assert max(writes) <= cli._CHUNK_ROWS


_JSON_EDGES = [
    math.nan, math.inf, -math.inf, -0.0, 5e-324, [], {}, None, True, False, "\u00e9\u2603",
    [math.nan, 1.0], [-math.inf, 0.5], [-0.0, 5e-324, 1.7976931348623157e308], [1e308, 1e308],
    [1.0, 2, 3.5], [True, 1.0], [[], {}, [[]]], (1.0, 2.0), [np.float64(0.1), 0.2],
    {"b": {"\u00fc": [1.0, None]}, "a": [{"z": 1, "y": []}], "c": np.float64(-2.5)},
]


class TestJsonBytes:
    """The streaming emitter writes what json.dump(doc, out, indent=2[, sort_keys=True]) writes."""

    def _capture(self, monkeypatch):
        docs = []
        write = cli._write_json

        def spy(out, doc, sort_keys=False):
            docs.append((doc, sort_keys))
            write(out, doc, sort_keys)

        monkeypatch.setattr(cli, "_write_json", spy)
        return docs

    @pytest.mark.parametrize("n", range(1, 9))
    def test_spectrum_matches_json_dump(self, tmp_path, monkeypatch, n):
        docs = self._capture(monkeypatch)
        out = tmp_path / "spec.json"
        argv = ["spectrum", "--n", str(n), "--u-max-offset", str(n), "--ell", "0.37", "--out", str(out)]
        assert run(argv) == 0
        [(doc, sort_keys)] = docs
        assert out.read_text() == json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_validate_matches_json_dump(self, tmp_path, monkeypatch, seed):
        docs = self._capture(monkeypatch)
        out = tmp_path / "report.json"
        assert run(["validate", "--seed", str(seed), "--out", str(out)]) == 0
        [(doc, sort_keys)] = docs
        assert sort_keys and out.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_dynamics_summary_matches_json_dump(self, tmp_path, monkeypatch):
        docs = self._capture(monkeypatch)
        out = tmp_path / "dyn.csv"
        assert run(["dynamics", "--modes", "51", "--out", str(out)]) == 0
        [(doc, _)] = docs
        assert type(doc["gamma_analytic"]) is np.float64
        text = Path(str(out) + ".summary.json").read_text()
        assert text == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("sort_keys", [False, True])
    @pytest.mark.parametrize("doc", _JSON_EDGES)
    def test_edge_values(self, doc, sort_keys):
        got = io.StringIO()
        cli._write_json(got, doc, sort_keys)
        assert got.getvalue() == json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n"

    def test_written_in_pieces(self, monkeypatch):
        # The document is never built whole in memory: its largest piece is
        # one flat list of floats.
        pieces = []

        class Recorder:
            def write(self, text):
                pieces.append(text)

            def writelines(self, lines):
                for text in lines:
                    self.write(text)

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert run(["spectrum", "--n", "16", "--u-max-offset", "16"]) == 0
        assert max(map(len, pieces)) < sum(map(len, pieces)) / 100
