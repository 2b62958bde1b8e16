import csv
import json

import numpy as np
import pytest

from quasilattice import cli


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

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["chi-sweep", "--k-points", "30", "--threads", "4", "--out", str(a)])
        run(["chi-sweep", "--k-points", "30", "--threads", "1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
