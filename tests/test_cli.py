"""Command-line surface: artifacts, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ahwarp
from ahwarp.cli import main
from ahwarp.geodesics import closed_rho, closed_theta
from ahwarp.search import ScanReport
from ahwarp.stable import radial_certificate_closed

PI4 = math.pi / 4


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data


class TestProfile:
    def test_csv_columns_and_values(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert main(["profile", "--r", repr(PI4), "--eps", "0",
                     "--rho-max", "2", "--drho", "0.1", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["rho", "A", "A_prime", "K_par", "K_perp"]
        inside = data[data[:, 0] < PI4]
        assert np.allclose(inside[:, 1], np.sin(inside[:, 0]), atol=1e-12)
        assert np.all(inside[:, 3] == 1.0)


class TestGeodesic:
    def test_theta_column_at_critical_params(self, tmp_path):
        out = tmp_path / "geo.csv"
        assert main(["geodesic", "--s", "0.3", "--r", repr(PI4), "--eps", "0",
                     "--tmax", "10", "--dt", "0.5", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["t", "rho", "rho_prime", "theta"]
        assert np.max(np.abs(data[:, 1] - np.asarray(closed_rho(0.3, data[:, 0])))) < 1e-8
        assert np.max(np.abs(data[:, 3] - np.asarray(closed_theta(0.3, data[:, 0])))) < 1e-12

    def test_no_theta_column_off_critical(self, tmp_path):
        out = tmp_path / "geo.csv"
        assert main(["geodesic", "--s", "0.3", "--r", "0.7", "--eps", "0.05",
                     "--tmax", "5", "--dt", "0.5", "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert header == ["t", "rho", "rho_prime"]


class TestJacobi:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "jac.csv"
        assert main(["jacobi", "--kind", "perpendicular", "--s", "0.3",
                     "--tmax", "5", "--dt", "0.25", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["t", "U", "U_prime", "V", "V_prime", "kernel"]
        assert data[0, 1] == 1.0 and data[0, 3] == 0.0
        # Wronskian column check at moderate times
        w = data[:, 1] * data[:, 4] - data[:, 2] * data[:, 3]
        assert np.max(np.abs(w - 1.0)) < 1e-8


class TestStable:
    def test_radial_certificate_payload(self, tmp_path):
        out = tmp_path / "stable.json"
        assert main(["stable", "--kind", "parallel", "--s", "0", "--r", "0.7",
                     "--eps", "0", "--tol", "1e-11", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "parallel"
        assert abs(payload["W_prime_0"] - radial_certificate_closed(0.7)) < 1e-9
        assert set(payload) == {"kind", "s", "r", "eps", "Y0", "W_prime_0",
                                "seed_horizon", "seed_residual"}

    def test_vanishing_stable_solution_exits_one(self, capsys):
        code = main(["stable", "--kind", "perpendicular", "--s", "1.4", "--r", "1.5",
                     "--eps", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert "vanishes" in err and "s=1.4, r=1.5" in err

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["stable", "--kind", "perpendicular", "--s", "0.2", "--out"]
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFindR:
    def test_sharp_root(self, tmp_path):
        out = tmp_path / "root.json"
        assert main(["find-r", "--eps", "0", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["r_star"] - PI4) < 1e-10
        assert payload["root_residual"] < 1e-10


class TestScan:
    def test_success_and_roundtrip(self, tmp_path):
        out = tmp_path / "scan.json"
        assert main(["scan", "--eps", "0", "--out", str(out)]) == 0
        report = ScanReport.from_json(out.read_text())
        assert report.overall == "boundary-CP-and-no-interior-CP"
        assert abs(report.r_star - PI4) < 1e-10

    def test_failed_scan_exits_nonzero(self, tmp_path):
        out = tmp_path / "scan.json"
        code = main(["scan", "--eps", "0.3", "--bracket-halfwidth", "0.02",
                     "--out", str(out)])
        assert code == 1
        report = ScanReport.from_json(out.read_text())
        assert report.overall == "failed"


class TestErrors:
    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["stable", "--tol", "1.0"])  # tol outside [1e-12, 1e-4]
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_domain_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["geodesic", "--s", "-1"])
        assert exc.value.code == 2

    def test_computation_failure_exits_one(self, capsys):
        code = main(["find-r", "--eps", "0.3", "--bracket-halfwidth", "0.02"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_env_tol_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("AHWARP_TOL", "1e-10x")
        # importing must not parse it (a fresh interpreter, so the module is
        # really imported under the malformed value)
        env = dict(os.environ, PYTHONPATH=str(Path(ahwarp.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", "import ahwarp.cli"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        with pytest.raises(SystemExit) as exc:
            main(["stable"])
        assert exc.value.code == 2

    def test_env_tol_is_default_and_flag_overrides(self, monkeypatch, tmp_path):
        out = tmp_path / "stable.json"
        monkeypatch.setenv("AHWARP_TOL", "1e-3")  # outside [1e-12, 1e-4]
        with pytest.raises(SystemExit) as exc:
            main(["stable"])
        assert exc.value.code == 2
        assert main(["stable", "--tol", "1e-10", "--out", str(out)]) == 0

    def test_arithmetic_error_exits_one(self, tmp_path, capsys):
        # rho reaches the overflow range of exp before t = 800
        code = main(["geodesic", "--s", "0.3", "--tmax", "800",
                     "--out", str(tmp_path / "geo.csv")])
        assert code == 1
        assert "OverflowError" in capsys.readouterr().err
