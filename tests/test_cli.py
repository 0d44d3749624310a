"""Command-line surface: artifacts, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

import ahwarp
from ahwarp.cli import main
from ahwarp.geodesics import closed_rho, closed_theta, entry_time
from ahwarp.search import ScanReport, assemble_report, find_r_star
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

    def test_long_horizon_stays_finite(self, tmp_path):
        # rho passes the overflow range of exp (~709) long before t = 800
        out = tmp_path / "geo.csv"
        assert main(["geodesic", "--s", "0.3", "--tmax", "800", "--dt", "1",
                     "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["t", "rho", "rho_prime", "theta"]
        assert np.all(np.isfinite(data))
        # rho = pi/4 + log F, F = (1 + sqrt(cos 0.6)) e^{t - ell} / 2 up to e^{-(t - ell)}
        c = math.sqrt(math.cos(0.6))
        far = PI4 + math.log((1.0 + c) / 2.0) + 800.0 - entry_time(0.3, PI4)
        assert data[-1, 1] == pytest.approx(far, rel=1e-14)
        assert np.all((data[:, 2] >= 0.0) & (data[:, 2] <= 1.0))

    def test_far_geodesic_stays_finite(self, tmp_path):
        # A'(360) ~ e^360 / 2 squares past the float range; rho and rho'
        # are ratios of e^{-tau} A and do not need the square
        out = tmp_path / "geo.csv"
        assert main(["geodesic", "--s", "360", "--eps", "0.05", "--tmax", "3", "--dt", "0.5",
                     "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert np.max(np.abs(data[:, 1] - (360.0 + np.log(np.cosh(data[:, 0]))))) <= 1e-12
        assert np.max(np.abs(data[:, 2] - np.tanh(data[:, 0]))) <= 1e-15

    def test_s_past_the_float_range_exits_one(self, capsys):
        # A(800) overflows: a message, not a traceback or nan rows
        assert main(["geodesic", "--s", "800"]) == 1
        assert "A(s) overflows" in capsys.readouterr().err
        assert main(["jacobi", "--kind", "perpendicular", "--s", "800"]) == 1

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


class TestKernelColumn:
    def test_perpendicular_kernel_stays_finite(self, tmp_path):
        # K_perp past the transition comes from the e^{-(t - t_x)}-scaled
        # exterior forms; A itself overflows near t = 710, and with it the
        # U and V columns, which may read inf there
        out = tmp_path / "jacobi.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["jacobi", "--kind", "perpendicular", "--s", "0.3", "--tmax", "800",
                         "--out", str(out)]) == 0
        header, data = read_csv(out)
        kernel = data[:, header.index("kernel")]
        assert np.all(np.isfinite(kernel))
        assert np.max(np.abs(kernel[data[:, 0] >= 30.0] + 1.0)) < 1e-20


    @pytest.mark.parametrize("kind", ["parallel", "perpendicular"])
    def test_horizon_inside_the_transition(self, tmp_path, kind):
        # the geodesic has not left the transition by the horizon 1.1; the
        # kernel and the pair are defined there (the samples lie in the ball)
        out = tmp_path / "jacobi.csv"
        assert main(["jacobi", "--kind", kind, "--s", "0.1", "--r", "0.785", "--eps", "0.7",
                     "--tmax", "0.1", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert np.all(np.isfinite(data))
        t = data[:, 0]
        assert np.max(np.abs(data[:, header.index("U")] - np.cos(t))) <= 1e-15
        assert np.all(data[:, header.index("kernel")] == 1.0)


class TestStable:
    def test_radial_certificate_payload(self, tmp_path):
        out = tmp_path / "stable.json"
        assert main(["stable", "--kind", "parallel", "--s", "0", "--r", "0.7",
                     "--eps", "0", "--out", str(out)]) == 0
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

    @pytest.mark.parametrize("s", ["0", "0.3"])
    def test_eps_below_resolution_of_r_is_the_sharp_metric(self, tmp_path, s):
        # r + eps == r; this exited 1 with an empty integration span
        outs = []
        for eps in ("0", "1e-140"):
            out = tmp_path / f"stable_{eps}.json"
            assert main(["stable", "--s", s, "--r", "1.0", "--eps", eps, "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            outs.append({k: v for k, v in payload.items() if k != "eps"})
        assert outs[0] == outs[1]

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

    def test_eps_below_resolution_of_r(self, tmp_path):
        out = tmp_path / "scan.json"
        assert main(["scan", "--eps", "1e-140", "--out", str(out)]) == 0
        report = ScanReport.from_json(out.read_text())
        assert report.r_star == PI4 and report.overall == "boundary-CP-and-no-interior-CP"

    def test_failed_scan_exits_nonzero(self, tmp_path):
        out = tmp_path / "scan.json"
        code = main(["scan", "--eps", "0.3", "--bracket-halfwidth", "0.02",
                     "--out", str(out)])
        assert code == 1
        text = out.read_text()

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        data = json.loads(text, parse_constant=refuse)  # RFC 8259: no NaN
        assert data["r_star"] is None and data["large_s_threshold"] is None
        report = ScanReport.from_json(text)
        assert report.overall == "failed"
        assert math.isnan(report.r_star) and math.isnan(report.root_residual)
        assert math.isnan(report.large_s_threshold)


class TestErrors:
    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["geodesic", "--dt", "-1"])  # a step that is not positive
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_domain_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["geodesic", "--s", "-1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["stable", "--s", "inf"],
        ["stable", "--s", "nan"],
        ["jacobi", "--tmax", "inf"],
        ["jacobi", "--dt", "nan"],
        ["profile", "--r", "nan"],
        ["scan", "--sigma", "inf"],
    ])
    def test_non_finite_option_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be finite" in capsys.readouterr().err

    def test_sigma_past_rho0_leaves_no_mid_s(self, capsys):
        # rho0 = pi/4 + log(2)/2 < 2: the small-s certificates cover [0, 2]
        code = main(["scan", "--eps", "0", "--sigma", "2"])
        out, err = capsys.readouterr()
        assert "Traceback" not in err and "IndexError" not in err
        assert code == 0
        report = json.loads(out)
        assert report["mid_s"] == [] and len(report["small_s"]) == 201

    def test_computation_failure_exits_one(self, capsys):
        code = main(["find-r", "--eps", "0.3", "--bracket-halfwidth", "0.02"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_find_r_validates_the_metric_it_uses(self, capsys):
        # the metric is (r*, eps): r*(0.8) + 0.8 = 1.2010 < pi/2, although
        # pi/4 + 0.8 is not
        assert main(["find-r", "--eps", "0.8", "--bracket-halfwidth", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["r_star"] - 0.40104) < 1e-5 and out["root_residual"] < 1e-10

    def test_scan_past_the_curvature_probe_is_a_report(self, capsys):
        # at eps 0.8, A'(r* + eps) >= 1 clamps rho0 to r* + eps: a report
        # that fails on its threshold check, not a usage error
        assert main(["scan", "--eps", "0.8", "--bracket-halfwidth", "0.5"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["overall"] == "failed"
        assert report["failure_reason"] == "negative-curvature threshold not confirmed"

    @pytest.mark.parametrize("command", ["find-r", "scan"])
    def test_r_star_past_the_family_exits_one(self, command, capsys):
        # r*(1.5) + 1.5 = 1.586 >= pi/2: no metric, one error line
        assert main([command, "--eps", "1.5", "--bracket-halfwidth", "0.75"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "must stay below pi/2" in err

    @pytest.mark.parametrize("eps", ["-0.1", "1.6"])
    def test_eps_outside_the_family_is_usage_error(self, eps, capsys):
        for command in ("find-r", "scan"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--eps", eps])
            assert exc.value.code == 2
            assert "eps must lie in [0, pi/2)" in capsys.readouterr().err

    def test_root_outside_the_window_exits_one(self, capsys):
        # r* = 0.4475 lies far below the default window [pi/4 - 0.1, pi/4 + 0.1]
        code = main(["find-r", "--eps", "0.7"])
        assert code == 1
        err = capsys.readouterr().err
        assert "BracketError: r* = " in err and "outside the window" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["profile"], ["stable"], ["find-r"], ["scan", "--eps", "0"], ["geodesic"], ["jacobi"],
    ])
    def test_tol_only_where_it_reaches_a_solve(self, argv, monkeypatch, tmp_path):
        # no solve takes a tolerance (the transition pair's is fixed, and
        # every window is a quadrature): --tol is refused everywhere and
        # AHWARP_TOL, even malformed, is not read
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "1e-10"])
        assert exc.value.code == 2
        monkeypatch.setenv("AHWARP_TOL", "1e-10x")
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0

    def test_arithmetic_error_exits_one(self, tmp_path, capsys, monkeypatch):
        def overflowing(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(ahwarp.geodesics, "solve_radial", overflowing)
        code = main(["geodesic", "--s", "0.3", "--tmax", "800",
                     "--out", str(tmp_path / "geo.csv")])
        assert code == 1
        assert "OverflowError" in capsys.readouterr().err

    def test_memory_error_exits_one(self, tmp_path, capsys, monkeypatch):
        # a sample grid too large to allocate (say --dt 1e-9) ends in one
        # error line; the failing allocation is simulated, never made
        def unallocatable(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                              "(10000000001,) and data type float64")

        monkeypatch.setattr(ahwarp.cli.np, "arange", unallocatable)
        code = main(["geodesic", "--dt", "1e-9", "--out", str(tmp_path / "geo.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ahwarp: error: MemoryError: Unable to allocate")
        assert err.count("\n") == 1


SUBCOMMANDS = ["profile", "geodesic", "jacobi", "stable", "find-r", "scan"]


class TestSchema:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [["stable"], ["find-r"], ["scan", "--eps", "0"]])
    def test_format_only_on_table_subcommands(self, argv, fmt):
        # these always write JSON; a --format they would ignore is refused
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", fmt])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["profile", "--r", "0.7", "--eps", "0.05", "--rho-max", "2", "--drho", "0.1"],
        ["geodesic", "--s", "0.3", "--tmax", "5", "--dt", "0.5"],
        ["jacobi", "--kind", "perpendicular", "--s", "0.3", "--r", "0.76", "--eps", "0.05",
         "--tmax", "5", "--dt", "0.25"],
    ])
    def test_json_table_carries_the_csv_floats(self, argv, tmp_path):
        csv, js = tmp_path / "table.csv", tmp_path / "table.json"
        assert main(argv + ["--out", str(csv)]) == 0
        assert main(argv + ["--format", "json", "--out", str(js)]) == 0
        header, data = read_csv(csv)
        payload = json.loads(js.read_text())
        assert list(payload) == header
        assert np.array_equal(np.array([payload[name] for name in header]).T, data)

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_help_exits_zero(self, subcommand, capsys):
        # argparse formats help text only when asked for it
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--help"])
        assert exc.value.code == 0
        assert f"usage: ahwarp {subcommand}" in capsys.readouterr().out

    def test_help_states_the_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["geodesic", "--help"])
        lines = capsys.readouterr().out.splitlines()

        def entry(option):
            i = next(i for i, line in enumerate(lines) if line.lstrip().startswith(option + " "))
            return " ".join(lines[i:i + 2])

        assert "(default: pi/4)" in entry("--r")
        assert "(default: 10)" in entry("--tmax")

    def test_scan_defaults_are_the_library_defaults(self, capsys):
        assert main(["scan", "--eps", "0"]) == 0
        assert capsys.readouterr().out == assemble_report(0.0).to_json() + "\n"

    def test_find_r_defaults_are_the_library_defaults(self, capsys):
        assert main(["find-r", "--eps", "0.05"]) == 0
        r_star, residual = find_r_star(0.05)
        payload = {"eps": 0.05, "r_star": r_star, "root_residual": residual}
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"
