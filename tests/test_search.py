"""Root finding, the three verification regimes, and report assembly."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import ahwarp.search as search_mod
from ahwarp import geodesics, jacobi
from ahwarp.geodesics import GeodesicParams, solve_radial_grid
from ahwarp.search import (
    BracketError,
    ScanReport,
    assemble_report,
    find_r_star,
    verify_large_s,
    verify_small_s,
)
from ahwarp.warp import ProfileParams, k_parallel, k_perp, solve_warp
from ahwarp.stable import (
    TOL_SIGN,
    certificate,
    certificate_grid,
    certificate_parallel_closed,
    certificate_perp_closed,
    stable_for,
    stable_solution,
)

PI4 = math.pi / 4


@pytest.fixture(scope="module")
def sharp_report():
    return assemble_report(0.0)


class TestFindRStar:
    def test_sharp_root_is_quarter_pi(self):
        r_star, residual = find_r_star(0.0)
        assert abs(r_star - PI4) < 1e-10
        assert residual < 1e-10

    def test_mollified_roots_move_toward_quarter_pi(self):
        dists = []
        for eps in (0.1, 0.05, 0.01):
            r_star, residual = find_r_star(eps)
            assert PI4 - 0.1 < r_star < PI4 + 0.1
            assert residual < 1e-10
            dists.append(abs(r_star - PI4))
        assert dists[0] > dists[1] > dists[2]

    def test_narrow_bracket_fails_for_large_eps(self):
        # r*(0.3) = 0.6377 lies below the window [pi/4 - 0.02, pi/4 + 0.02]
        with pytest.raises(BracketError, match=r"r\* = 0\.637\d* outside the window \[0\.765"):
            find_r_star(0.3, bracket_halfwidth=0.02)

    @pytest.mark.parametrize("eps", [0.01, 0.020927634009400266, 0.05, 0.1])
    def test_agrees_with_brent_on_the_certificate(self, eps):
        # the rotation identity against a root search: Brent on the s = 0
        # certificate r -> W'(0; r), whose iterates each solve the window
        f = lambda r: certificate("parallel", GeodesicParams(0.0, r, eps))
        ref = brentq(f, PI4 - 0.1, PI4 + 0.1, xtol=1e-13, rtol=8.9e-16)
        r_star, residual = find_r_star(eps)
        assert abs(r_star - ref) <= 1e-13
        assert residual < 1e-13

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1])
    def test_certificate_is_rotation_from_r_star(self, eps):
        # W'(0; r) = tan(r - r*) across the bracket, not only at the root
        r_star, _ = find_r_star(eps)
        for r in np.linspace(PI4 - 0.1, PI4 + 0.1, 9):
            got = certificate("parallel", GeodesicParams(0.0, float(r), eps))
            assert abs(got - math.tan(r - r_star)) <= 1e-13

    def test_root_certificate_within_tolerance_at_drawn_eps(self):
        # verify_small_s recomputes the s = 0 certificate on its own grid
        # solve; at a root it must stay inside TOL_SIGN or the scan fails
        # spuriously
        eps = 0.020927634009400266
        r_star, _ = find_r_star(eps)
        assert abs(certificate("parallel", GeodesicParams(0.0, r_star, eps))) < 1e-10

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_root_function_monotone_across_bracket(self, eps):
        vals = []
        for r in np.linspace(PI4 - 0.1, PI4 + 0.1, 9):
            sol = stable_for("parallel", GeodesicParams(0.0, float(r), eps), tol=1e-11)
            vals.append(sol.Y0 * sol.W_prime_0)
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestVerifySmallS:
    def test_critical_parameters(self):
        records, (d1, d2), ok, _ = verify_small_s(PI4, 0.0, sigma=0.3, ds=0.05)
        assert ok
        assert d2 < 0 and abs(d1) < 1e-5
        for rec in records:
            assert rec.verdict == "pass"
            assert rec.cert_parallel == pytest.approx(
                certificate_parallel_closed(rec.s), abs=1e-8)
            assert rec.cert_perp <= 1e-9

    def test_boundary_point_is_root(self):
        records, _, _, witness = verify_small_s(PI4, 0.0, sigma=0.05, ds=0.05)
        assert abs(records[0].cert_parallel) < 1e-9
        # the witness is the s = 0 column's in-plane stable solution
        assert witness.params == GeodesicParams(0.0, PI4, 0.0) and witness.kind == "parallel"
        assert witness.W_prime_0 == records[0].cert_parallel


class TestVerifyLargeS:
    def test_threshold_and_positivity(self):
        rho0, certified, records, ok = verify_large_s(
            PI4, 0.0, sigma=0.3, ds=0.1)
        assert rho0 == pytest.approx(PI4 + math.log(2.0) / 2.0, abs=1e-12)
        assert certified and ok
        for rec in records:
            assert rec.min_U_parallel > 0.01
            assert rec.min_U_perp > 0.01
            assert rec.verdict == "pass"

    def test_outer_minimum_matches_closed_form(self):
        # s = 1.0: U_perp = cosh(t) cos(c tanh t), c = sqrt2 e^{pi/4 - 1}, is
        # least where sinh(t) cos(c tanh t) - c sin(c tanh t) / cosh(t) = 0
        c = math.sqrt(2) * math.exp(PI4 - 1.0)
        t_min = brentq(lambda t: (math.sinh(t) * math.cos(c * math.tanh(t))
                                  - c * math.sin(c * math.tanh(t)) / math.cosh(t)),
                       0.1, 5.0, xtol=1e-15, rtol=8.9e-16)
        _, _, records, _ = verify_large_s(PI4, 0.0, sigma=1.0, ds=1.0)
        assert records[0].s == 1.0
        closed = math.cosh(t_min) * math.cos(c * math.tanh(t_min))
        assert records[0].min_U_perp == pytest.approx(closed, abs=1e-14)
        assert records[0].min_U_perp > 0

    def test_perp_verdict_requires_angle_below_quarter_turn(self, monkeypatch):
        # U_perp = A cos(theta) / A(s) > 0 on the whole line iff theta_inf <
        # pi/2: at theta_inf = pi/2 it tends to 0, past it to -inf, and the
        # point fails whatever the in-plane U does
        _, _, records, ok = verify_large_s(PI4, 0.0, sigma=0.5, ds=0.1)
        assert ok and all(rec.verdict == "pass" for rec in records)
        for psi, least in ((0.0, 0.0), (-1e-3, -math.inf)):
            monkeypatch.setattr(geodesics.RadialSolution, "theta_infinity_complement",
                                property(lambda self, psi=psi: psi))
            _, _, at_quarter_turn, ok = verify_large_s(PI4, 0.0, sigma=0.5, ds=0.1)
            assert not ok
            for rec, before in zip(at_quarter_turn, records):
                assert rec.verdict == "fail" and rec.min_U_perp == least
                assert rec.min_U_parallel == before.min_U_parallel > 0.0

    def test_mid_s_grid_starts_past_the_radial_geodesic(self):
        # s = 0 has no angular coordinate; the small-s regime covers it
        with pytest.raises(ValueError, match="sigma > 0"):
            verify_large_s(PI4, 0.0, sigma=0.0)

    @pytest.mark.parametrize("eps", [0.0, 0.01, 0.05, 0.1])
    def test_threshold_sign_scan_at_the_scans_root(self, eps):
        # the 2,001-point scan that the threshold's proof replaced: both
        # curvatures are negative on (rho0, rho0 + 10] at the scan's (r*, eps)
        params = ProfileParams(find_r_star(eps)[0], eps)
        rho0, certified = search_mod._negative_curvature_threshold(params)
        assert certified
        grid = np.linspace(rho0 + 1e-9, rho0 + 10.0, 2001)
        assert np.all(np.asarray(k_parallel(params, grid)) < 0.0)
        assert np.all(np.asarray(k_perp(solve_warp(params), grid)) < 0.0)

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_growth_coefficient_is_the_certificate(self, eps):
        # the Wronskian of the even U and the stable Y (e^t Y -> 1) is
        # Y(0) W'(0) at 0 and -2 P e^{-t_x} past t_x, so
        # P = -1/2 e^{t_x} Y(0) W'(0) on one radial solve, and the exterior
        # test P >= 0 is the certificate W'(0) <= 0
        r = find_r_star(eps)[0]
        rho0, _ = search_mod._negative_curvature_threshold(ProfileParams(r, eps))
        grid = search_mod._grid(0.3, rho0, 0.01)
        for radial in solve_radial_grid(grid, r, eps, tol=search_mod._MID_TOL):
            t_x = radial.window[1]
            u, du = jacobi._in_plane_to_exit(radial, 1.0, 0.0, t_x)[1]
            growth = 0.5 * (u + du)
            sol = stable_solution(jacobi.kernel_on("parallel", radial))
            assert growth == pytest.approx(-0.5 * math.exp(t_x) * sol.Y0 * sol.W_prime_0,
                                           rel=1e-13)
            assert np.sign(growth) == np.sign(-sol.W_prime_0)

    def test_peak_memory_is_bounded(self):
        # a scan holds one batch of window solves at a time and no sample
        # arrays: the peak is the batch's dense output, 3.15 MB on this call
        r = find_r_star(0.05)[0]  # the transition pair is solved before tracing
        tracemalloc.start()
        try:
            verify_large_s(r, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.15e6

    def test_overlap_with_certificate_method(self):
        # both regimes must agree on [sigma, 2 sigma]
        records_cert, _, ok_cert, _ = verify_small_s(PI4, 0.0, sigma=0.6, ds=0.1)
        rho0, _, records_pos, ok_pos = verify_large_s(
            PI4, 0.0, sigma=0.3, ds=0.1)
        assert ok_cert and ok_pos
        overlap_cert = [r for r in records_cert if r.s >= 0.3 - 1e-12]
        assert overlap_cert and all(r.verdict == "pass" for r in overlap_cert)
        assert records_pos and all(r.verdict == "pass" for r in records_pos)


class TestAssembleReport:
    def test_sharp_metric_succeeds(self, sharp_report):
        rep = sharp_report
        assert rep.overall == "boundary-CP-and-no-interior-CP"
        assert rep.failure_reason is None
        assert abs(rep.r_star - PI4) < 1e-10
        assert rep.root_residual < 1e-10
        assert rep.large_s_threshold == pytest.approx(PI4 + math.log(2.0) / 2.0, abs=1e-12)
        assert rep.curvature_negativity_certified
        assert rep.non_trapping_ok

    def test_witness_decays_both_directions(self, sharp_report):
        w = sharp_report.witness
        assert w["abs_Y_at_T"] < 2.0 * math.exp(-w["T"])
        # even extension is C^1 at the root: the slope is the residual
        assert abs(w["even_extension_slope"]) < 1e-10

    def test_grid_verdicts(self, sharp_report):
        assert all(rec.verdict == "pass" for rec in sharp_report.small_s)
        assert all(rec.verdict == "pass" for rec in sharp_report.mid_s)
        assert sharp_report.small_s[0].s == 0.0
        assert sharp_report.mid_s[-1].s >= sharp_report.large_s_threshold - 0.011

    def test_perp_certificates_within_sign_band_of_closed_form(self, sharp_report):
        for rec in sharp_report.small_s:
            assert abs(rec.cert_perp - certificate_perp_closed(rec.s)) <= TOL_SIGN / 10.0

    def test_in_plane_minima_match_closed_form(self, sharp_report):
        # at (pi/4, 0), cos 2 ell(s) = tan^2 s, so past ell the in-plane
        # U = P e^tau + Q e^{-tau} is least at 2 sqrt(PQ) = tan s for
        # s < pi/4; for s >= pi/4, U = cosh t is least at 1
        for rec in sharp_report.mid_s:
            exact = math.tan(rec.s) if rec.s < PI4 else 1.0
            assert rec.min_U_parallel == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_concavity_recorded(self, sharp_report):
        d1, d2 = sharp_report.concavity
        assert abs(d1) < 1e-5
        assert d2 == pytest.approx(-1.0 / 3.0, abs=5e-3)

    def test_round_trip(self, sharp_report):
        again = ScanReport.from_json(sharp_report.to_json())
        assert again == sharp_report

    def test_failure_reported_not_raised(self):
        rep = assemble_report(0.3, bracket_halfwidth=0.02)
        assert rep.overall == "failed"
        assert "bracket" in rep.failure_reason

    def test_failure_reason_names_failing_s(self, monkeypatch):
        # one small-s certificate fails and the concavity sign is flipped:
        # the reason names the failing s and reports the concavity separately
        def failing_at_015(ss, r, eps):
            return [(1.0, 1.0) if abs(s - 0.15) < 1e-9 else certs
                    for s, certs in zip(ss, certificate_grid(ss, r, eps))]

        monkeypatch.setattr(search_mod, "certificate_grid", failing_at_015)
        monkeypatch.setattr(search_mod, "stencil_derivatives", lambda f: (0.0, 0.1))
        rep = assemble_report(0.0, ds=0.05)
        assert rep.overall == "failed"
        assert [round(rec.s, 12) for rec in rep.small_s if rec.verdict == "fail"] == [0.15]
        assert rep.failure_reason == ("small-s certificate method failed at s = 0.15; "
                                      "small-s concavity d2 = 1.000e-01 is not negative")

    @pytest.mark.parametrize("sigma, points", [(1.2, 121), (2.0, 201)])
    def test_sigma_past_rho0_leaves_no_mid_s(self, sigma, points):
        # rho0 = pi/4 + log(2)/2 = 1.13: the mid-s grid [sigma, rho0] is
        # empty, and the small-s certificates cover [0, sigma]
        assert search_mod._grid(sigma, PI4 + math.log(2.0) / 2.0, 0.01).size == 0
        rep = assemble_report(0.0, sigma=sigma)
        assert rep.overall == "boundary-CP-and-no-interior-CP"
        assert len(rep.small_s) == points and rep.small_s[-1].s == sigma
        assert rep.mid_s == ()

    @pytest.mark.parametrize("kwargs, name", [
        ({"ds": -0.01}, "ds"), ({"ds": 0.0}, "ds"), ({"ds": math.inf}, "ds"),
        ({"ds": math.nan}, "ds"), ({"sigma": math.inf}, "sigma"), ({"sigma": math.nan}, "sigma"),
    ])
    def test_bad_grid_step_is_refused(self, kwargs, name):
        # ds = -0.01 left both grids empty and the scan passed with nothing
        # checked; ds = 0 divided by zero and ds = inf failed inside a solve
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            assemble_report(0.0, **kwargs)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            verify_small_s(PI4, 0.0, **kwargs)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            verify_large_s(PI4, 0.0, **kwargs)

    def test_metadata_declares_sampling(self, sharp_report):
        assert "not a computer-assisted proof" in sharp_report.metadata["method"]

    def test_metadata_states_the_tolerances_used(self, sharp_report):
        assert sharp_report.metadata["tol"] == {
            "pair": 1e-12, "certificates": 1e-12, "mid_s": 1e-9}

    def test_mollified_report_equals_the_archive(self):
        archive = Path(__file__).resolve().parents[1] / "artifacts" / "scan_eps_0.05.json"
        assert assemble_report(0.05).to_dict() == json.loads(archive.read_text())
