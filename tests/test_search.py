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
from ahwarp.geodesics import GeodesicParams
from ahwarp.jacobi import make_kernel
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
        records, (d1, d2), ok = verify_small_s(PI4, 0.0, sigma=0.3, ds=0.05)
        assert ok
        assert d2 < 0 and abs(d1) < 1e-5
        for rec in records:
            assert rec.verdict == "pass"
            assert rec.cert_parallel == pytest.approx(
                certificate_parallel_closed(rec.s), abs=1e-8)
            assert rec.cert_perp <= 1e-9

    def test_boundary_point_is_root(self):
        records, _, _ = verify_small_s(PI4, 0.0, sigma=0.05, ds=0.05)
        assert abs(records[0].cert_parallel) < 1e-9


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
        # s = 1.0: min over [0, 20] of cosh(t) cos(sqrt2 e^{pi/4 - 1} tanh t)
        _, _, records, _ = verify_large_s(PI4, 0.0, sigma=1.0, ds=1.0)
        ts = np.arange(0.0, 20.0 + 1e-12, 0.01)
        closed = np.cosh(ts) * np.cos(math.sqrt(2) * math.exp(-1.0 + PI4) * np.tanh(ts))
        assert records[0].min_U_perp == pytest.approx(float(np.min(closed)), abs=1e-6)
        assert records[0].min_U_perp > 0

    def test_perp_verdict_requires_angle_below_quarter_turn(self, monkeypatch):
        # U_perp = A cos(theta) / A(s) > 0 on all of [0, T] iff theta(T) <
        # pi/2; a sampled minimum alone cannot see a dip between samples.
        # The pass reads theta(T) off the last sample column (_Paths.end):
        # setting it to pi/2 there leaves every sample of U as it was
        _, _, records, ok = verify_large_s(PI4, 0.0, sigma=0.5, ds=0.1)
        assert ok and records[0].verdict == "pass"
        monkeypatch.setattr(geodesics._Paths, "end", lambda self: (
            self.rho[:, -1], np.full(len(self.theta), math.pi / 2)))
        _, _, at_quarter_turn, ok = verify_large_s(PI4, 0.0, sigma=0.5, ds=0.1)
        assert not ok and at_quarter_turn[0].verdict == "fail"
        for rec, before in zip(at_quarter_turn, records):  # the samples alone would pass
            assert (rec.min_U_parallel, rec.min_U_perp) == (before.min_U_parallel,
                                                            before.min_U_perp)
            assert rec.min_U_parallel > 0.0 and rec.min_U_perp > 0.0

    def test_mid_s_grid_starts_past_the_radial_geodesic(self):
        # s = 0 has no angular coordinate; the small-s regime covers it
        with pytest.raises(ValueError, match="sigma > 0"):
            verify_large_s(PI4, 0.0, sigma=0.0)

    def test_point_requires_rho_past_threshold_at_T(self, monkeypatch):
        # the Sturm argument past T needs rho(T) >= rho0; it is checked, not
        # assumed: a threshold just past rho(T) fails the point
        rho_T = float(make_kernel("parallel", GeodesicParams(0.5, PI4, 0.0),
                                  horizon=21.0, tol=1e-9).radial.rho(20.0))
        for rho0, verdict in ((rho_T, "pass"), (np.nextafter(rho_T, math.inf), "fail")):
            monkeypatch.setattr(search_mod, "_negative_curvature_threshold",
                                lambda params, rho0=rho0: (rho0, True))
            _, _, records, ok = verify_large_s(PI4, 0.0, sigma=0.5, ds=0.1)
            assert ok == (verdict == "pass") and records[0].verdict == verdict
            assert records[0].min_U_parallel > 0.0 and records[0].min_U_perp > 0.0

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
    def test_block_pass_is_the_per_geodesic_solutions_bit_for_bit(self, eps):
        # every sample of both even solutions U, U'(T), theta(T) and rho(T)
        # as the mid-s pass reads them, against each geodesic's own
        # solutions; starts s < r, r <= s < r + eps and s >= r + eps, on a
        # grid that is not a whole number of blocks
        r = find_r_star(eps)[0]
        T, tol = search_mod._T_MID, search_mod._MID_TOL
        sample = np.arange(0.0, T + 1e-12, 0.01)
        assert sample[-1] == T
        ss = [0.3, r - 0.05, r, r + eps / 2.0, r + eps, r + eps + 0.05, 1.1]
        assert len(ss) % geodesics._BLOCK
        self._assert_block_pass_exact(ss, r, eps, T, T + 1.0, tol, sample)

    @pytest.mark.parametrize("eps", [0.05, 0.1])
    def test_block_pass_with_geodesics_inside_at_the_horizon(self, eps):
        # at T = 0.7 some geodesics are still in the ball or the transition
        # (no exit time, no exterior): their samples come out exact as well
        T = 0.7
        ss = [0.3, 0.6, 0.78, 0.8, 0.83, 0.9, 1.0]
        self._assert_block_pass_exact(ss, PI4, eps, T, 0.75, 1e-9, np.linspace(0.0, T, 71))

    @staticmethod
    def _assert_block_pass_exact(ss, r, eps, T, horizon, tol, sample):
        seen = 0
        for radials, paths in geodesics._sample_grid(ss, r, eps, horizon, tol, sample):
            solutions = jacobi._even_solutions(radials, paths, T)
            rho_T, theta_T = paths.end()
            for i, radial in enumerate(radials):
                for kind, (u, du) in zip(jacobi.KINDS, solutions):
                    ref = jacobi.jacobi_solution(jacobi.kernel_on(kind, radial), (1.0, 0.0),
                                                 T, tol).state(sample)
                    assert np.array_equal(u[i], ref[0]) and np.array_equal(du[i], ref[1])
                assert theta_T[i] == radial.theta(T) and rho_T[i] == radial.rho(T)
                seen += 1
        assert seen == len(ss)

    def test_peak_memory_is_bounded(self):
        # the pass holds a few block-by-samples arrays, not the grid's: the
        # per-geodesic loop it replaced peaked at 3.15 MB on this call, and
        # the pass may add at most 1 MB to that
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
        records_cert, _, ok_cert = verify_small_s(PI4, 0.0, sigma=0.6, ds=0.1)
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

    def test_metadata_declares_sampling(self, sharp_report):
        assert "not a computer-assisted proof" in sharp_report.metadata["method"]

    def test_metadata_states_the_tolerances_used(self, sharp_report):
        assert sharp_report.metadata["tol"] == {
            "pair": 1e-12, "certificates": 1e-12, "mid_s": 1e-9}

    def test_mollified_report_equals_the_archive(self):
        archive = Path(__file__).resolve().parents[1] / "artifacts" / "scan_eps_0.05.json"
        assert assemble_report(0.05).to_dict() == json.loads(archive.read_text())
