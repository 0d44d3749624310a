"""Root finding, the three verification regimes, and report assembly."""

import math

import numpy as np
import pytest

from ahwarp.geodesics import GeodesicParams
from ahwarp.search import (
    Bracket,
    BracketError,
    ScanReport,
    assemble_report,
    find_r_star,
    verify_large_s,
    verify_small_s,
)
from ahwarp.geodesics import RadialSolution
from ahwarp.stable import (
    TOL_SIGN,
    certificate,
    certificate_parallel_closed,
    certificate_perp_closed,
    stable_for,
)

PI4 = math.pi / 4


@pytest.fixture(scope="module")
def sharp_report():
    return assemble_report(0.0)


class TestBracket:
    def test_sign_change_required(self):
        with pytest.raises(BracketError):
            Bracket(0.7, 0.8, 1.0, 2.0)

    def test_ordering_required(self):
        with pytest.raises(ValueError):
            Bracket(0.8, 0.7, -1.0, 1.0)


class TestFindRStar:
    def test_sharp_root_is_quarter_pi(self):
        r_star, residual = find_r_star(0.0, tol=1e-12)
        assert abs(r_star - PI4) < 1e-10
        assert residual < 1e-10

    def test_mollified_roots_move_toward_quarter_pi(self):
        dists = []
        for eps in (0.1, 0.05, 0.01):
            r_star, residual = find_r_star(eps, tol=1e-12)
            assert PI4 - 0.1 < r_star < PI4 + 0.1
            assert residual < 1e-10
            dists.append(abs(r_star - PI4))
        assert dists[0] > dists[1] > dists[2]

    def test_narrow_bracket_fails_for_large_eps(self):
        with pytest.raises(BracketError):
            find_r_star(0.3, bracket_halfwidth=0.02, tol=1e-11)

    def test_root_certificate_within_tolerance_at_drawn_eps(self):
        # verify_small_s recomputes the s = 0 certificate at tol 1e-10; at a
        # root it must stay inside TOL_SIGN or the scan fails spuriously
        eps = 0.020927634009400266
        r_star, _ = find_r_star(eps)
        assert abs(certificate("parallel", GeodesicParams(0.0, r_star, eps), tol=1e-10)) < 1e-10

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_root_function_monotone_across_bracket(self, eps):
        vals = []
        for r in np.linspace(PI4 - 0.1, PI4 + 0.1, 9):
            sol = stable_for("parallel", GeodesicParams(0.0, float(r), eps), tol=1e-11)
            vals.append(sol.Y0 * sol.W_prime_0)
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestVerifySmallS:
    def test_critical_parameters(self):
        records, (d1, d2), ok = verify_small_s(PI4, 0.0, sigma=0.3, ds=0.05, tol=1e-10)
        assert ok
        assert d2 < 0 and abs(d1) < 1e-5
        for rec in records:
            assert rec.verdict == "pass"
            assert rec.cert_parallel == pytest.approx(
                certificate_parallel_closed(rec.s), abs=1e-8)
            assert rec.cert_perp <= 1e-9

    def test_boundary_point_is_root(self):
        records, _, _ = verify_small_s(PI4, 0.0, sigma=0.05, ds=0.05, tol=1e-10)
        assert abs(records[0].cert_parallel) < 1e-9


class TestVerifyLargeS:
    def test_threshold_and_positivity(self):
        rho0, certified, records, ok = verify_large_s(
            PI4, 0.0, sigma=0.3, ds=0.1, T=20.0, tol=1e-9)
        assert rho0 == pytest.approx(PI4 + math.log(2.0) / 2.0, abs=1e-12)
        assert certified and ok
        for rec in records:
            assert rec.min_U_parallel > 0.01
            assert rec.min_U_perp > 0.01
            assert rec.verdict == "pass"

    def test_outer_minimum_matches_closed_form(self):
        # s = 1.0: min over [0, 20] of cosh(t) cos(sqrt2 e^{pi/4 - 1} tanh t)
        _, _, records, _ = verify_large_s(PI4, 0.0, sigma=1.0, S_cap=1.0,
                                          ds=1.0, T=20.0, tol=1e-9)
        ts = np.arange(0.0, 20.0 + 1e-12, 0.01)
        closed = np.cosh(ts) * np.cos(math.sqrt(2) * math.exp(-1.0 + PI4) * np.tanh(ts))
        assert records[0].min_U_perp == pytest.approx(float(np.min(closed)), abs=1e-6)
        assert records[0].min_U_perp > 0

    def test_perp_verdict_requires_angle_below_quarter_turn(self, monkeypatch):
        # U_perp = A cos(theta) / A(s) > 0 on all of [0, T] iff theta(T) <
        # pi/2; a sampled minimum alone cannot see a dip between samples
        _, _, records, ok = verify_large_s(PI4, 0.0, sigma=0.5, S_cap=0.5, ds=0.1)
        assert ok and records[0].verdict == "pass"
        monkeypatch.setattr(RadialSolution, "theta", lambda self, t: math.pi / 2)
        _, _, records, ok = verify_large_s(PI4, 0.0, sigma=0.5, S_cap=0.5, ds=0.1)
        assert not ok and records[0].verdict == "fail"
        assert records[0].min_U_perp > 0.0  # the samples alone would pass

    def test_overlap_with_certificate_method(self):
        # both regimes must agree on [sigma, 2 sigma]
        records_cert, _, ok_cert = verify_small_s(PI4, 0.0, sigma=0.6, ds=0.1, tol=1e-10)
        rho0, _, records_pos, ok_pos = verify_large_s(
            PI4, 0.0, sigma=0.3, S_cap=0.6, ds=0.1, T=20.0, tol=1e-9)
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

    def test_metadata_declares_sampling(self, sharp_report):
        assert "not a computer-assisted proof" in sharp_report.metadata["method"]
