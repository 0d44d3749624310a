"""Radial geodesics: entry times, closed forms, comparison bound, identities."""

import math

import numpy as np
import pytest

import ahwarp.geodesics as geodesics_mod
from ahwarp.geodesics import (
    GeodesicParams,
    closed_rho,
    closed_theta,
    comparison_lower_bound,
    entry_time,
    growth_factor,
    radial_exit_slope,
    solve_radial,
)
from ahwarp.jacobi import fundamental_pair, make_kernel, theta_infinity
from ahwarp.ode import integrate_ivp
from ahwarp.warp import ProfileParams, solve_warp

PI4 = math.pi / 4


class TestEntryTime:
    def test_radial_geodesic(self):
        assert entry_time(0.0, PI4) == pytest.approx(PI4, abs=1e-15)

    def test_grazing_limit(self):
        assert entry_time(PI4 - 1e-6, PI4) < 2e-3

    def test_against_integrator_event(self):
        mu = GeodesicParams(0.3, PI4, 0.0)
        sol = solve_radial(mu, T=10.0, tol=1e-11)
        assert abs(sol.entry_time - entry_time(0.3, PI4)) < 1e-10

    def test_event_agreement_across_grid(self):
        for r in (0.7, PI4, 0.9):
            for eps in (0.0, 0.1):
                for s in (0.1, 0.4, 0.6):
                    sol = solve_radial(GeodesicParams(s, r, eps), T=10.0, tol=1e-10)
                    assert abs(sol.entry_time - entry_time(s, r)) < 1e-8
                    assert sol.window[0] == sol.entry_time
                    assert abs(sol.rho(sol.entry_time) - r) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            entry_time(0.8, PI4)
        with pytest.raises(ValueError):
            entry_time(-0.1, PI4)


class TestExitSlope:
    def test_radial(self):
        assert radial_exit_slope(0.0, PI4) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_pi_reduction(self):
        assert radial_exit_slope(0.3, PI4) == pytest.approx(
            math.sqrt(math.cos(0.6)), abs=1e-15)

    def test_against_integrator(self):
        s, r = 0.5, 0.8
        expected = math.sqrt(math.cos(s) ** 2 - math.cos(r) ** 2) / math.sin(r)
        sol = solve_radial(GeodesicParams(s, r, 0.0), T=10.0, tol=1e-11)
        assert float(sol.drho(sol.entry_time)) == pytest.approx(expected, abs=1e-9)


class TestSolveRadial:
    def test_spherical_arc_before_entry(self):
        mu = GeodesicParams(0.3, PI4, 0.0)
        sol = solve_radial(mu, T=10.0, tol=1e-11)
        ts = np.linspace(0.0, sol.entry_time, 40)
        expected = np.arccos(math.cos(0.3) * np.cos(ts))
        assert np.max(np.abs(np.asarray(sol.rho(ts)) - expected)) < 1e-10

    def test_outside_log_growth(self):
        sol = solve_radial(GeodesicParams(0.3, PI4, 0.0), T=10.0, tol=1e-11)
        expected = PI4 + math.log(float(growth_factor(5.0, 0.3)))
        assert float(sol.rho(5.0)) == pytest.approx(expected, abs=1e-9)

    def test_never_entering_geodesic(self):
        sol = solve_radial(GeodesicParams(1.0, PI4, 0.0), T=10.0, tol=1e-11)
        assert sol.entry_time is None
        assert float(sol.rho(3.0)) == pytest.approx(1.0 + math.log(math.cosh(3.0)), abs=1e-9)

    def test_radial_line_is_exact(self):
        sol = solve_radial(GeodesicParams(0.0, PI4, 0.0), T=30.0, tol=1e-10)
        ts = np.linspace(0.0, 30.0, 61)
        assert np.array_equal(np.asarray(sol.rho(ts)), ts)
        assert sol.entry_time == PI4

    def test_radial_line_window(self):
        # rho = t is evaluated exactly, and the window is [r, r + eps] exactly
        sol = solve_radial(GeodesicParams(0.0, 0.76, 0.05), T=5.0, tol=1e-10)
        assert sol.rho(3.3) == 3.3
        assert sol.drho(4.9) == 1.0 and sol.trajectory.state_scalar(0.9) == (0.9, 1.0)
        assert sol.window == (0.76, 0.81)
        assert sol.rho(0.76) == 0.76 and sol.rho(0.81) == 0.81
        assert (sol.transition.nodes[0], sol.transition.nodes[-1]) == (0.76, 0.81)

    def test_horizon_before_entry_is_the_arc(self):
        # nothing past the ball is built, let alone integrated
        sol = solve_radial(GeodesicParams(0.3, 0.7, 0.1), T=0.2, tol=1e-10)
        assert sol.entry_time is None and sol.exit_time is None
        assert len(sol.trajectory.pieces) == 1
        ts = np.linspace(0.0, 0.2, 21)
        assert np.max(np.abs(sol.rho(ts) - np.arccos(math.cos(0.3) * np.cos(ts)))) < 1e-15

    def test_monotone_and_convex(self):
        for mu in (GeodesicParams(0.3, PI4, 0.0), GeodesicParams(0.5, 0.76, 0.1)):
            sol = solve_radial(mu, T=15.0, tol=1e-11)
            ts = np.linspace(0.0, 15.0, 500)
            _, v = sol.state(ts)
            assert np.all(v >= -1e-12)          # rho' >= 0
            assert np.all(np.diff(v) > -1e-9)   # rho'' >= 0
            assert np.all(v <= 1.0 + 1e-12)     # unit speed

    def test_transition_exit_time(self):
        # the crossing of rho = r + eps ends the window solve
        sol = solve_radial(GeodesicParams(0.3, PI4, 0.1), T=10.0, tol=1e-10)
        t_exit = sol.exit_time
        assert t_exit is not None and t_exit > sol.entry_time
        assert sol.transition.switched and sol.transition.nodes[-1] == t_exit
        assert float(sol.rho(t_exit)) == pytest.approx(PI4 + 0.1, abs=1e-8)

    def test_cache_is_bounded(self):
        # eps = 0 needs no ODE solve, so 200 distinct geodesics are cheap
        for s in np.linspace(0.001, 0.7, 200):
            solve_radial(GeodesicParams(float(s), 0.7512, 0.0), T=10.0, tol=1e-10)
        assert geodesics_mod._solve_radial_cached.cache_info().currsize <= 64

    @pytest.mark.parametrize("s", [1e-20, 6.464532500880693e-291])
    def test_radial_solve_below_resolution(self, s):
        # the great-circle arc starts the solve, not rho'' ~ cot(s) at rho = s
        sol = solve_radial(GeodesicParams(s, 0.75, 0.0), T=50.0, tol=1e-11)
        assert sol.rho(0.0) == s
        _, v = sol.state(np.linspace(0.0, 50.0, 1001))
        assert np.all(np.isfinite(v)) and np.all(v >= 0.0)


class TestClosedForms:
    def test_rho_radial_line(self):
        assert closed_rho(0.0, 0.5) == 0.5

    def test_rho_branch_junction(self):
        assert closed_rho(0.2, entry_time(0.2, PI4)) == pytest.approx(PI4, abs=1e-12)

    def test_rho_outer_family(self):
        assert closed_rho(PI4, 2.0) == pytest.approx(
            PI4 + math.log(math.cosh(2.0)), abs=1e-14)

    def test_rho_even(self):
        ts = np.linspace(-8, 8, 17)
        assert np.allclose(np.asarray(closed_rho(0.3, ts)),
                           np.asarray(closed_rho(0.3, -ts)), atol=0)

    def test_theta_at_zero(self):
        for s in (0.1, 0.5, 1.0):
            assert closed_theta(s, 0.0) == 0.0

    def test_theta_outer_limit(self):
        assert closed_theta(PI4, 40.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_theta_branch_matching(self):
        ell = entry_time(0.2, PI4)
        left = closed_theta(0.2, ell - 1e-13)
        right = closed_theta(0.2, ell + 1e-13)
        assert abs(left - right) < 1e-12

    def test_theta_odd(self):
        for s in (0.2, 1.0):
            assert closed_theta(s, -3.0) == pytest.approx(-closed_theta(s, 3.0), abs=1e-15)


def closed_phi(s, t):
    """theta_inf - theta past the entry time at (pi/4, 0), in forms free of
    cancellation: 2 sin(s) e^{-x} / ((1 + sqrt(cos 2s)) F) for s < pi/4 and
    sqrt2 e^{pi/4 - s} (1 - tanh t) for s >= pi/4."""
    if s >= PI4:
        return math.sqrt(2.0) * math.exp(PI4 - s) * 2.0 / (np.exp(2.0 * t) + 1.0)
    x = t - entry_time(s, PI4)
    return 2.0 * math.sin(s) * np.exp(-x) / (
        (1.0 + math.sqrt(math.cos(2.0 * s))) * np.asarray(growth_factor(t, s)))


class TestAngularCoordinate:
    @pytest.mark.parametrize("s", [0.05, 0.3, 0.6, 0.78])
    def test_theta_matches_closed_form_below_quarter_pi(self, s):
        sol = solve_radial(GeodesicParams(s, PI4, 0.0), T=12.5, tol=1e-12)
        ts = np.linspace(0.0, 12.0, 1201)
        assert np.max(np.abs(sol.theta(ts) - np.asarray(closed_theta(s, ts)))) < 1e-10
        # exact inside the ball, including theta(0) = 0
        inside = ts[ts < sol.entry_time]
        assert np.array_equal(sol.theta(inside), np.arctan2(
            np.sin(inside), math.sin(s) * np.cos(inside)))
        assert sol.theta(0.0) == 0.0

    @pytest.mark.parametrize("s", [PI4, 1.0, 2.0])
    def test_theta_matches_closed_form_from_quarter_pi(self, s):
        sol = solve_radial(GeodesicParams(s, PI4, 0.0), T=12.5, tol=1e-12)
        ts = np.linspace(0.0, 12.0, 1201)
        assert np.max(np.abs(sol.theta(ts) - np.asarray(closed_theta(s, ts)))) < 1e-10
        assert sol.theta(0.0) == 0.0

    @pytest.mark.parametrize("s", [0.1, 0.3, 1.0])
    def test_phi_is_summed_tail_first(self, s):
        # phi(t) falls like e^{-2t}; theta_inf - theta would leave no digits
        # of it by t ~ 18, the tail-first sum keeps its relative precision
        sol = solve_radial(GeodesicParams(s, PI4, 0.0), T=40.0, tol=1e-12)
        ts = np.linspace(sol.entry_time or 0.0, 25.0, 500)
        _, phi = sol.angles(ts)
        assert np.max(np.abs(phi / closed_phi(s, ts) - 1.0)) < 1e-8

    def test_theta_infinity_and_tail_bound(self):
        for s in (0.2, 0.5):
            sol = solve_radial(GeodesicParams(s, PI4, 0.0), T=20.0, tol=1e-12)
            assert sol.theta_infinity == pytest.approx(theta_infinity(s), abs=1e-11)
            tail = float(closed_phi(s, 20.0))
            assert tail <= sol.angle_tail_bound <= 2.0 * tail * (1.0 + 1e-9)

    def test_tail_bound_infinite_inside_transition(self):
        sol = solve_radial(GeodesicParams(0.3, 0.7, 0.1), T=0.2, tol=1e-10)
        assert sol.angle_tail_bound == math.inf

    def test_domain(self):
        with pytest.raises(ValueError):
            solve_radial(GeodesicParams(0.0, PI4, 0.0), T=5.0).theta(1.0)
        with pytest.raises(ValueError):
            solve_radial(GeodesicParams(0.3, PI4, 0.0), T=5.0).theta(6.0)


class TestComparisonBound:
    def test_line_reduction(self):
        assert comparison_lower_bound(1.0, 0.2, 1.0, 5.0) == pytest.approx(5.2, abs=1e-14)

    def test_log_cosh_reduction(self):
        assert comparison_lower_bound(1.0, 0.1, 0.0, 3.0) == pytest.approx(
            0.1 + math.log(math.cosh(3.0)), abs=1e-13)

    def test_scaled_rate(self):
        assert comparison_lower_bound(0.5, 0.0, 0.0, 2.0) == pytest.approx(
            2.0 * math.log(math.cosh(1.0)), abs=1e-13)

    def test_against_numeric_comparison_equation(self):
        a, s, v = 0.5, 0.0, 0.0
        traj = integrate_ivp(lambda t, y: (y[1], a * (1.0 - y[1] * y[1])), 0.0, (s, v), 6.0,
                             1e-12).trajectory()
        ts = np.linspace(0.0, 6.0, 30)
        x, _ = traj.state(ts)
        expected = np.asarray(comparison_lower_bound(a, s, v, ts))
        assert np.max(np.abs(x - expected)) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            comparison_lower_bound(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            comparison_lower_bound(1.0, 0.0, 1.5, 1.0)


class TestOracleAgreement:
    def test_closed_form_match_at_critical_params(self):
        ts = np.arange(0.0, 12.0001, 0.01)
        for s in (0.0, 0.1, 0.3, 0.78):
            sol = solve_radial(GeodesicParams(s, PI4, 0.0), T=12.5, tol=1e-10)
            rho = np.asarray(sol.rho(ts))
            assert np.max(np.abs(rho - np.asarray(closed_rho(s, ts)))) < 1e-8

    def test_non_trapping_bound(self):
        for r, eps in ((PI4, 0.0), (0.73, 0.1)):
            warp = solve_warp(ProfileParams(r, eps))
            a = warp.min_log_slope()
            ts = np.linspace(0.0, 12.0, 200)
            for s in (0.0, 0.5, 1.0):
                sol = solve_radial(GeodesicParams(s, r, eps), T=12.5, tol=1e-10)
                rho = np.asarray(sol.rho(ts))
                bound = np.asarray(comparison_lower_bound(a, s, 0.0, ts))
                assert np.all(rho >= bound - 1e-8)

    def test_monotone_convergence_in_eps(self):
        ts = np.linspace(0.0, 12.0, 600)
        base = np.asarray(solve_radial(GeodesicParams(0.3, PI4, 0.0), T=12.5, tol=1e-11).rho(ts))
        dists = []
        for eps in (0.1, 0.05, 0.01):
            rho = np.asarray(solve_radial(GeodesicParams(0.3, PI4, eps), T=12.5, tol=1e-11).rho(ts))
            dists.append(np.max(np.abs(rho - base)))
        assert dists[0] > dists[1] > dists[2]


class TestVariationIdentity:
    # A(rho) d_s rho = sin(s) U_par, checked in the division form
    # d_s rho = sin(s) U_par / A(rho): the product form multiplies the
    # finite-difference noise by the exponentially large warp factor.
    @pytest.mark.parametrize("s", [0.1, 0.3])
    def test_at_critical_params(self, s):
        self._check(s, PI4, 0.0)

    def test_mollified(self):
        self._check(0.3, 0.76, 0.05)

    @staticmethod
    def _check(s, r, eps):
        h = 1e-4
        warp = solve_warp(ProfileParams(r, eps))
        hi = solve_radial(GeodesicParams(s + h, r, eps), T=8.5, tol=1e-12)
        lo = solve_radial(GeodesicParams(s - h, r, eps), T=8.5, tol=1e-12)
        mid = solve_radial(GeodesicParams(s, r, eps), T=8.5, tol=1e-12)
        kern = make_kernel("parallel", GeodesicParams(s, r, eps), horizon=8.5, tol=1e-12)
        pair = fundamental_pair(kern, T=8.0, tol=1e-12)
        ts = np.arange(0.0, 8.001, 0.1)
        ds_rho = (np.asarray(hi.rho(ts)) - np.asarray(lo.rho(ts))) / (2.0 * h)
        a_vals = np.asarray(warp.value(np.asarray(mid.rho(ts))))
        u, _ = pair.U.state(ts)
        assert np.max(np.abs(ds_rho - math.sin(s) * u / a_vals)) < 1e-5


class TestParams:
    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            GeodesicParams(-0.1, PI4, 0.0)

    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_non_finite_s_rejected(self, s):
        with pytest.raises(ValueError, match="finite"):
            GeodesicParams(s, PI4, 0.0)

    def test_profile_validation_propagates(self):
        with pytest.raises(ValueError):
            GeodesicParams(0.1, 1.5, 0.2)
