"""Radial geodesics: entry times, closed forms, comparison bound, identities."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from ahwarp.geodesics import (
    GeodesicParams,
    closed_rho,
    closed_theta,
    comparison_lower_bound,
    entry_time,
    growth_factor,
    radial_exit_slope,
    solve_radial,
    solve_radial_grid,
)
from ahwarp.jacobi import (KINDS, closed_U_perp, closed_V_perp, fundamental_pair, kernel_on,
                           make_kernel, theta_infinity)
from ahwarp.search import _non_trapping_check, find_r_star
from ahwarp.stable import stable_solution
from ahwarp.warp import ProfileParams, solve_warp

PI4 = math.pi / 4


def solved_whole(params, T):
    """The geodesic solved at the horizon T, checked against the one solved
    at T = 30: the horizon bounds only the domain [0, T] of the trajectory,
    so the window, the transfer matrix, the exterior, pi/2 - theta_inf and
    both kinds' certificates agree bit for bit, and so does rho on [0, T]."""
    short, full = (solve_radial(params, T=horizon) for horizon in (T, 30.0))
    assert short.trajectory.t1 == T and short.window == full.window
    assert np.array_equal(short.transfer, full.transfer)
    for x, y in ((short.exit, full.exit), (short.reduced, full.reduced)):
        assert np.array_equal(x, y)
    assert short.theta_infinity_complement == full.theta_infinity_complement
    for kind in KINDS:
        certs = [stable_solution(kernel_on(kind, sol)).W_prime_0 for sol in (short, full)]
        assert certs[0] == certs[1]
    ts = np.linspace(0.0, T, 21)
    assert np.array_equal(short.rho(ts), full.rho(ts))
    return short


class TestEntryTime:
    def test_radial_geodesic(self):
        assert entry_time(0.0, PI4) == pytest.approx(PI4, abs=1e-15)

    def test_grazing_limit(self):
        assert entry_time(PI4 - 1e-6, PI4) < 2e-3

    def test_against_integrator_event(self):
        mu = GeodesicParams(0.3, PI4, 0.0)
        sol = solve_radial(mu, T=10.0)
        assert abs(sol.entry_time - entry_time(0.3, PI4)) < 1e-10

    def test_event_agreement_across_grid(self):
        for r in (0.7, PI4, 0.9):
            for eps in (0.0, 0.1):
                for s in (0.1, 0.4, 0.6):
                    sol = solve_radial(GeodesicParams(s, r, eps), T=10.0)
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
        sol = solve_radial(GeodesicParams(s, r, 0.0), T=10.0)
        assert float(sol.drho(sol.entry_time)) == pytest.approx(expected, abs=1e-9)


class TestSolveRadial:
    def test_spherical_arc_before_entry(self):
        mu = GeodesicParams(0.3, PI4, 0.0)
        sol = solve_radial(mu, T=10.0)
        ts = np.linspace(0.0, sol.entry_time, 40)
        expected = np.arccos(math.cos(0.3) * np.cos(ts))
        assert np.max(np.abs(np.asarray(sol.rho(ts)) - expected)) < 1e-10

    def test_outside_log_growth(self):
        sol = solve_radial(GeodesicParams(0.3, PI4, 0.0), T=10.0)
        expected = PI4 + math.log(float(growth_factor(5.0, 0.3)))
        assert float(sol.rho(5.0)) == pytest.approx(expected, abs=1e-9)

    def test_never_entering_geodesic(self):
        # it starts outside the ball and past the transition: t_in = t_x = 0
        sol = solve_radial(GeodesicParams(1.0, PI4, 0.0), T=10.0)
        assert sol.entry_time == 0.0 and sol.window == (0.0, 0.0)
        assert float(sol.rho(3.0)) == pytest.approx(1.0 + math.log(math.cosh(3.0)), abs=1e-9)

    def test_radial_line_is_exact(self):
        sol = solve_radial(GeodesicParams(0.0, PI4, 0.0), T=30.0)
        ts = np.linspace(0.0, 30.0, 61)
        assert np.array_equal(np.asarray(sol.rho(ts)), ts)
        assert sol.entry_time == PI4

    def test_radial_line_window(self):
        # rho = t is evaluated exactly, and the window is [r, r + eps] exactly;
        # its quadrature ends at sigma = 1, and its time integral, of
        # dt/dx = 1, is eps to rounding
        sol = solve_radial(GeodesicParams(0.0, 0.76, 0.05), T=5.0)
        assert sol.rho(3.3) == 3.3
        assert sol.drho(4.9) == 1.0 and sol.trajectory.state_scalar(0.9) == (0.9, 1.0)
        assert sol.window == (0.76, 0.81)
        assert sol.rho(0.76) == 0.76 and sol.rho(0.81) == 0.81
        assert sol.sigma[0, -1] == 1.0
        assert abs(sol.cum[0, 0, -1] - 0.05) < 1e-16

    def test_horizon_before_entry_is_the_arc(self):
        # the horizon 0.2 comes before the entry, and the geodesic is solved
        # whole all the same; on [0, 0.2] it is the great-circle arc
        sol = solved_whole(GeodesicParams(0.3, 0.7, 0.1), 0.2)
        assert 0.2 < sol.entry_time < sol.exit_time
        ts = np.linspace(0.0, 0.2, 21)
        assert np.max(np.abs(sol.rho(ts) - np.arccos(math.cos(0.3) * np.cos(ts)))) < 1e-15
        with pytest.raises(ValueError):
            sol.rho(0.3)

    def test_monotone_and_convex(self):
        for mu in (GeodesicParams(0.3, PI4, 0.0), GeodesicParams(0.5, 0.76, 0.1)):
            sol = solve_radial(mu, T=15.0)
            ts = np.linspace(0.0, 15.0, 500)
            _, v = sol.state(ts)
            assert np.all(v >= -1e-12)          # rho' >= 0
            assert np.all(np.diff(v) > -1e-9)   # rho'' >= 0
            assert np.all(v <= 1.0 + 1e-12)     # unit speed

    def test_transition_exit_time(self):
        # the window's quadrature ends at rho = r + eps (sigma = 1), and its
        # time integral there is the time spent in the window
        sol = solve_radial(GeodesicParams(0.3, PI4, 0.1), T=10.0)
        t_exit = sol.exit_time
        assert t_exit is not None and t_exit > sol.entry_time
        assert sol.sigma[0, -1] == 1.0
        assert t_exit == sol.entry_time + sol.cum[0, 0, -1]
        assert float(sol.rho(t_exit)) == pytest.approx(PI4 + 0.1, abs=1e-15)

    def test_windows_at_rest_within_ulps_of_the_exit(self):
        # s = 0.8099999999999999 starts at rest an ulp below r + eps = 0.81,
        # where A(rho) - A(s) rounds to 0: the turning band's mean of A' keeps
        # its window finite, shorter than at s = 0.81 - 1e-15, and near the
        # rest limit t_x = sqrt(2 L A(s) / A'(s)), L = r + eps - s
        sols = list(solve_radial_grid(np.linspace(0.7, 0.82, 25), 0.76, 0.05))
        for sol in sols:
            assert np.all(np.isfinite(sol.window))
            assert np.all(np.isfinite(sol.cum))
        at_rest = next(sol for sol in sols if sol.params.s == 0.8099999999999999)
        assert at_rest.entry_time == 0.0
        t_x = at_rest.exit_time
        farther = solve_radial(GeodesicParams(0.81 - 1e-15, 0.76, 0.05))
        assert 0.0 < t_x < farther.exit_time
        for sol in (at_rest, farther):
            s, r_eps = sol.params.s, 0.76 + 0.05
            limit = math.sqrt(2.0 * (r_eps - s) * sol.a_s / sol.warp.deriv(s))
            assert sol.exit_time == pytest.approx(limit, rel=1e-6)

    @pytest.mark.parametrize("s", [1e-20, 6.464532500880693e-291])
    def test_radial_solve_below_resolution(self, s):
        # the great-circle arc starts the solve, not rho'' ~ cot(s) at rho = s
        sol = solve_radial(GeodesicParams(s, 0.75, 0.0), T=50.0)
        assert sol.rho(0.0) == s
        _, v = sol.state(np.linspace(0.0, 50.0, 1001))
        assert np.all(np.isfinite(v)) and np.all(v >= 0.0)


class TestFarGeodesics:
    def test_exterior_without_overflow(self):
        # at s = 400, A'(s) ~ e^400 / 2 would overflow when squared (rho was
        # nan and rho' 0); at (pi/4, 0), rho = s + log cosh t, rho' = tanh t
        sol = solve_radial(GeodesicParams(400.0, PI4, 0.0), T=12.0)
        ts = np.linspace(0.0, 12.0, 49)
        rho, drho = sol.state(ts)
        assert np.max(np.abs(rho - np.asarray(closed_rho(400.0, ts)))) <= 1e-12
        assert np.max(np.abs(drho - np.tanh(ts))) <= 1e-15

    def test_off_plane_pair_far_out(self):
        # the angle still to sweep, A(s) / (2 p^2) ~ e^{-700}, is formed
        # without squaring p ~ e^700: the off-plane pair matches its closed
        # forms (V was 0 at the first fix of rho alone)
        kernel = make_kernel("perpendicular", GeodesicParams(700.0, PI4, 0.0), horizon=11.0)
        pair = fundamental_pair(kernel, T=10.0)
        ts = np.linspace(0.0, 10.0, 41)
        for traj, closed in ((pair.U, closed_U_perp), (pair.V, closed_V_perp)):
            ref = np.asarray(closed(700.0, ts))
            assert np.max(np.abs(traj.value(ts) - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-13

    def test_A_of_s_past_the_float_range_is_refused(self):
        with pytest.raises(ValueError, match="overflows"):
            solve_radial(GeodesicParams(800.0, PI4, 0.05))


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
        sol = solve_radial(GeodesicParams(s, PI4, 0.0), T=12.5)
        ts = np.linspace(0.0, 12.0, 1201)
        assert np.max(np.abs(sol.theta(ts) - np.asarray(closed_theta(s, ts)))) < 1e-10
        # exact inside the ball, including theta(0) = 0
        inside = ts[ts < sol.entry_time]
        assert np.array_equal(sol.theta(inside), np.arctan2(
            np.sin(inside), math.sin(s) * np.cos(inside)))
        assert sol.theta(0.0) == 0.0

    @pytest.mark.parametrize("s", [PI4, 1.0, 2.0])
    def test_theta_matches_closed_form_from_quarter_pi(self, s):
        sol = solve_radial(GeodesicParams(s, PI4, 0.0), T=12.5)
        ts = np.linspace(0.0, 12.0, 1201)
        assert np.max(np.abs(sol.theta(ts) - np.asarray(closed_theta(s, ts)))) < 1e-10
        assert sol.theta(0.0) == 0.0

    @pytest.mark.parametrize("s", [0.1, 0.3, 1.0])
    def test_phi_is_summed_tail_first(self, s):
        # phi(t) falls like e^{-2t}; theta_inf - theta would leave no digits
        # of it by t ~ 18, the tail-first sum keeps its relative precision
        sol = solve_radial(GeodesicParams(s, PI4, 0.0), T=40.0)
        ts = np.linspace(sol.entry_time or 0.0, 25.0, 500)
        phi = sol.phi(ts)
        assert np.max(np.abs(phi / closed_phi(s, ts) - 1.0)) < 1e-13

    def test_theta_infinity_and_tail_bound(self):
        for s in (0.2, 0.5):
            sol = solve_radial(GeodesicParams(s, PI4, 0.0), T=20.0)
            assert sol.theta_infinity == pytest.approx(theta_infinity(s), abs=1e-11)
            phi = sol.phi(20.0)
            assert phi[0] == pytest.approx(float(closed_phi(s, 20.0)), rel=1e-13)

    def test_theta_defined_inside_transition(self):
        # the horizon 1.2 lies inside the transition; theta, phi and theta_inf
        # are those of the whole geodesic
        params = GeodesicParams(0.1, 0.785, 0.7)
        sol = solved_whole(params, 1.2)
        assert sol.entry_time < 1.2 < sol.exit_time
        assert sol.theta(1.0) == pytest.approx(1.5067783601835019, abs=1e-12)
        assert sol.phi(1.0)[0] == pytest.approx(sol.theta_infinity - sol.theta(1.0), abs=1e-15)
        # so is the off-plane pair, a Killing field in theta
        kernel = make_kernel("perpendicular", params, horizon=1.2)
        pair = fundamental_pair(kernel, T=1.0)
        assert pair.U.value(0.9) == pytest.approx(0.6216122055788812, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            solve_radial(GeodesicParams(0.0, PI4, 0.0), T=5.0).theta(1.0)
        with pytest.raises(ValueError):
            solve_radial(GeodesicParams(0.3, PI4, 0.0), T=5.0).theta(6.0)


class TestExteriorAngle:
    # phi(t) = integral of A(s) / (h^2 + 4 a_+ a_-) over [t, inf), with
    # h = p e^tau + q e^{-tau}, against a 40-digit quadrature in tau from the
    # exterior's own data; 4 a_+ a_- changes sign at r = pi/4 (eps = 0)
    @given(r=st.floats(0.05, 1.5), eps_frac=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
           s=st.floats(0.01, 2.0), tau=st.one_of(st.just(0.0), st.floats(0.0, 25.0)))
    @example(r=0.7, eps_frac=0.5, s=0.75, tau=0.0)   # s = r + eps
    @example(r=0.7, eps_frac=0.5, s=1.2, tau=0.0)    # s > r + eps, t_x = 0
    @example(r=PI4, eps_frac=0.0, s=0.3, tau=0.0)    # 4 a_+ a_- = 0
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_phi_matches_quadrature(self, r, eps_frac, s, tau):
        eps = min(0.1, 0.99 * (math.pi / 2 - r)) * eps_frac
        sol = solve_radial(GeodesicParams(s, r, eps), T=30.0)
        h_x, dh_x = sol.exit[0].tolist()
        with mp.workdps(40):
            p = (mp.mpf(h_x) + mp.mpf(dh_x)) / 2
            q = (mp.mpf(h_x) - mp.mpf(dh_x)) / 2
            d, a_s = mp.mpf(4.0 * sol.warp.a_plus * sol.warp.a_minus), mp.mpf(sol.a_s)

            def rate(x):
                h = p * mp.exp(x) + q * mp.exp(-x)
                return a_s / (h * h + d)

            ref = mp.quad(rate, [tau, tau + 1, tau + 4, tau + 16, mp.inf])
        got = float(sol._exterior_phi(np.array([sol.exit_time + tau]))[0])
        assert abs(got - ref) <= 1e-13 * abs(ref)


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
        sol = solve_ivp(lambda t, y: (y[1], a * (1.0 - y[1] * y[1])), (0.0, 6.0), (s, v),
                        method="DOP853", dense_output=True, rtol=1e-12, atol=1e-15)
        ts = np.linspace(0.0, 6.0, 30)
        x = sol.sol(ts)[0]
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
            sol = solve_radial(GeodesicParams(s, PI4, 0.0), T=12.5)
            rho = np.asarray(sol.rho(ts))
            assert np.max(np.abs(rho - np.asarray(closed_rho(s, ts)))) < 1e-8

    def test_non_trapping_bound(self):
        # the comparison theorem, sampled: each radial coordinate dominates
        # the constant-drift solution for the sampled a <= A'/A, at two fixed
        # metrics and at the scan's (r*, eps), where the scan's verdict is
        # the theorem's proved premise A'(r + eps/2) > 0
        cases = [(PI4, 0.0), (0.73, 0.1)]
        cases += [(find_r_star(eps)[0], eps) for eps in (0.0, 0.01, 0.05, 0.1)]
        ts = np.linspace(0.0, 12.0, 241)
        ss = (0.0, 0.5, 1.0)
        for r, eps in cases:
            warp = solve_warp(ProfileParams(r, eps))
            assert _non_trapping_check(warp)
            a = warp.min_log_slope()
            assert a > 0.0
            for s, sol in zip(ss, solve_radial_grid(ss, r, eps, 12.5)):
                rho = np.asarray(sol.rho(ts))
                bound = np.asarray(comparison_lower_bound(a, s, 0.0, ts))
                assert np.all(rho >= bound - 1e-8)

    def test_monotone_convergence_in_eps(self):
        ts = np.linspace(0.0, 12.0, 600)
        base = np.asarray(solve_radial(GeodesicParams(0.3, PI4, 0.0), T=12.5).rho(ts))
        dists = []
        for eps in (0.1, 0.05, 0.01):
            rho = np.asarray(solve_radial(GeodesicParams(0.3, PI4, eps), T=12.5).rho(ts))
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
        hi = solve_radial(GeodesicParams(s + h, r, eps), T=8.5)
        lo = solve_radial(GeodesicParams(s - h, r, eps), T=8.5)
        mid = solve_radial(GeodesicParams(s, r, eps), T=8.5)
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
