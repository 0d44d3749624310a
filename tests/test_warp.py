"""Curvature profile, mollifier, warp function, and exterior coefficients."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import ahwarp.warp as warp_mod
from ahwarp.warp import (
    ProfileParams,
    entry_slope,
    k_parallel,
    k_perp,
    mollifier,
    solve_warp,
)

PI4 = math.pi / 4
# Half-width of the r window and largest mollification width of the
# parameter grids here; keeps r + eps < pi/2 with a comfortable margin.
ETA = 0.15
EPS0 = 0.15
R_GRID = (PI4 - ETA, 0.7, PI4, 0.85, PI4 + ETA)


def reference_warp(r, eps):
    """The transition of the warp function by an independent 2-state solve
    in x = rho - r from (sin r, cos r), at rtol 1e-14 (scipy raises it to
    2.2e-14) in steps of at most eps/400: the dense output of (A, A') in x
    and (a+, a-) from its end state."""
    def rhs(x, y):
        return y[1], -(1.0 - 2.0 * mollifier(float(x) / eps)) * y[0]

    sol = solve_ivp(rhs, (0.0, eps), (math.sin(r), math.cos(r)), method="DOP853",
                    rtol=1e-14, atol=1e-16, max_step=eps / 400, first_step=eps / 400,
                    dense_output=True)
    a, da = sol.y[:, -1]
    return sol.sol, (math.exp(-(r + eps)) * (a + da) / 2, math.exp(r + eps) * (a - da) / 2)


class TestMollifier:
    def test_support(self):
        assert mollifier(-1.0) == 0.0
        assert mollifier(2.0) == 1.0
        assert mollifier(0.0) == 0.0
        assert mollifier(1.0) == 1.0

    def test_midpoint(self):
        # symmetric construction: phi(x) + phi(1-x) = 1
        assert mollifier(0.5) == pytest.approx(0.5, abs=1e-15)

    @given(st.floats(-2.0, 3.0), st.floats(-2.0, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_and_bounded(self, x, y):
        fx, fy = mollifier(x), mollifier(y)
        assert 0.0 <= fx <= 1.0
        if x <= y:
            assert fx <= fy

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, x):
        assert mollifier(x) + mollifier(1.0 - x) == pytest.approx(1.0, abs=1e-12)


class TestProfile:
    def test_sharp_profile_values(self):
        p = ProfileParams(PI4, 0.0)
        assert k_parallel(p, 0.5) == 1.0
        assert k_parallel(p, 1.0) == -1.0
        # H(0) = 0 convention: value 1 exactly at the jump
        assert k_parallel(p, PI4) == 1.0

    def test_mollified_midpoint(self):
        p = ProfileParams(PI4, 0.1)
        assert k_parallel(p, PI4 + 0.05) == pytest.approx(0.0, abs=1e-14)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            k_parallel(ProfileParams(PI4, 0.0), -0.1)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ProfileParams(-0.1, 0.0)
        with pytest.raises(ValueError):
            ProfileParams(1.0, -0.01)
        with pytest.raises(ValueError):
            ProfileParams(1.5, 0.1)  # r + eps >= pi/2


class TestSolveWarp:
    def test_critical_coefficients(self):
        w = solve_warp(ProfileParams(PI4, 0.0))
        assert abs(w.a_minus) < 1e-14
        assert abs(w.a_plus - (math.sqrt(2) / 2) * math.exp(-PI4)) < 1e-14

    def test_sharp_coefficients_against_linear_matching(self):
        # independent oracle: solve the 2x2 C^1 matching system at rho = r
        r = 0.7
        w = solve_warp(ProfileParams(r, 0.0))
        M = np.array([[math.exp(r), math.exp(-r)],
                      [math.exp(r), -math.exp(-r)]])
        a = np.linalg.solve(M, [math.sin(r), math.cos(r)])
        assert w.a_plus == pytest.approx(a[0], abs=1e-15)
        assert w.a_minus == pytest.approx(a[1], abs=1e-15)
        assert w.a_minus == pytest.approx(math.exp(r) * (math.sin(r) - math.cos(r)) / 2, abs=1e-15)

    @pytest.mark.parametrize("r", [0.7, PI4])
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.15])
    def test_initial_conditions(self, r, eps):
        w = solve_warp(ProfileParams(r, eps))
        assert w.value(0.0) == 0.0
        assert w.deriv(0.0) == 1.0

    @pytest.mark.parametrize("eps", [0.05, 0.15])
    def test_c1_matching_at_junctions(self, eps):
        tol = 1e-12
        w = solve_warp(ProfileParams(PI4, eps))
        for junction in (PI4, PI4 + eps):
            lo, hi = junction - 1e-13, junction + 1e-13
            assert abs(w.value(lo) - w.value(hi)) < 100 * tol
            assert abs(w.deriv(lo) - w.deriv(hi)) < 100 * tol

    @pytest.mark.filterwarnings("ignore:At least one element of `rtol` is too small")
    @given(r=st.floats(0.05, 1.45), eps=st.floats(0.0, 0.1, exclude_min=True,
                                                   allow_subnormal=False))
    @example(r=1.0, eps=0.01)  # the warp solve in rho was 1.0e-8 off in a- here
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_transition_pair_against_independent_solve(self, r, eps):
        # a+- and (A, A') across the window are projections of the transition
        # pair; an eps below the resolution of r is the sharp metric
        w = solve_warp(ProfileParams(r, eps))
        dense, (a_plus, a_minus) = reference_warp(r, eps)
        assert abs(w.a_plus - a_plus) <= 1e-12
        assert abs(w.a_minus - a_minus) <= 1e-12
        rho = np.linspace(r, r + eps, 41)
        # r + eps - r may pass eps by an ulp of r, past the reference's
        # last step, which may be far shorter than that
        for got, ref in zip(w.state(rho), dense(np.minimum(rho - r, eps))):
            assert np.max(np.abs(got - ref)) <= 1e-12

    def test_eps_below_resolution_of_r_is_sharp(self):
        # r + eps == r: no transition and the sharp coefficients bit for bit
        sharp = solve_warp(ProfileParams(1.0, 0.0))
        for eps in (1e-140, 5e-324, 1e-17):
            w = solve_warp(ProfileParams(1.0, eps))
            assert (w.a_plus, w.a_minus) == (sharp.a_plus, sharp.a_minus)
            assert w._transition is None
        # a resolved eps holds its transition as one array of node values
        w = solve_warp(ProfileParams(1.0, 1e-15))
        assert w._transition.shape == (4, warp_mod._PANELS, warp_mod._GAUSS)

    @pytest.mark.filterwarnings("ignore:At least one element of `rtol` is too small")
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1])
    def test_entry_slope_against_backward_solve(self, eps):
        # w(eps) is W = Y'/Y at x = 0 of the solution with (Y, Y') = (1, -1)
        # at x = eps; here that solution is solved backward from x = eps, in
        # z = eps - x, by a 2-state solve of its own
        def rhs(z, y):
            return y[1], -(1.0 - 2.0 * mollifier(float(eps - z) / eps)) * y[0]

        sol = solve_ivp(rhs, (0.0, eps), (1.0, 1.0), method="DOP853", rtol=1e-14,
                        atol=1e-16, max_step=eps / 400, first_step=eps / 400)
        y, dz = sol.y[:, -1]
        assert abs(entry_slope(eps) - (-dz / y)) <= 1e-13

    def test_entry_slope_of_the_sharp_metric(self):
        # no transition: the exterior decay e^{-x} meets the ball at r, and
        # r* = -arctan w(0) = pi/4 exactly
        assert entry_slope(0.0) == -1.0
        assert -math.atan(entry_slope(0.0)) == PI4

    def test_positivity_on_grid(self):
        rho = np.linspace(1e-3, 20.0, 800)
        for r in R_GRID:
            for eps in (0.0, 0.05, EPS0):
                w = solve_warp(ProfileParams(r, eps))
                val, der = w.state(rho)
                assert np.all(val > 0)
                assert np.all(der > 0)
                assert w.a_plus > 0

    def test_coefficient_convergence_as_eps_vanishes(self):
        for r in (0.7, PI4, 0.9):
            w0 = solve_warp(ProfileParams(r, 0.0))
            dp, dm = [], []
            for eps in (0.1, 0.05, 0.01, 0.005):
                w = solve_warp(ProfileParams(r, eps))
                dp.append(abs(w.a_plus - w0.a_plus))
                dm.append(abs(w.a_minus - w0.a_minus))
            assert dp[0] > dp[1] > dp[2] > dp[3]
            assert dm[0] > dm[1] > dm[2] > dm[3]

    def test_log_slope_lower_bound(self):
        rho = np.linspace(1e-3, 25.0, 1000)
        for r in R_GRID:
            for eps in (0.0, 0.1):
                w = solve_warp(ProfileParams(r, eps))
                a = w.min_log_slope()
                assert a > 0
                assert np.all(np.asarray(w.log_slope(rho)) >= a - 1e-12)

    @pytest.mark.parametrize("r", R_GRID)
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, EPS0])
    def test_min_log_slope_is_the_infimum(self, r, eps):
        # a dense sample of the window, refined around its least value, with
        # the exterior's limit 1: the exact infimum lies at or below it, and
        # within 1e-12 of it.  Each value of A'/A on the dense output is
        # rounded: 1,000 values 1e-14 apart at the minimum spread over 2 to 3
        # ulps (4 to 5 with the pair solved per eps, whose minimum sat 2 ulps
        # above a 40,001-point sample at (0.85, 0.01)), so the least sample
        # may fall up to that far below the value at the true minimizer
        w = solve_warp(ProfileParams(r, eps))
        a = w.min_log_slope()
        rho = np.linspace(r, r + eps, 4001)
        i = int(np.argmin(w.log_slope(rho)))
        fine = np.linspace(rho[max(i - 1, 0)], rho[min(i + 1, 4000)], 4001)
        sampled = min(float(np.min(w.log_slope(fine))), 1.0)
        assert a <= sampled + 4.0 * np.spacing(sampled)
        assert sampled - a <= 1e-12

    def test_scalar_matches_vector_path(self):
        # a float and an array take the same numpy path; they agree to a few
        # ulps, and so does k_parallel built on it
        params = ProfileParams(0.76, 0.08)
        xs = np.concatenate([[-1.0, 0.0, 1e-3, 0.5, 1.0, 2.0], np.linspace(0.01, 0.99, 99)])
        vector = np.asarray(mollifier(xs))
        for x, ref in zip(xs.tolist(), vector):
            got = mollifier(x)
            assert type(got) is float
            assert got == pytest.approx(ref, rel=4e-16, abs=1e-300)
        rhos = 0.76 + 0.08 * xs
        for rho, ref in zip(rhos.tolist(), np.asarray(k_parallel(params, rhos))):
            assert k_parallel(params, rho) == pytest.approx(ref, rel=4e-16, abs=4e-16)
        assert k_parallel(ProfileParams(0.76, 0.0), 0.76) == 1.0
        assert k_parallel(ProfileParams(0.76, 0.0), 0.77) == -1.0

    def test_scalar_and_vector_paths_agree_bitwise_at_the_ends(self):
        # x is clipped to [1e-300, 1 - 1e-16], where the two exponentials
        # give the exact 0 and 1 of the ends, for a float as for an array;
        # below 1e-300 exp(-1/x) is 0 either way
        xs = [-1.0, 0.0, -0.0, 5e-324, 1e-300, float(np.nextafter(1.0, 0.0)), 1.0, 2.0]
        vector = np.asarray(mollifier(np.array(xs)))
        for x, ref in zip(xs, vector):
            got = mollifier(x)
            assert np.float64(got).view(np.int64) == ref.view(np.int64), x


def direct_pair(eps):
    """C (C(0) = 1, C'(0) = 0) and S (S(0) = 0, S'(0) = 1) of the transition
    by a 4-state solve in x on [0, eps], at rtol 1e-14 (scipy raises it to
    2.2e-14) in steps of at most eps/400: scipy's solution object."""
    def rhs(x, y):
        k = 1.0 - 2.0 * mollifier(float(x) / eps)
        return y[1], -k * y[0], y[3], -k * y[2]

    return solve_ivp(rhs, (0.0, eps), (1.0, 0.0, 0.0, 1.0), method="DOP853", rtol=1e-14,
                     atol=1e-16, max_step=eps / 400, first_step=eps / 400, dense_output=True)


class TestInterpolatedPair:
    # The largest difference from the direct solve, per eps, of the pair at
    # x = eps and of (A, A') on 41 points of the window, measured when the
    # test was written; each bound is 10 times it.  The direct solve's own
    # error (rtol 2.2e-14) is most of it: the pair interpolated in lam from
    # a DOP853 solve differed by up to 1.3e-14 and 7.0e-14
    @pytest.mark.filterwarnings("ignore:At least one element of `rtol` is too small")
    @pytest.mark.parametrize("eps, r, measured", [
        (1e-6, PI4, (2.3e-16, 5.6e-16)),
        (0.05, PI4, (4.5e-16, 8.9e-16)),
        (0.5, 0.3, (1.2e-15, 1.5e-15)),
        (1.2, 0.3, (1.8e-15, 2.0e-15)),
        (0.7, 0.3, (1.4e-15, 2.0e-15)),
        (1.0, 0.3, (7.1e-16, 2.0e-15)),
        (1.45, 0.1, (6.7e-16, 2.5e-15)),
    ])
    def test_against_direct_solve_in_x(self, eps, r, measured):
        # the pair's series in lam = eps^2 against a solve in x of its own,
        # up to lam = 2.1
        sol = direct_pair(eps)
        c1, dc, s, ds1 = warp_mod._pair_end(eps)
        got = np.array((1.0 + c1, dc, s, 1.0 + ds1))
        assert np.max(np.abs(got - sol.y[:, -1])) <= 10.0 * measured[0]
        w = solve_warp(ProfileParams(r, eps))
        rho = np.linspace(r, r + eps, 41)
        c, dc, s, ds = sol.sol(np.minimum(rho - r, eps))
        ref = (math.sin(r) * c + math.cos(r) * s, math.sin(r) * dc + math.cos(r) * ds)
        for got, want in zip(w.state(rho), ref):
            assert np.max(np.abs(got - want)) <= 10.0 * measured[1]

    def test_eighteen_terms_against_twenty_four(self):
        # six more terms of the series leave the pair, at 101 points of the
        # window and at its end, for eps up to pi/2, as it is: the sums were
        # equal bit for bit when this test was written
        u = np.linspace(0.0, 1.0, 101)
        for eps in (1e-6, 0.01, 0.05, 0.1, 0.5, 1.0, 1.2, 1.5, 1.57):
            lam = eps * eps
            pairs, ends = [], []
            for at_nodes, at_end in (warp_mod._terms(), warp_mod._terms(24)):
                rows = warp_mod._interpolate(warp_mod._sum(lam, at_nodes), u)
                pairs.append(warp_mod._pair(eps, rows, eps * u))
                ends.append(warp_mod._pair(eps, warp_mod._sum(lam, at_end), eps))
            assert np.max(np.abs(np.array(pairs[0]) - np.array(pairs[1]))) <= 1e-16, eps
            assert np.max(np.abs(np.array(ends[0]) - np.array(ends[1]))) <= 1e-16, eps

    def test_eps_out_of_range_is_refused(self):
        for eps in (-1e-3, math.pi / 2, math.inf, math.nan):
            with pytest.raises(ValueError, match="eps must lie"):
                entry_slope(eps)


class TestBarycentricLookup:
    def test_reproduces_a_smooth_function(self):
        # cos(3u) from its values at the nodes, at random points: the
        # barycentric formula keeps it to a few ulps (the Legendre
        # coefficients by the discrete transform were 2.1e-15 off)
        u = np.random.default_rng(20041).random(5000)
        got = warp_mod._interpolate(np.cos(3.0 * warp_mod._U), u)
        assert np.max(np.abs(got - np.cos(3.0 * u))) <= 1e-15

    @pytest.mark.parametrize("eps", [0.05, 1.2])
    def test_node_values_at_the_nodes(self, eps):
        # at the 320 node u the lookup gives the metric's node values: bit
        # for bit where u maps onto a node exactly (19 of them), and within
        # rounding where it falls an ulp beside one; no division by zero
        values = solve_warp(ProfileParams(0.3, eps))._transition
        assert values.shape == (4, warp_mod._PANELS, warp_mod._GAUSS)
        u = warp_mod._U.ravel()
        z = u * warp_mod._PANELS
        hit = (2.0 * (z - np.floor(z)) - 1.0)[:, None] == warp_mod._XI
        assert np.count_nonzero(hit) == 19
        hit = hit.any(axis=1)
        got, want = warp_mod._interpolate(values, u), values.reshape(4, -1)
        assert np.array_equal(got[:, hit], want[:, hit])
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.max(np.abs(got - want) / scale) <= 1e-15


class TestKPerp:
    def test_at_cap_boundary(self):
        # limit from the round interior equals the exterior closed form
        w = solve_warp(ProfileParams(PI4, 0.0))
        assert k_perp(w, PI4) == pytest.approx(1.0, abs=1e-12)
        exterior = -1.0 + 2.0 * math.exp(-2.0 * (PI4 - PI4))
        assert exterior == 1.0

    def test_asymptotically_hyperbolic(self):
        w = solve_warp(ProfileParams(PI4, 0.0))
        assert abs(k_perp(w, 15.0) + 1.0) < 1e-8

    def test_exterior_closed_form(self):
        w = solve_warp(ProfileParams(PI4, 0.0))
        rho = np.linspace(1.0, 10.0, 50)
        expected = -1.0 + 2.0 * np.exp(-2.0 * (rho - PI4))
        assert np.max(np.abs(np.asarray(k_perp(w, rho)) - expected)) < 1e-12

    def test_round_inside(self):
        w = solve_warp(ProfileParams(0.7, 0.1))
        assert k_perp(w, 0.3) == pytest.approx(1.0, abs=1e-14)

    def test_origin_rejected(self):
        w = solve_warp(ProfileParams(PI4, 0.0))
        with pytest.raises(ValueError):
            k_perp(w, 0.0)


class TestNegativeCurvatureThreshold:
    def test_critical_value(self):
        w = solve_warp(ProfileParams(PI4, 0.0))
        assert w.negative_curvature_threshold() == pytest.approx(
            PI4 + math.log(2.0) / 2.0, abs=1e-13)

    def test_sign_scan(self):
        for r, eps in ((PI4, 0.0), (0.76, 0.05)):
            p = ProfileParams(r, eps)
            w = solve_warp(p)
            rho0 = w.negative_curvature_threshold()
            grid = np.linspace(rho0 + 1e-9, rho0 + 12.0, 3000)
            assert np.all(np.asarray(k_parallel(p, grid)) < 0)
            assert np.all(np.asarray(k_perp(w, grid)) < 0)
            assert float(k_perp(w, rho0 - 1e-6)) >= 0.0
