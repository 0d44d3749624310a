"""Jacobi kernels, fundamental pairs, closed forms, and Sturm properties."""

import math

import numpy as np
import pytest

from ahwarp.geodesics import GeodesicParams, entry_time, growth_factor
from ahwarp.jacobi import (
    closed_U_parallel,
    closed_U_perp,
    closed_V_parallel,
    closed_V_perp,
    fundamental_pair,
    jacobi_solution,
    killing_field,
    make_kernel,
    theta,
    theta_infinity,
)
from ahwarp.ode import integrate_ivp

PI4 = math.pi / 4
SQRT2 = math.sqrt(2.0)


def kernel_closed(s, t):
    """Off-plane kernel at (pi/4, 0), straight from the curvature lemmas."""
    if s >= PI4:
        return -1.0 + 2.0 * math.exp(-2.0 * s + math.pi / 2) / math.cosh(t) ** 4
    ell = entry_time(s, PI4)
    if abs(t) <= ell:
        return 1.0
    return -1.0 + 4.0 * math.sin(s) ** 2 * float(growth_factor(abs(t), s)) ** -4


class TestKernel:
    def test_inside_cap(self):
        kern = make_kernel("perpendicular", GeodesicParams(0.3, PI4, 0.0))
        assert kern.value(0.5) == 1.0

    def test_outside_cap_small_s(self):
        # kernel accuracy follows the radial solve tolerance
        kern = make_kernel("perpendicular", GeodesicParams(0.3, PI4, 0.0), tol=1e-12)
        assert kern.value(2.0) == pytest.approx(kernel_closed(0.3, 2.0), abs=1e-10)

    def test_never_entering(self):
        kern = make_kernel("perpendicular", GeodesicParams(1.0, PI4, 0.0))
        assert kern.value(1.0) == pytest.approx(kernel_closed(1.0, 1.0), abs=1e-12)
        expected = -1.0 + 2.0 * math.exp(-2.0 + math.pi / 2) / math.cosh(1.0) ** 4
        assert kern.value(1.0) == pytest.approx(expected, abs=1e-12)

    def test_parallel_kernel_constant_outside(self):
        kern = make_kernel("parallel", GeodesicParams(0.3, PI4, 0.0))
        ts = np.linspace(kern.entry + 1e-9, 15.0, 50)
        assert np.all(np.asarray(kern.value(ts)) == -1.0)

    def test_asymptotically_hyperbolic(self):
        for kind in ("parallel", "perpendicular"):
            kern = make_kernel(kind, GeodesicParams(0.3, 0.76, 0.05))
            assert abs(float(kern.value(20.0)) + 1.0) < 1e-8

    def test_s_zero_perpendicular_is_parallel(self):
        kq = make_kernel("perpendicular", GeodesicParams(0.0, PI4, 0.0))
        kp = make_kernel("parallel", GeodesicParams(0.0, PI4, 0.0))
        ts = np.linspace(0.0, 10.0, 100)
        assert np.array_equal(np.asarray(kq.value(ts)), np.asarray(kp.value(ts)))

    def test_kernel_l1_convergence_in_eps(self):
        ts = np.linspace(1e-6, 12.0, 24001)
        for kind in ("parallel", "perpendicular"):
            k0 = np.asarray(make_kernel(kind, GeodesicParams(0.3, PI4, 0.0),
                                        horizon=13.0).value(ts))
            dists = []
            for eps in (0.1, 0.05, 0.01):
                ke = np.asarray(make_kernel(kind, GeodesicParams(0.3, PI4, eps),
                                            horizon=13.0).value(ts))
                dists.append(np.trapezoid(np.abs(ke - k0), ts))
            assert dists[0] > dists[1] > dists[2]

    def test_jump_height_consistency(self):
        # the off-plane kernel jumps only through K_par: right limit is
        # 1 - 2 rho'(ell)^2 = -1 + 4 sin^2 s at r = pi/4
        s = 0.3
        kern = make_kernel("perpendicular", GeodesicParams(s, PI4, 0.0))
        right = float(kern.value(kern.entry + 1e-12))
        assert right == pytest.approx(-1.0 + 4.0 * math.sin(s) ** 2, abs=1e-8)


class TestFundamentalPair:
    def test_radial_decaying_branch(self):
        # forward integration of a pure-decay solution picks up a growing
        # admixture of size ~tol, so the window is kept moderate
        pair = fundamental_pair(make_kernel("parallel", GeodesicParams(0.0, PI4, 0.0)),
                                T=10.0, tol=1e-11)
        for t in (1.0, 2.0, 5.0):
            expected = (SQRT2 / 2) * math.exp(-(t - PI4))
            assert pair.U.value(t) == pytest.approx(expected, abs=1e-9)

    def test_perp_pair_against_closed_forms(self):
        pair = fundamental_pair(make_kernel("perpendicular", GeodesicParams(0.3, PI4, 0.0),
                                            tol=1e-12),
                                T=10.0, tol=1e-12)
        ts = np.linspace(0.0, 10.0, 400)
        u, _ = pair.U.state(ts)
        v, _ = pair.V.state(ts)
        assert np.max(np.abs(u - np.asarray(closed_U_perp(0.3, ts)))) < 1e-7
        assert np.max(np.abs(v - np.asarray(closed_V_perp(0.3, ts)))) < 1e-7

    def test_outer_family_V(self):
        pair = fundamental_pair(make_kernel("perpendicular", GeodesicParams(1.0, PI4, 0.0),
                                            tol=1e-12),
                                T=10.0, tol=1e-12)
        ts = np.linspace(0.0, 10.0, 200)
        expected = (SQRT2 / 2) * math.exp(1.0 - PI4) * np.cosh(ts) * np.sin(
            SQRT2 * math.exp(-1.0 + PI4) * np.tanh(ts))
        v, _ = pair.V.state(ts)
        assert np.max(np.abs(v - expected)) < 1e-7

    def test_initial_conditions(self):
        pair = fundamental_pair(make_kernel("perpendicular", GeodesicParams(0.5, 0.76, 0.08)),
                                T=5.0, tol=1e-11)
        assert pair.U.value(0.0) == 1.0 and pair.U.deriv(0.0) == 0.0
        assert pair.V.value(0.0) == 0.0 and pair.V.deriv(0.0) == 1.0

    @pytest.mark.parametrize("kind", ["parallel", "perpendicular"])
    @pytest.mark.parametrize("mu", [(0.3, PI4, 0.0), (0.2, 0.76, 0.05), (1.2, PI4, 0.0)])
    def test_wronskian_unit(self, kind, mu):
        tol = 1e-10
        pair = fundamental_pair(make_kernel(kind, GeodesicParams(*mu)), T=20.0, tol=tol)
        ts = np.linspace(0.0, 20.0, 400)
        assert np.max(pair.wronskian_deviation(ts)) < 100 * tol
        # absolute conservation where the bilinear terms are O(1)
        early = np.linspace(0.0, 5.0, 100)
        assert np.max(np.abs(pair.wronskian(early) - 1.0)) < 1e-8

    def test_perp_wronskian_is_exact(self):
        # U = A cos(theta) / A(s), V = A sin(theta): U V' - U' V = A^2 theta' / A(s)
        # = 1 by Clairaut's integral, to rounding (the integrated pair was off
        # by 2.1e-8 here)
        kern = make_kernel("perpendicular", GeodesicParams(0.15636, 0.76038, 0.021519))
        pair = fundamental_pair(kern, T=20.0, tol=1e-10)
        assert np.max(pair.wronskian_deviation(np.linspace(0.0, 20.0, 2001))) <= 1e-12

    def test_perp_solution_is_killing_combination(self):
        # Y(0) = a, Y'(0) = b gives a U + b V, and no ODE is solved for it
        kern = make_kernel("perpendicular", GeodesicParams(0.4, 0.76, 0.05))
        pair = fundamental_pair(kern, T=10.0)
        ts = np.linspace(0.0, 10.0, 101)
        y, dy = jacobi_solution(kern, (2.0, -3.0), T=10.0).state(ts)
        u, du = pair.U.state(ts)
        v, dv = pair.V.state(ts)
        scale = np.abs(2.0 * u) + np.abs(3.0 * v)
        assert np.max(np.abs(y - (2.0 * u - 3.0 * v)) / scale) < 1e-14
        assert np.max(np.abs(dy - (2.0 * du - 3.0 * dv)) / scale) < 1e-14

    def test_off_plane_equation_is_not_integrated(self):
        kern = make_kernel("perpendicular", GeodesicParams(0.3, PI4, 0.0))
        with pytest.raises(ValueError):
            kern.rhs_pieces()
        with pytest.raises(ValueError):
            killing_field(make_kernel("parallel", GeodesicParams(0.3, PI4, 0.0)), 1.0, 0.0, 5.0)
        with pytest.raises(ValueError):
            killing_field(kern, 1.0, 0.0, 60.0)  # beyond the kernel horizon

    def test_smooth_small_s_limit(self):
        # numeric pair at s = 0.001 matches the closed off-plane form, which
        # itself is within 1e-3 of the in-plane form at s = 0
        pair = fundamental_pair(make_kernel("perpendicular", GeodesicParams(0.001, PI4, 0.0),
                                            tol=1e-12),
                                T=5.0, tol=1e-12)
        assert pair.U.value(2.0) == pytest.approx(closed_U_perp(0.001, 2.0), abs=1e-9)
        assert closed_U_perp(0.001, 2.0) == pytest.approx(
            closed_U_parallel(0.0, 2.0), abs=1e-3)


class TestClosedForms:
    def test_U_parallel_junction(self):
        assert closed_U_parallel(0.0, PI4) == pytest.approx(math.cos(PI4), abs=1e-15)

    def test_U_parallel_outside_branch(self):
        s, t = 0.2, 3.0
        ell = entry_time(s, PI4)
        x = t - ell
        expected = math.cos(ell) * math.cosh(x) - math.sin(ell) * math.sinh(x)
        assert closed_U_parallel(s, t) == pytest.approx(expected, rel=1e-13)

    def test_V_parallel_odd(self):
        assert closed_V_parallel(0.2, -3.0) == -closed_V_parallel(0.2, 3.0)

    def test_U_perp_initial(self):
        assert closed_U_perp(PI4, 0.0) == 1.0

    def test_U_perp_formula(self):
        s, t = 0.3, 5.0
        expected = (SQRT2 / 2) / math.sin(s) * float(growth_factor(t, s)) * math.cos(
            2.0 * math.sin(s) * math.sinh(t - entry_time(s, PI4))
            / float(growth_factor(t, s)) + math.acos(math.tan(s)))
        assert closed_U_perp(s, t) == pytest.approx(expected, rel=1e-13)

    def test_perp_forms_require_positive_s(self):
        with pytest.raises(ValueError):
            closed_U_perp(0.0, 1.0)
        with pytest.raises(ValueError):
            closed_V_perp(0.0, 1.0)

    def test_even_odd_symmetry(self):
        ts = np.linspace(-6.0, 6.0, 25)
        for s in (0.2, 1.0):
            assert np.allclose(np.asarray(closed_U_perp(s, ts)),
                               np.asarray(closed_U_perp(s, -ts)), atol=0)
            assert np.allclose(np.asarray(closed_V_perp(s, ts)),
                               -np.asarray(closed_V_perp(s, -ts)), atol=0)

    def test_positivity_of_U_on_grid(self):
        ts = np.linspace(0.0, 20.0, 2001)
        for s in np.arange(0.0, 3.0001, 0.05):
            assert np.all(np.asarray(closed_U_parallel(float(s), ts)) > 0)
            if s > 0:
                assert np.all(np.asarray(closed_U_perp(float(s), ts)) > 0)


class TestTheta:
    def test_infinity_endpoints(self):
        assert abs(theta_infinity(0.0) - math.pi / 2) < 1e-12
        assert abs(theta_infinity(PI4) - SQRT2) < 1e-12

    def test_infinity_formula(self):
        s = 0.3
        expected = math.acos(math.tan(s)) + 2.0 * math.sin(s) / (
            1.0 + math.sqrt(math.cos(2.0 * s)))
        assert theta_infinity(s) == pytest.approx(expected, abs=1e-15)

    def test_infinity_matches_large_t_limit(self):
        s = 0.3
        assert theta_infinity(s) == pytest.approx(float(theta(40.0, s)), abs=1e-12)

    def test_infinity_strictly_decreasing(self):
        grid = np.linspace(0.0, PI4, 200)
        vals = np.array([theta_infinity(float(s)) for s in grid])
        assert np.all(np.diff(vals) < 0)

    def test_infinity_derivative_formula(self):
        s, h = 0.2, 1e-6
        fd = (theta_infinity(s + h) - theta_infinity(s - h)) / (2.0 * h)
        expected = -2.0 * math.sin(s) ** 2 / (
            math.cos(s) * (1.0 + math.sqrt(math.cos(2.0 * s))) ** 2)
        assert fd == pytest.approx(expected, abs=1e-8)

    def test_bounds_and_monotonicity(self):
        # saturation at the float resolution of theta_infinity caps the
        # usable window around t ~ 16; [ell, 12] is well inside it
        for s in np.arange(0.02, PI4 - 0.01, 0.05):
            ell = entry_time(float(s), PI4)
            ts = np.linspace(ell, 12.0, 200)
            th = np.asarray(theta(ts, float(s)))
            assert np.all(th > 0.0)
            assert np.all(th < math.pi / 2)
            assert np.all(np.diff(th) > 0.0)

    def test_minimum_at_entry(self):
        s = 0.3
        assert float(theta(entry_time(s, PI4), s)) == pytest.approx(
            math.acos(math.tan(s)), abs=1e-14)


class TestSturmSeparation:
    @staticmethod
    def _zeros(traj, lo, hi):
        ts = np.linspace(lo, hi, 4001)
        x, _ = traj.state(ts)
        sign_change = np.where(np.sign(x[:-1]) * np.sign(x[1:]) < 0)[0]
        return ts[sign_change]

    def test_zero_interlacing_on_oscillatory_kernel(self):
        # k = 1 up to t = 6, then -1: V oscillates early, U's zeros must
        # separate consecutive zeros of V
        from ahwarp.ode import Break

        rhs_in = lambda t, x, v: -x
        rhs_out = lambda t, x, v: x
        breaks = [Break(6.0, None, rhs_out)]
        U = integrate_ivp(rhs_in, 0.0, (1.0, 0.0), 12.0, 1e-11, breaks=breaks)
        V = integrate_ivp(rhs_in, 0.0, (0.0, 1.0), 12.0, 1e-11, breaks=breaks)
        zu = self._zeros(U, 1e-3, 12.0)
        zv = self._zeros(V, 1e-3, 12.0)
        assert len(zv) >= 2
        for lo, hi in zip(zv[:-1], zv[1:]):
            inside = [z for z in zu if lo < z < hi]
            assert len(inside) == 1

    def test_positive_solution_blocks_double_zeros(self):
        # U stays positive along the critical metric's geodesics, so V can
        # vanish only at t = 0
        pair = fundamental_pair(make_kernel("perpendicular", GeodesicParams(0.4, PI4, 0.0)),
                                T=15.0, tol=1e-10)
        assert len(self._zeros(pair.U, 0.0, 15.0)) == 0
        assert len(self._zeros(pair.V, 1e-3, 15.0)) == 0
