"""Stable solutions, certificates W'(0), derivatives, and the criterion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from ahwarp.geodesics import GeodesicParams, RadialSolution, entry_time
from ahwarp.jacobi import (
    closed_U_perp,
    closed_V_perp,
    make_kernel,
    theta_infinity,
)
from ahwarp.stable import (
    CertificateError,
    certificate,
    certificate_grid,
    certificate_parallel_closed,
    certificate_perp_closed,
    certificate_s_derivatives,
    no_double_zero_criterion,
    radial_certificate_closed,
    radial_stable_closed,
    stable_for,
    stable_solution,
)

PI4 = math.pi / 4
SQRT2 = math.sqrt(2.0)


class TestCriticalRadialSolution:
    def test_value_and_slope_at_zero(self):
        sol = stable_for("parallel", GeodesicParams(0.0, PI4, 0.0), tol=1e-11)
        assert sol.Y0 == pytest.approx(SQRT2 * math.exp(-PI4), abs=1e-9)
        assert abs(sol.W_prime_0) < 1e-9

    def test_profile_matches_closed_form(self):
        sol = stable_for("parallel", GeodesicParams(0.0, PI4, 0.0), tol=1e-11)
        inside = np.linspace(0.0, PI4, 30)
        outside = np.linspace(PI4, 20.0, 60)
        got_in = np.asarray(sol.Y.value(inside))
        got_out = np.asarray(sol.Y.value(outside))
        assert np.max(np.abs(got_in - SQRT2 * math.exp(-PI4) * np.cos(inside))) < 1e-9
        assert np.max(np.abs(got_out - np.exp(-outside))) < 1e-9

    def test_seed_normalization(self):
        # e^t Y(t) -> 1 is taken in closed form; at the horizon it holds to
        # rounding for both kinds
        for mu in [(0.0, PI4, 0.0), (0.2, PI4, 0.0), (0.2, 0.76, 0.05), (0.8, 0.76, 0.05)]:
            for kind in ("parallel", "perpendicular"):
                sol = stable_for(kind, GeodesicParams(*mu), tol=1e-11)
                T = sol.seed_horizon
                assert T == 30.0 and sol.seed_residual == 0.0
                assert abs(math.exp(T) * float(sol.Y.value(T)) - 1.0) <= 1e-14, (kind, mu)


class TestRadialCertificates:
    @pytest.mark.parametrize("r", [0.7, PI4, 0.85])
    def test_backward_integration_matches_closed_form(self, r):
        got = certificate("parallel", GeodesicParams(0.0, r, 0.0))
        assert got == pytest.approx(radial_certificate_closed(r), abs=1e-9)

    def test_sign_tracks_radius(self):
        assert certificate("parallel", GeodesicParams(0.0, 0.7, 0.0)) < 0
        assert certificate("parallel", GeodesicParams(0.0, 0.86, 0.0)) > 0

    @pytest.mark.parametrize("r", [0.7, 0.85])
    def test_stable_profile_closed_form(self, r):
        sol = stable_for("parallel", GeodesicParams(0.0, r, 0.0), tol=1e-11)
        ts = np.linspace(0.0, 15.0, 100)
        assert np.max(np.abs(np.asarray(sol.Y.value(ts))
                             - np.asarray(radial_stable_closed(r, ts)))) < 1e-9


class TestOffRadialCertificates:
    @pytest.mark.parametrize("s", [0.05, 0.1, 0.2, 0.3])
    def test_parallel_closed_form(self, s):
        got = certificate("parallel", GeodesicParams(s, PI4, 0.0))
        assert got == pytest.approx(certificate_parallel_closed(s), abs=1e-8)

    @pytest.mark.parametrize("s", [0.05, 0.1, 0.2, 0.3])
    def test_perp_closed_form(self, s):
        got = certificate("perpendicular", GeodesicParams(s, PI4, 0.0))
        assert got == pytest.approx(certificate_perp_closed(s), abs=1e-8)

    def test_perp_certificate_is_negative(self):
        got = certificate("perpendicular", GeodesicParams(0.2, PI4, 0.0))
        assert got < 0
        assert got == pytest.approx(
            -math.cos(theta_infinity(0.2)) / (math.sin(theta_infinity(0.2)) * math.sin(0.2)),
            abs=1e-8)

    @pytest.mark.parametrize("s", np.round(np.arange(0.01, 0.305, 0.01), 2).tolist())
    def test_tol_1e10_kernel_matches_closed_forms(self, s):
        # at eps = 0 the geodesic is exact, so the angle and the certificate
        # do not depend on the solver tolerance (a tol-1e-10 radial solve was
        # 1.2e-9 off in theta_inf at s = 0.16)
        kernel = make_kernel("perpendicular", GeodesicParams(s, PI4, 0.0), tol=1e-10)
        assert abs(kernel.radial.theta_infinity - theta_infinity(s)) <= 1e-13
        got = stable_solution(kernel).W_prime_0
        assert abs(got - certificate_perp_closed(s)) <= 1e-12

    def test_perp_grid_matches_closed_form_to_rounding(self):
        # at (pi/4, 0) the angle is closed form in the ball and past t_in
        ss = np.round(np.arange(0.0, 0.7801, 0.005), 3)
        for s, (_, got) in zip(ss.tolist(), certificate_grid(ss, PI4, 0.0)):
            closed = certificate_perp_closed(s)
            assert abs(got - closed) <= 1e-13 * max(1.0, abs(closed)), s

    @pytest.mark.parametrize("s", [1e-20, 1e-8])
    @pytest.mark.parametrize("r, eps", [(0.75, 0.0), (0.8, 0.05)])
    def test_perp_certificate_below_resolution(self, s, r, eps):
        # theta_inf rounds to pi/2 - O(s); -cot(theta_inf) / A(s) would
        # amplify its rounding by 1/s.  The limit s -> 0 is the radial
        # certificate (both equations coincide there, W' is even in s)
        got = certificate("perpendicular", GeodesicParams(s, r, eps))
        radial = certificate("parallel", GeodesicParams(0.0, r, eps))
        assert abs(got - radial) <= 1e-10

    def test_stable_solution_reads_no_angle_until_evaluated(self, monkeypatch):
        # the normalization is the exterior's closed-form limit: the Killing
        # field's angle and radius are looked up only when Y is evaluated
        calls = []

        def recording(name):
            method = getattr(RadialSolution, name)

            def fn(self, t):
                calls.append(name)
                return method(self, t)

            monkeypatch.setattr(RadialSolution, name, fn)

        for name in ("phi", "rho", "state"):
            recording(name)
        sol = stable_for("perpendicular", GeodesicParams(0.2345, 0.7654, 0.0321))
        assert calls == []
        assert sol.W(1.0) > 0.0 and calls == ["state", "phi"]

    def test_Y0_matches_closed_form(self):
        # at (s, pi/4, 0), e^t Y -> 1 gives Y(0) = (1 + c) sin(theta_inf)
        # e^{-ell(s)} / sqrt 2 with c = sqrt(cos 2s); normalizing at a
        # fixed horizon instead was up to 4.7e-15 off
        for s in np.linspace(0.005, 0.78, 157).tolist():
            c = math.sqrt(math.cos(2.0 * s))
            exact = (1.0 + c) * math.sin(theta_infinity(s)) * math.exp(-entry_time(s, PI4)) / SQRT2
            got = stable_for("perpendicular", GeodesicParams(s, PI4, 0.0)).Y0
            assert abs(got - exact) <= 2e-15 * exact, s

    def test_horizon_independence_oracle(self):
        # the certificate does not depend on the kernel's horizon
        mu = GeodesicParams(0.2, PI4, 0.0)
        a = stable_for("perpendicular", mu, tol=1e-11).W_prime_0
        b = stable_solution(make_kernel("perpendicular", mu, horizon=40.0, tol=1e-12)).W_prime_0
        assert abs(a - b) < 1e-8

    def test_normalized_profile_matches_stable_combination(self):
        # W = U_perp - csc(s) cot(theta_inf(s)) V_perp, normalized W(0) = 1
        s = 0.5
        sol = stable_for("perpendicular", GeodesicParams(s, PI4, 0.0), tol=1e-11)
        beta = -1.0 / math.tan(theta_infinity(s)) / math.sin(s)
        ts = np.linspace(0.0, 10.0, 200)
        expected = np.asarray(closed_U_perp(s, ts)) + beta * np.asarray(closed_V_perp(s, ts))
        assert np.max(np.abs(np.asarray(sol.W(ts)) - expected)) < 1e-6
        assert sol.W_prime_0 == pytest.approx(beta, abs=1e-6)


class TestSeedingConsistency:
    @pytest.mark.parametrize("kind", ["parallel", "perpendicular"])
    @pytest.mark.parametrize("mu", [(0.0, PI4, 0.0), (0.2, PI4, 0.0), (0.2, 0.76, 0.05)])
    def test_horizon_shift_is_negligible(self, kind, mu):
        params = GeodesicParams(*mu)
        a = stable_for(kind, params, tol=1e-10).W_prime_0
        b = stable_solution(make_kernel(kind, params, horizon=40.0, tol=1e-12),
                            kind=kind).W_prime_0
        assert abs(a - b) < 1e-9

    def test_parallel_seeding_is_exact(self):
        sol = stable_for("parallel", GeodesicParams(0.2, PI4, 0.0), tol=1e-10)
        assert sol.seed_residual == 0.0

    @pytest.mark.parametrize("mu", [(0.2, PI4, 0.0), (0.2, 0.76, 0.05)])
    def test_perpendicular_seeding_is_exact(self, mu):
        # the angle past the transition is closed form: no tail is dropped
        sol = stable_for("perpendicular", GeodesicParams(*mu), tol=1e-10)
        assert sol.seed_residual == 0.0

    @pytest.mark.parametrize("kind", ["parallel", "perpendicular"])
    def test_tol_tighter_than_the_radial_solve_is_refused(self, kind):
        # stable solutions ride on a radial solve at 1e-12; a tighter tol
        # cannot be met and raises instead of solving tighter
        params = GeodesicParams(0.2, 0.76, 0.05)
        with pytest.raises(ValueError, match="tighter than the radial solve's 1e-12"):
            stable_for(kind, params, tol=1e-13)
        at_floor = stable_for(kind, params, tol=1e-12).W_prime_0
        assert stable_for(kind, params, tol=1e-10).W_prime_0 == at_floor


def _linear_seeded_certificate(kernel, T=40.0, tol=1e-11):
    """Reference W'(0): the linear Jacobi equation Y'' = -k(t) Y, with k read
    from JacobiKernel.value, seeded with (e^{-T}, -e^{-T}) and integrated
    backward by scipy's DOP853, one decreasing span per region so no step
    straddles a region boundary; past a boundary k is read strictly right of
    it (value() returns the inside value at a sharp junction)."""
    bounds = sorted({b for b in kernel.radial.window if b > 0.0})
    edges = [T, *reversed(bounds), 0.0]
    seed = math.exp(-T)
    y = np.array([seed, -seed])
    for hi, lo in zip(edges[:-1], edges[1:]):
        k_from = math.nextafter(lo, math.inf) if lo > 0.0 else 0.0

        def rhs(t, z, k_from=k_from):
            return z[1], -float(kernel.value(max(t, k_from))) * z[0]

        sol = solve_ivp(rhs, (hi, lo), y, method="DOP853", rtol=tol, atol=tol * 1e-3)
        assert sol.status == 0, sol.message
        y = sol.y[:, -1]
    return y[1] / y[0]


class TestRiccatiAgainstLinear:
    @given(
        kind=st.sampled_from(["parallel", "perpendicular"]),
        s=st.floats(0.0, 0.7),
        r=st.floats(0.7, 0.85),
        eps=st.one_of(st.just(0.0), st.floats(0.005, 0.1)),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_certificates_agree(self, kind, s, r, eps):
        kernel = make_kernel(kind, GeodesicParams(s, r, eps), tol=1e-11)
        riccati = stable_solution(kernel).W_prime_0
        linear = _linear_seeded_certificate(kernel)
        assert abs(riccati - linear) <= 1e-8 * abs(linear)


class TestVanishingStableSolution:
    def test_zero_of_Y_is_a_certificate_error(self):
        with pytest.raises(CertificateError, match=r"s=1\.4, r=1\.5, eps=0\.0"):
            stable_for("perpendicular", GeodesicParams(1.4, 1.5, 0.0), tol=1e-10)

    def test_zero_in_the_window_is_a_certificate_error(self, monkeypatch):
        # Y = e^{-t} at t_x; with a transfer matrix M (det 1) whose
        # adj(M) (1, -1) has a nonpositive first entry, Y(t_in) <= 0 and the
        # stable solution vanishes in the window
        kernel = make_kernel("parallel", GeodesicParams(0.2, 0.76, 0.05))
        monkeypatch.setattr(RadialSolution, "transfer",
                            property(lambda self: np.array([[1.0, -2.0], [0.0, 1.0]])))
        with pytest.raises(CertificateError, match=r"vanishes.*Y\(t_in\) = -"):
            stable_solution(kernel)

    def test_window_of_pi_or_longer_is_refused(self, monkeypatch):
        # the zero test rests on Sturm comparison with Y'' = -Y, which puts
        # two zeros at least pi apart: it needs a window shorter than pi
        kernel = make_kernel("parallel", GeodesicParams(0.2, 0.76, 0.05))
        monkeypatch.setattr(RadialSolution, "window", property(lambda self: (0.5, 0.5 + math.pi)))
        with pytest.raises(CertificateError, match="not shorter than pi"):
            stable_solution(kernel)


class TestBelowResolution:
    @pytest.mark.parametrize("kind", ["parallel", "perpendicular"])
    @pytest.mark.parametrize("s", [0.0, 0.3, 0.5, 1.2])
    def test_eps_below_resolution_of_r_is_the_sharp_metric(self, kind, s):
        # r + eps == r: nothing is integrated, and the stable solution is
        # the sharp metric's bit for bit (the window solve of s = 0, and of
        # s < r, had an empty span)
        sharp = stable_for(kind, GeodesicParams(s, 1.0, 0.0))
        tiny = stable_for(kind, GeodesicParams(s, 1.0, 1e-140))
        assert (tiny.Y0, tiny.W_prime_0) == (sharp.Y0, sharp.W_prime_0)


class TestPositivity:
    @pytest.mark.parametrize("kind", ["parallel", "perpendicular"])
    @pytest.mark.parametrize("mu", [(0.0, PI4, 0.0), (0.1, PI4, 0.0),
                                    (0.2, 0.76, 0.05), (0.1, 0.8, 0.02)])
    def test_W_positive(self, kind, mu):
        sol = stable_for(kind, GeodesicParams(*mu), tol=1e-10)
        ts = np.linspace(0.0, 20.0, 400)
        assert np.all(np.asarray(sol.W(ts)) > 0.0)


class TestSDerivatives:
    def test_stencils_on_closed_certificate(self):
        # closed-form path: both one-sided stencils applied to the exact
        # parallel certificate (f ~ -s^2/2 - s^4/3 near 0)
        h = 5e-3
        f = [certificate_parallel_closed(i * h) for i in range(4)]
        d1 = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
        d2 = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h ** 2
        assert abs(d1) < 1e-6
        assert d2 == pytest.approx(-1.0, abs=1e-3)

    def test_integrated_derivatives_critical(self):
        d1, d2 = certificate_s_derivatives(
            "perpendicular", GeodesicParams(0.0, PI4, 0.0))
        assert abs(d1) < 1e-6
        assert d2 == pytest.approx(-1.0 / 3.0, abs=5e-3)
        d1p, d2p = certificate_s_derivatives(
            "parallel", GeodesicParams(0.0, PI4, 0.0))
        assert abs(d1p) < 1e-6
        assert d2p == pytest.approx(-1.0, abs=5e-3)

    @pytest.mark.parametrize("kind", ["parallel", "perpendicular"])
    def test_mollified_concavity(self, kind):
        d1, d2 = certificate_s_derivatives(
            kind, GeodesicParams(0.0, 0.7604650677456171, 0.05))
        assert abs(d1) < 5e-3
        assert d2 < 0.0

    def test_requires_zero_s(self):
        with pytest.raises(ValueError):
            certificate_s_derivatives("parallel", GeodesicParams(0.1, PI4, 0.0))


class TestCriterion:
    def test_critical_boundary_case(self):
        v = no_double_zero_criterion("parallel", GeodesicParams(0.0, PI4, 0.0))
        assert v.verdict == "no-double-zeros"
        assert v.marginal

    def test_subcritical(self):
        v = no_double_zero_criterion("parallel", GeodesicParams(0.0, 0.7, 0.0))
        assert v.verdict == "no-double-zeros"
        assert not v.marginal

    def test_supercritical(self):
        v = no_double_zero_criterion("parallel", GeodesicParams(0.0, 0.86, 0.0))
        assert v.verdict == "double-zero-exists"
        assert not v.marginal


class TestEpsContinuity:
    @pytest.mark.parametrize("s", [0.0, 0.2])
    def test_certificate_converges_monotonically(self, s):
        base = certificate("perpendicular", GeodesicParams(s, PI4, 0.0))
        dists = []
        for eps in (0.1, 0.05, 0.01):
            got = certificate("perpendicular", GeodesicParams(s, PI4, eps))
            dists.append(abs(got - base))
        assert dists[0] > dists[1] > dists[2]
