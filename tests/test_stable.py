"""Stable solutions, certificates W'(0), derivatives, and the criterion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ahwarp.stable as stable_mod
from ahwarp.geodesics import GeodesicParams
from ahwarp.jacobi import (
    closed_U_perp,
    closed_V_perp,
    make_kernel,
    theta_infinity,
)
from ahwarp.ode import Break, integrate_backward
from ahwarp.stable import (
    CertificateError,
    certificate,
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
        sol = stable_for("parallel", GeodesicParams(0.0, PI4, 0.0), tol=1e-11)
        T = sol.seed_horizon
        assert abs(math.exp(T) * float(sol.Y.value(T)) - 1.0) <= sol.seed_residual + 1e-12


class TestRadialCertificates:
    @pytest.mark.parametrize("r", [0.7, PI4, 0.85])
    def test_backward_integration_matches_closed_form(self, r):
        got = certificate("parallel", GeodesicParams(0.0, r, 0.0), tol=1e-11)
        assert got == pytest.approx(radial_certificate_closed(r), abs=1e-9)

    def test_sign_tracks_radius(self):
        assert certificate("parallel", GeodesicParams(0.0, 0.7, 0.0), tol=1e-10) < 0
        assert certificate("parallel", GeodesicParams(0.0, 0.86, 0.0), tol=1e-10) > 0

    @pytest.mark.parametrize("r", [0.7, 0.85])
    def test_stable_profile_closed_form(self, r):
        sol = stable_for("parallel", GeodesicParams(0.0, r, 0.0), tol=1e-11)
        ts = np.linspace(0.0, 15.0, 100)
        assert np.max(np.abs(np.asarray(sol.Y.value(ts))
                             - np.asarray(radial_stable_closed(r, ts)))) < 1e-9


class TestOffRadialCertificates:
    @pytest.mark.parametrize("s", [0.05, 0.1, 0.2, 0.3])
    def test_parallel_closed_form(self, s):
        got = certificate("parallel", GeodesicParams(s, PI4, 0.0), tol=1e-11)
        assert got == pytest.approx(certificate_parallel_closed(s), abs=1e-8)

    @pytest.mark.parametrize("s", [0.05, 0.1, 0.2, 0.3])
    def test_perp_closed_form(self, s):
        got = certificate("perpendicular", GeodesicParams(s, PI4, 0.0), tol=1e-11)
        assert got == pytest.approx(certificate_perp_closed(s), abs=1e-8)

    def test_perp_certificate_is_negative(self):
        got = certificate("perpendicular", GeodesicParams(0.2, PI4, 0.0), tol=1e-11)
        assert got < 0
        assert got == pytest.approx(
            -math.cos(theta_infinity(0.2)) / (math.sin(theta_infinity(0.2)) * math.sin(0.2)),
            abs=1e-8)

    def test_horizon_independence_oracle(self):
        # backward integration at T in {30, 40} agrees to 1e-8
        mu = GeodesicParams(0.2, PI4, 0.0)
        a = stable_for("perpendicular", mu, tol=1e-11, T0=30.0).W_prime_0
        b = stable_for("perpendicular", mu, tol=1e-11, T0=40.0).W_prime_0
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
        a = stable_for(kind, params, tol=1e-10, T0=30.0).W_prime_0
        b = stable_for(kind, params, tol=1e-10, T0=40.0).W_prime_0
        assert abs(a - b) < 1e-9

    def test_parallel_seeding_is_exact(self):
        sol = stable_for("parallel", GeodesicParams(0.2, PI4, 0.0), tol=1e-10)
        assert sol.seed_residual == 0.0


def _linear_seeded_certificate(kernel, T=40.0, tol=1e-11):
    """Reference W'(0): the linear Jacobi equation Y'' = -k(t) Y, with k read
    from JacobiKernel.value, seeded with (e^{-T}, -e^{-T}) and integrated
    backward.  A break at each region boundary keeps steps off the jump;
    past a boundary k is read strictly right of it (value() returns the
    inside value at a sharp junction)."""

    def branch(lo):
        def rhs(t, x, v):
            return -float(kernel.value(max(t, lo))) * x

        return rhs

    bounds = sorted({b for b in (kernel.entry, kernel.exit) if b is not None and b > 0.0})
    breaks = [Break(b, None, branch(math.nextafter(b, math.inf))) for b in bounds]
    seed = math.exp(-T)
    traj = integrate_backward(branch(0.0), T, (seed, -seed), 0.0, tol, breaks=breaks)
    return traj.deriv(0.0) / traj.value(0.0)


class TestRiccatiAgainstLinear:
    @given(
        kind=st.sampled_from(["parallel", "perpendicular"]),
        # 0 < s < 1e-15 is left out: solve_radial itself fails there (see
        # test_radial_solve_below_resolution_fails)
        s=st.one_of(st.just(0.0), st.floats(1e-6, 0.7)),
        r=st.floats(0.7, 0.85),
        eps=st.one_of(st.just(0.0), st.floats(0.005, 0.1)),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_certificates_agree(self, kind, s, r, eps):
        kernel = make_kernel(kind, GeodesicParams(s, r, eps), tol=1e-11)
        riccati = stable_solution(kernel, tol=1e-11).W_prime_0
        linear = _linear_seeded_certificate(kernel)
        assert abs(riccati - linear) <= 1e-8 * abs(linear)


class TestOneBackwardSolve:
    @pytest.mark.parametrize("kind, mu", [
        ("parallel", (0.0, PI4, 0.0)),
        ("parallel", (0.2, 0.76, 0.05)),
        ("perpendicular", (0.2, PI4, 0.0)),
        ("perpendicular", (0.3, PI4, 0.05)),
    ])
    def test_single_integrate_backward_call(self, monkeypatch, kind, mu):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return integrate_backward(*args, **kwargs)

        monkeypatch.setattr(stable_mod, "integrate_backward", counting)
        kernel = make_kernel(kind, GeodesicParams(*mu))
        sol = stable_solution(kernel, tol=1e-10)
        # the off-plane stable solution is a Killing field: nothing to solve
        assert calls == ([sol.seed_horizon] if kind == "parallel" else [])
        assert sol.seed_residual < 1e-10


class TestVanishingStableSolution:
    def test_zero_of_Y_is_a_certificate_error(self):
        with pytest.raises(CertificateError, match=r"s=1\.4, r=1\.5, eps=0\.0"):
            stable_for("perpendicular", GeodesicParams(1.4, 1.5, 0.0), tol=1e-10)


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
            "perpendicular", GeodesicParams(0.0, PI4, 0.0), h=5e-3, tol=1e-11)
        assert abs(d1) < 1e-6
        assert d2 == pytest.approx(-1.0 / 3.0, abs=5e-3)
        d1p, d2p = certificate_s_derivatives(
            "parallel", GeodesicParams(0.0, PI4, 0.0), h=5e-3, tol=1e-11)
        assert abs(d1p) < 1e-6
        assert d2p == pytest.approx(-1.0, abs=5e-3)

    @pytest.mark.parametrize("kind", ["parallel", "perpendicular"])
    def test_mollified_concavity(self, kind):
        d1, d2 = certificate_s_derivatives(
            kind, GeodesicParams(0.0, 0.7604650677456171, 0.05), h=5e-3, tol=1e-10)
        assert abs(d1) < 5e-3
        assert d2 < 0.0

    def test_requires_zero_s(self):
        with pytest.raises(ValueError):
            certificate_s_derivatives("parallel", GeodesicParams(0.1, PI4, 0.0))

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            certificate_s_derivatives("parallel", GeodesicParams(0.0, PI4, 0.0), h=1.0)


class TestCriterion:
    def test_critical_boundary_case(self):
        v = no_double_zero_criterion("parallel", GeodesicParams(0.0, PI4, 0.0), tol=1e-11)
        assert v.verdict == "no-double-zeros"
        assert v.marginal

    def test_subcritical(self):
        v = no_double_zero_criterion("parallel", GeodesicParams(0.0, 0.7, 0.0), tol=1e-10)
        assert v.verdict == "no-double-zeros"
        assert not v.marginal

    def test_supercritical(self):
        v = no_double_zero_criterion("parallel", GeodesicParams(0.0, 0.86, 0.0), tol=1e-10)
        assert v.verdict == "double-zero-exists"
        assert not v.marginal


class TestEpsContinuity:
    @pytest.mark.parametrize("s", [0.0, 0.2])
    def test_certificate_converges_monotonically(self, s):
        base = certificate("perpendicular", GeodesicParams(s, PI4, 0.0), tol=1e-10)
        dists = []
        for eps in (0.1, 0.05, 0.01):
            got = certificate("perpendicular", GeodesicParams(s, PI4, eps), tol=1e-10)
            dists.append(abs(got - base))
        assert dists[0] > dists[1] > dists[2]
