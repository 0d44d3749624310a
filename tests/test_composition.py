"""Composed solutions (exact ball, transition solve, exact exterior) against
full-span solves, and the work the composition leaves to the integrator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ahwarp.geodesics as geodesics_mod
import ahwarp.jacobi as jacobi_mod
import ahwarp.ode as ode_mod
import ahwarp.stable as stable_mod
import ahwarp.warp as warp_mod
from ahwarp.geodesics import GeodesicParams, solve_radial
from ahwarp.jacobi import fundamental_pair, make_kernel
from ahwarp.ode import Break, Switch, integrate_ivp
from ahwarp.search import assemble_report
from ahwarp.stable import stable_for
from ahwarp.warp import k_parallel, solve_warp

T = 20.0
TS = np.linspace(0.0, T, 401)
TOL = 1e-12
# The full-span radial solve starts at rho = s with a cot(s)-sized drift and
# its error is erratic in tol (5e-9 in rho at tol 1e-12 on one draw, 5e-13 at
# 3e-13); the references run tighter than the solutions they check.
REF_TOL = 1e-13


def full_span_radial(s, r, eps):
    """rho'' = (A'/A)(rho) (1 - rho'^2) from (s, 0) on all of [0, T], with
    switches at rho = r and rho = r + eps so no step straddles a kink."""
    warp = solve_warp(GeodesicParams(s, r, eps).profile)

    def rhs(t, x, v):
        return warp.log_slope_scalar(x) * (1.0 - v * v)

    switches = [Switch(lambda t, x, v, b=b: x - b, label=label)
                for b, label in ((r, "entry"), (r + eps, "transition_exit"))
                if s < b and (label == "entry" or eps > 0.0)]
    return integrate_ivp(rhs, 0.0, (s, 0.0), T, REF_TOL, switches=switches)


def full_span_pair(s, r, eps, radial):
    """Y'' = -K_par(rho(t)) Y on all of [0, T] along the full-span radial
    solution: one branch per region (ball, transition, exterior), with a
    break at each region boundary the geodesic crosses."""
    profile = GeodesicParams(s, r, eps).profile

    def transition(t, y, v):
        return -float(k_parallel(profile, radial.state_scalar(t)[0])) * y

    times = {label: t for t, label in radial.events}
    t_in = times.get("entry", 0.0)
    t_x = times.get("transition_exit", t_in)
    regions = [(lo, hi, rhs) for lo, hi, rhs in ((0.0, t_in, lambda t, y, v: -y),
                                                 (t_in, t_x, transition),
                                                 (t_x, T, lambda t, y, v: y)) if hi > lo]
    breaks = [Break(lo, None, rhs) for lo, _, rhs in regions[1:]]
    return [integrate_ivp(regions[0][2], 0.0, y0, T, REF_TOL, breaks=breaks)
            for y0 in ((1.0, 0.0), (0.0, 1.0))]


class TestAgainstFullSpan:
    @given(
        s=st.floats(0.01, 0.7),
        r=st.floats(0.7, 0.85),
        eps=st.one_of(st.just(0.0), st.floats(0.005, 0.1)),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_radial_and_in_plane_pair(self, s, r, eps):
        # the full-span radial reference starts at rho = s, where the drift
        # is cot(s): s is kept away from 0 for the reference's sake
        ref = full_span_radial(s, r, eps)
        rho_ref, drho_ref = ref.state(TS)
        rho, drho = solve_radial(GeodesicParams(s, r, eps), T=T + 1.0, tol=TOL).state(TS)
        assert np.max(np.abs(rho - rho_ref) / rho_ref) <= 1e-8
        assert np.max(np.abs(drho - drho_ref)) <= 1e-8  # 0 <= rho' <= 1

        U_ref, V_ref = (y.state(TS)[0] for y in full_span_pair(s, r, eps, ref))
        pair = fundamental_pair(make_kernel("parallel", GeodesicParams(s, r, eps),
                                            horizon=T + 1.0, tol=TOL), T=T, tol=TOL)
        u, v = pair.U.state(TS)[0], pair.V.state(TS)[0]
        # both solutions carry the growing mode e^t: relative to the pair
        scale = np.maximum(1.0, np.maximum(np.abs(U_ref), np.abs(V_ref)))
        assert np.max(np.maximum(np.abs(u - U_ref), np.abs(v - V_ref)) / scale) <= 1e-8


@pytest.fixture
def solves(monkeypatch):
    """Every solve_ivp call made through ahwarp.ode, as the (lo, hi) of the
    time range it integrated; the package caches start empty."""
    for cached in (warp_mod._solve_warp_cached, geodesics_mod._solve_radial_cached,
                   jacobi_mod._make_kernel_cached, stable_mod._stable_cached):
        cached.cache_clear()
    spans = []
    real = ode_mod.solve_ivp

    def counting(*args, **kwargs):
        sol = real(*args, **kwargs)
        spans.append((float(np.min(sol.t)), float(np.max(sol.t))))
        return sol

    monkeypatch.setattr(ode_mod, "solve_ivp", counting)
    return spans


class TestWorkCounts:
    def test_sharp_scan_integrates_nothing(self, solves):
        report = assemble_report(0.0)
        assert report.overall == "boundary-CP-and-no-interior-CP"
        assert solves == []

    def test_mollified_solves_stay_in_the_transition_window(self, solves):
        mu = GeodesicParams(0.3, 0.76, 0.05)
        solve_warp(mu.profile)  # the warp transition is a solve in rho, not t
        solves.clear()
        kernel = make_kernel("parallel", mu)
        fundamental_pair(kernel, T=20.0)
        stable_for("parallel", mu)
        t_in, t_x = kernel.radial.window
        assert 0.0 < t_in < t_x
        assert len(solves) >= 3
        # stable_for solves its own geodesic at tol 1e-12; its t_x moves by
        # far less than this slack
        slack = 1e-9
        for lo, hi in solves:
            assert t_in - slack <= lo < hi <= t_x + slack
