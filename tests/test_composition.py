"""Composed solutions (exact ball, transition solve, exact exterior) against
full-span solves, and the work the composition leaves to the integrator."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import ahwarp.ode as ode_mod
import ahwarp.search as search_mod
import ahwarp.warp as warp_mod
from ahwarp.geodesics import GeodesicParams, _x_map, solve_radial, solve_radial_grid
from ahwarp.jacobi import fundamental_pair, jacobi_solution, make_kernel
from ahwarp.ode import Trajectory
from ahwarp.search import assemble_report, find_r_star
from ahwarp.stable import stable_for, stable_solution
from ahwarp.warp import entry_slope, k_parallel, solve_warp

T = 20.0
TS = np.linspace(0.0, T, 401)
TOL = 1e-12
# The full-span radial solve starts at rho = s with a cot(s)-sized drift and
# its error is erratic in tol (5e-9 in rho at tol 1e-12 on one draw, 5e-13 at
# 3e-13); the references run tighter than the solutions they check.
REF_TOL = 1e-13
PI4 = math.pi / 4


def piecewise_solve(rhs, t0, y0, t1, surfaces=()):
    """scipy's DOP853 from (t0, y0) to t1, restarted from the state at the
    first crossing of each surface fn(t, y) = 0 in turn, so no step
    straddles one.  Returns the pieces [(lo, hi, dense output)] and the
    crossing times."""
    pieces, crossings = [], []
    t, y = t0, np.asarray(y0, dtype=float)
    for fn in [*surfaces, None]:
        event = None
        if fn is not None:
            def event(tt, yy, fn=fn):
                return fn(tt, yy)

            event.terminal = True
        sol = solve_ivp(rhs, (t, t1), y, method="DOP853", dense_output=True,
                        events=event, rtol=REF_TOL, atol=REF_TOL * 1e-3)
        assert sol.status >= 0, sol.message
        pieces.append((t, float(sol.t[-1]), sol.sol))
        t, y = float(sol.t[-1]), sol.y[:, -1]
        if sol.status == 0:
            break
        crossings.append(t)
    return pieces, crossings


def evaluate(pieces, ts):
    """The piecewise solution's first two components at the times ts."""
    out = np.empty((2, len(ts)))
    for k, t in enumerate(ts):
        _, _, sol = next(p for p in pieces if p[0] <= t <= p[1])
        out[:, k] = sol(t)[:2]
    return out


def full_span_radial(s, r, eps):
    """rho'' = (A'/A)(rho) (1 - rho'^2) from (s, 0) on all of [0, T],
    restarted at rho = r and rho = r + eps so no step straddles a kink.
    Returns the pieces and the crossing times {label: t}."""
    warp = solve_warp(GeodesicParams(s, r, eps).profile)

    def rhs(t, y):
        return y[1], float(warp.log_slope(y[0])) * (1.0 - y[1] * y[1])

    surfaces = [(b, label) for b, label in ((r, "entry"), (r + eps, "transition_exit"))
                if s < b and (label == "entry" or eps > 0.0)]
    pieces, crossings = piecewise_solve(
        rhs, 0.0, (s, 0.0), T,
        [lambda t, y, b=b: y[0] - b for b, _ in surfaces])
    return pieces, {label: t for (_, label), t in zip(surfaces, crossings)}


def full_span_pair(s, r, eps, radial):
    """Y'' = -K_par(rho(t)) Y on all of [0, T] along the full-span radial
    solution: one branch per region (ball, transition, exterior), each
    region solved on its own span from the state where the one before
    ends."""
    pieces, times = radial
    profile = GeodesicParams(s, r, eps).profile

    def transition(t, y):
        _, _, sol = next(p for p in pieces if p[0] <= t <= p[1])
        return y[1], -float(k_parallel(profile, float(sol(t)[0]))) * y[0]

    t_in = times.get("entry", 0.0)
    t_x = times.get("transition_exit", t_in)
    regions = [(lo, hi, rhs) for lo, hi, rhs in ((0.0, t_in, lambda t, y: (y[1], -y[0])),
                                                 (t_in, t_x, transition),
                                                 (t_x, T, lambda t, y: (y[1], y[0]))) if hi > lo]
    out = []
    for y0 in ((1.0, 0.0), (0.0, 1.0)):
        parts, y = [], y0
        for lo, hi, rhs in regions:
            part, _ = piecewise_solve(rhs, lo, y, hi)
            parts += part
            y = part[-1][2](hi)
        out.append(parts)
    return out


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
        rho_ref, drho_ref = evaluate(ref[0], TS)
        rho, drho = solve_radial(GeodesicParams(s, r, eps), T=T + 1.0, tol=TOL).state(TS)
        assert np.max(np.abs(rho - rho_ref) / rho_ref) <= 1e-8
        assert np.max(np.abs(drho - drho_ref)) <= 1e-8  # 0 <= rho' <= 1

        U_ref, V_ref = (evaluate(y, TS)[0] for y in full_span_pair(s, r, eps, ref))
        pair = fundamental_pair(make_kernel("parallel", GeodesicParams(s, r, eps),
                                            horizon=T + 1.0, tol=TOL), T=T, tol=TOL)
        u, v = pair.U.state(TS)[0], pair.V.state(TS)[0]
        # both solutions carry the growing mode e^t: relative to the pair
        scale = np.maximum(1.0, np.maximum(np.abs(U_ref), np.abs(V_ref)))
        assert np.max(np.maximum(np.abs(u - U_ref), np.abs(v - V_ref)) / scale) <= 1e-8


@pytest.fixture
def solves(monkeypatch):
    """Every solve_ivp call made through ahwarp.ode, as the (lo, hi) of the
    time range it integrated."""
    spans = []
    real = ode_mod.solve_ivp

    def counting(*args, **kwargs):
        sol = real(*args, **kwargs)
        spans.append((float(np.min(sol.t)), float(np.max(sol.t))))
        return sol

    monkeypatch.setattr(ode_mod, "solve_ivp", counting)
    return spans


@pytest.fixture
def no_series():
    """The process's transition pair (``warp._series``) not yet solved."""
    warp_mod._series.cache_clear()
    yield
    warp_mod._series.cache_clear()


def test_import_makes_no_solve():
    # a fresh interpreter: importing the package and a sharp scan solve
    # nothing, not even the transition pair
    code = ("import scipy.integrate as si\n"
            "calls = []\n"
            "real = si.solve_ivp\n"
            "si.solve_ivp = lambda *a, **k: calls.append(a) or real(*a, **k)\n"
            "import ahwarp\n"
            "assert calls == [] and ahwarp.warp._series.cache_info().currsize == 0\n"
            "assert ahwarp.assemble_report(0.0).overall == 'boundary-CP-and-no-interior-CP'\n"
            "assert calls == [] and ahwarp.warp._series.cache_info().currsize == 0\n")
    src = str(Path(ode_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestWorkCounts:
    def test_sharp_scan_integrates_nothing(self, no_series, solves):
        # eps = 0 has no transition: no window and no pair
        report = assemble_report(0.0)
        assert report.overall == "boundary-CP-and-no-interior-CP"
        assert find_r_star(0.0)[0] == PI4 and entry_slope(0.0) == -1.0
        solve_warp(GeodesicParams(0.0, 0.7, 0.0).profile)
        assert solves == []
        assert warp_mod._series.cache_info().currsize == 0

    def test_pair_is_solved_once_per_process(self, no_series, solves):
        # the first mollified metric solves the pair, in u on [0, 1], for
        # every eps at once: the warp function at every (r, eps) and r* are
        # interpolations of that one solve
        warps = [solve_warp(GeodesicParams(0.0, r, eps).profile)
                 for r, eps in ((0.7, 0.05), (0.8, 0.05), (0.7, 0.01), (0.3, 1.2))]
        assert solves == [(0.0, 1.0)]
        assert warp_mod._series.cache_info().currsize == 1
        assert warps[0].a_plus != warps[1].a_plus != warps[2].a_plus
        entry_slope(0.1)
        solve_warp(GeodesicParams(0.0, 0.7, 0.0).profile)  # the sharp metric has no pair
        assert len(solves) == 1

    def test_mollified_solves_stay_in_the_transition_window(self, solves):
        mu = GeodesicParams(0.3, 0.76, 0.05)
        solve_warp(mu.profile)  # the process's pair, if not yet solved
        solves.clear()
        kernel = make_kernel("parallel", mu)
        fundamental_pair(kernel, T=20.0)
        stable_for("parallel", mu)
        t_in, t_x = kernel.radial.window
        assert 0.0 < t_in < t_x
        # one window solve per geodesic: the kernel's (tol 1e-11) and the
        # one stable_for builds at tol 1e-12; the pair and the certificate
        # are read off them.  Each spans exactly the window, sigma in [0, 1]
        # (x = rho - r = eps sigma), and t_x is t_in plus the end of its t row
        assert solves == [(0.0, 1.0), (0.0, 1.0)]
        assert t_x == t_in + kernel.radial.transition.end[2]

    @pytest.mark.parametrize("kind, mu", [
        ("parallel", (0.0, PI4, 0.0)),
        ("parallel", (0.2, 0.76, 0.05)),
        ("perpendicular", (0.2, PI4, 0.0)),
        ("perpendicular", (0.3, PI4, 0.05)),
    ])
    def test_one_window_solve_per_geodesic(self, solves, kind, mu):
        # building the kernel solves its window once (none at eps = 0; both
        # kinds share the radial solve); the fundamental pair and the stable
        # solution combine that solve's pair and integrate nothing
        params = GeodesicParams(*mu)
        solve_warp(params.profile)  # the process's transition pair, if not yet solved
        solves.clear()
        kernel = make_kernel(kind, params)
        expected = [(0.0, 1.0)] if mu[2] > 0.0 else []  # the window, sigma in [0, 1]
        assert solves == expected
        fundamental_pair(kernel, T=20.0)
        sol = stable_solution(kernel)
        assert solves == expected
        assert sol.seed_residual == 0.0

    @pytest.mark.parametrize("kind", ["parallel", "perpendicular"])
    def test_lone_mollified_query_makes_one_solve(self, solves, kind):
        # at an eps no earlier call used, a certificate or a fundamental pair
        # solves its window and nothing else (was 2 with a pair solve per eps)
        warp_mod._series()
        solves.clear()
        stable_for(kind, GeodesicParams(0.2, 0.76, 0.0431))
        assert solves == [(0.0, 1.0)]
        solves.clear()
        fundamental_pair(make_kernel(kind, GeodesicParams(0.2, 0.77, 0.0617)), T=20.0)
        assert solves == [(0.0, 1.0)]

    def test_r_star_from_the_transition_pair(self, solves):
        # W'(0; r) = tan(r - r*): the transition pair gives r*, and the s = 0
        # window solve at r* gives the residual (was 4 solves: the warp and
        # the window at pi/4, then both at r*; then 2, with a pair per eps)
        warp_mod._series()
        solves.clear()
        eps = 0.05
        r_star, _ = find_r_star(eps)
        assert solves == [(0.0, 1.0)]  # the window, in sigma
        radial = solve_radial(GeodesicParams(0.0, r_star, eps), 30.0, 1e-12)
        assert radial.window == (r_star, r_star + eps)

    def test_non_trapping_check_makes_no_solve(self, solves):
        # the premise A'(r + eps/2) > 0 is read off the pair (solved here
        # once for the process) and the sharp metric has no pair
        assert search_mod._non_trapping_check(PI4, 0.0)
        solve_warp(GeodesicParams(0.0, 0.76, 0.05).profile)
        solves.clear()
        assert search_mod._non_trapping_check(0.76, 0.05)
        assert solves == []

    def test_mollified_scan_makes_no_dense_lookup(self, solves, monkeypatch):
        # no right-hand side reads a trajectory, and each regime solves the
        # windows of its grid at once: one solve for small s, whose s = 0
        # column gives the residual and the witness, and one for mid s; r*,
        # the non-trapping check and the curvature threshold read the
        # process's pair and solve nothing (4 solves with a pair solve per
        # eps and a separate witness, 7 with 4 for r* and a grid for
        # non-trapping, 90 with one per geodesic, 185 when the radial,
        # in-plane and log-Riccati windows were solved apart)
        def refuse(self, t):
            raise AssertionError("dense lookup")

        warp_mod._series()
        solves.clear()
        monkeypatch.setattr(Trajectory, "state_scalar", refuse)
        report = assemble_report(0.05)
        assert report.overall == "boundary-CP-and-no-interior-CP"
        assert solves == [(0.0, 1.0), (0.0, 1.0)]  # windows in sigma on [0, 1]


def _carried_warp_agrees(radial):
    """(A(s) + D, A') of the window rows against the warp function at
    rho = r + x at every node, within 1e-10."""
    p = radial.params
    x0, a, b = _x_map(p.s, p.r, p.eps)
    sg = radial.transition.nodes
    d, da = radial.transition.states[:2]
    big, dbig = radial.warp.state(p.r + (x0 + sg * (a + b * sg)))
    assert np.max(np.abs(radial.a_s + d - big)) <= 1e-10
    assert np.max(np.abs(da - dbig)) <= 1e-10


class TestWindowInvariants:
    @given(
        frac=st.floats(0.0, 1.0, exclude_max=True),
        r=st.floats(0.7, 0.85),
        eps=st.floats(0.005, 0.1),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_transfer_determinant_and_clairaut(self, frac, r, eps):
        # the window's transfer matrix is symplectic, and the warp function
        # it carries, A = A(s) + D and A', agrees with the warp function
        # solved in rho at every node (rho' is Clairaut's, so it needs no
        # check of its own)
        s = frac * (r + eps)
        radial = solve_radial(GeodesicParams(s, r, eps), T, TOL)
        assert abs(np.linalg.det(radial.transfer) - 1.0) <= 1e-10
        _carried_warp_agrees(radial)

    @given(
        fracs=st.lists(st.floats(0.0, 1.2), max_size=6),
        r=st.floats(0.7, 0.85),
        eps=st.floats(0.005, 0.1),
    )
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_grid_solve_matches_single_solves(self, fracs, r, eps):
        # the radial geodesic, random s, s = r + eps (no window), and three
        # geodesics that start at rest on the ball's boundary (turning
        # points): every window of the batch is one solve on the same nodes
        # in sigma, and each geodesic's rows agree with its single solve
        ss = [0.0, *(f * (r + eps) for f in fracs), r + eps, r, r + 1e-9, r + 2e-9]
        grid = list(solve_radial_grid(ss, r, eps, T, TOL))
        assert len(grid) == len(ss)
        nodes = grid[0].transition.nodes
        for s, sol in zip(ss, grid):
            one = solve_radial(GeodesicParams(s, r, eps), T, TOL)
            assert sol.params == one.params and sol.entry_time == one.entry_time
            if s >= r + eps:
                assert sol.transition is None and sol.exit_time == one.exit_time == 0.0
                continue
            assert np.array_equal(sol.transition.nodes, nodes)
            assert abs(sol.exit_time - one.exit_time) <= 1e-12
            assert np.max(np.abs(sol.transfer - one.transfer)) <= 1e-9
            assert abs(np.linalg.det(sol.transfer) - 1.0) <= 1e-10
            _carried_warp_agrees(sol)
        assert len({sol.exit_time for sol in grid[-3:]}) == 3

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.78, 0.9])
    def test_grid_of_one_is_solve_radial(self, s):
        mu = GeodesicParams(s, 0.76, 0.05)
        one = solve_radial(mu, T, TOL)
        (sol,) = solve_radial_grid([s], mu.r, mu.eps, T, TOL)
        assert sol is not one  # grid results are not cached
        assert sol.exit_time == one.exit_time and sol.entry_time == one.entry_time
        ts = np.linspace(0.0, T, 201)
        for x, y in zip(sol.state(ts), one.state(ts)):
            assert np.array_equal(x, y)
        if one.transition is None:
            assert sol.transition is None
        else:
            for x, y in ((sol.transition.nodes, one.transition.nodes),
                         (sol.transition.states, one.transition.states)):
                assert np.array_equal(x, y)

    def test_batches_hold_at_most_64_geodesics(self, solves):
        solve_warp(GeodesicParams(0.0, 0.76, 0.05).profile)  # the process's pair, if not yet solved
        solves.clear()
        ss = np.linspace(0.001, 0.75, 150)  # every one has a window
        sols = list(solve_radial_grid(ss, 0.76, 0.05, T, 1e-10))
        assert len(solves) == 3
        assert all(sol.transition is not None and sol.exit_time is not None for sol in sols)


class TestMidSAccuracy:
    def test_mid_s_minimum_against_tight_reference(self):
        # the mid-s grid is solved as a batch at tol / sqrt(n) per step; a
        # lone solve at tol 1e-9 put this minimum 7.9e-8 off the reference.
        # The record is the minimum over t >= 0, so the reference samples the
        # tight solution at 0.01 and again at 1e-5 around its least sample
        eps = 0.1
        report = assemble_report(eps)
        rec = next(rec for rec in report.mid_s if abs(rec.s - 0.33) < 1e-9)
        kern = make_kernel("parallel", GeodesicParams(rec.s, report.r_star, eps),
                           horizon=21.0, tol=1e-13)
        U = jacobi_solution(kern, (1.0, 0.0), 20.0, 1e-13)
        sample = np.arange(0.0, 20.0 + 1e-12, 0.01)
        i = int(np.argmin(U.value(sample)))
        ref = float(np.min(U.value(np.linspace(sample[i - 1], sample[i + 1], 2001))))
        assert abs(rec.min_U_parallel - ref) <= 1e-9

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1])
    def test_single_window_at_tol_1e9(self, eps):
        # DOP853's error estimate misses the rise of exp(-1/x) in a long
        # first step: a lone window solve at tol 1e-9 put M 2.8e-8 off at
        # (0.05, s = 0.44) and 7.3e-9 off at (0.1, 0.56).  The window
        # steps are at most eps/32 in x, as the transition pair's
        r, _ = find_r_star(eps)
        ss = np.arange(0.30, r + eps, 0.01)
        for s in ss.tolist():
            mu = GeodesicParams(s, r, eps)
            got = solve_radial(mu, T, 1e-9).transfer
            ref = solve_radial(mu, T, 1e-13).transfer
            assert np.max(np.abs(got - ref)) <= 1e-9, s
