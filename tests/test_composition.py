"""Composed solutions (exact ball, transition window by quadrature, exact
exterior) against full-span solves, and the work the composition leaves to
the integrator."""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import OdeSolver, solve_ivp

import ahwarp.geodesics as geo_mod
import ahwarp.ode as ode_mod
import ahwarp.search as search_mod
import ahwarp.warp as warp_mod
from ahwarp.geodesics import GeodesicParams, radial_exit_slope, solve_radial, solve_radial_grid
from ahwarp.jacobi import even_minimum, fundamental_pair, jacobi_solution, make_kernel
from ahwarp.ode import Trajectory
from ahwarp.search import assemble_report, find_r_star
from ahwarp.stable import stable_for, stable_solution
from ahwarp.warp import ProfileParams, WarpFunction, entry_slope, k_parallel, solve_warp

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
        rho, drho = solve_radial(GeodesicParams(s, r, eps), T=T + 1.0).state(TS)
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
    """Every step of any scipy ODE solver while the test runs, as the time it
    starts from: the package integrates nothing, so it makes none."""
    steps = []
    real = OdeSolver.step

    def counting(self):
        steps.append(self.t)
        return real(self)

    monkeypatch.setattr(OdeSolver, "step", counting)
    return steps


@pytest.fixture
def builds(monkeypatch):
    """Every lookup of the transition pair's series (``warp._terms``), which
    is built on the first and cached for the process."""
    calls = []
    real = warp_mod._terms

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(warp_mod, "_terms", counting)
    return calls


@pytest.fixture
def tables(monkeypatch):
    """Every build of a metric's node table (``WarpFunction.node_table``),
    as the metric's parameters."""
    built = []
    real = WarpFunction.__dict__["node_table"].func

    def counting(self):
        built.append(self.params)
        return real(self)

    prop = functools.cached_property(counting)
    prop.__set_name__(WarpFunction, "node_table")
    monkeypatch.setattr(WarpFunction, "node_table", prop)
    return built


@pytest.fixture
def lookups(monkeypatch):
    """The number of points of every ``WarpFunction.state`` call."""
    sizes = []
    real = WarpFunction.state

    def counting(self, rho):
        sizes.append(int(np.size(rho)))
        return real(self, rho)

    monkeypatch.setattr(WarpFunction, "state", counting)
    return sizes


def run_fresh(code):
    """Run ``code`` in a fresh interpreter on this checkout's package."""
    src = str(Path(ode_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_makes_no_solve():
    # a fresh interpreter: importing the package and a sharp scan build
    # nothing, not even the transition pair's series, and load no scipy
    run_fresh("import sys\n"
              "import ahwarp\n"
              "assert ahwarp.warp._terms.cache_info().currsize == 0\n"
              "assert ahwarp.assemble_report(0.0).overall == 'boundary-CP-and-no-interior-CP'\n"
              "assert ahwarp.warp._terms.cache_info().currsize == 0\n"
              "assert 'scipy' not in sys.modules\n")


def test_mollified_scan_never_imports_scipy():
    # a fresh interpreter: a mollified scan builds the pair's series once
    # and integrates nothing, so scipy is never loaded
    run_fresh("import sys\n"
              "import ahwarp\n"
              "assert ahwarp.assemble_report(0.05).overall == 'boundary-CP-and-no-interior-CP'\n"
              "assert ahwarp.warp._terms.cache_info().currsize == 1\n"
              "assert 'scipy' not in sys.modules\n")


class TestWorkCounts:
    def test_sharp_scan_integrates_nothing(self, solves, builds):
        # eps = 0 has no transition: no window and no pair
        report = assemble_report(0.0)
        assert report.overall == "boundary-CP-and-no-interior-CP"
        assert find_r_star(0.0)[0] == PI4 and entry_slope(0.0) == -1.0
        solve_warp(GeodesicParams(0.0, 0.7, 0.0).profile)
        assert solves == [] and builds == []

    def test_pair_is_solved_once_per_process(self, solves):
        # the pair's series in lam = eps^2 is built once, on [0, 1] in u, for
        # every eps at once: the warp function at every (r, eps) and r* are
        # sums of that one series, and nothing is integrated
        warps = [solve_warp(GeodesicParams(0.0, r, eps).profile)
                 for r, eps in ((0.7, 0.05), (0.8, 0.05), (0.7, 0.01), (0.3, 1.2))]
        assert warp_mod._terms() is warp_mod._terms()
        assert warps[0].a_plus != warps[1].a_plus != warps[2].a_plus
        entry_slope(0.1)
        solve_warp(GeodesicParams(0.0, 0.7, 0.0).profile)  # the sharp metric has no pair
        assert solves == []

    def test_mollified_solves_stay_in_the_transition_window(self, solves):
        # a mollified query integrates nothing: the kernel's window, its
        # fundamental pair and the stable solution are quadratures on the
        # transition pair, and t_x is t_in plus the window's time integral
        mu = GeodesicParams(0.3, 0.76, 0.05)
        kernel = make_kernel("parallel", mu)
        fundamental_pair(kernel, T=20.0)
        stable_for("parallel", mu)
        t_in, t_x = kernel.radial.window
        assert 0.0 < t_in < t_x
        assert solves == []
        assert t_x == t_in + kernel.radial.cum[0, 0, -1]

    @pytest.mark.parametrize("kind, mu", [
        ("parallel", (0.0, PI4, 0.0)),
        ("parallel", (0.2, 0.76, 0.05)),
        ("perpendicular", (0.2, PI4, 0.0)),
        ("perpendicular", (0.3, PI4, 0.05)),
    ])
    def test_one_window_solve_per_geodesic(self, solves, monkeypatch, kind, mu):
        # building the kernel computes its window once, by quadrature on the
        # process's pair (no window at eps = 0; both kinds share the
        # geodesic); the fundamental pair and the stable solution combine
        # that window's integrals, and nothing calls an integrator (each
        # window was a DOP853 solve of its own)
        params = GeodesicParams(*mu)
        built = []
        for name in ("_far_integrals", "_sigma_integrals"):
            def counting(warp, s, *args, build=getattr(geo_mod, name)):
                built.extend(s.tolist())
                return build(warp, s, *args)

            monkeypatch.setattr(geo_mod, name, counting)
        kernel = make_kernel(kind, params)
        assert built == ([mu[0]] if mu[2] > 0.0 else [])
        fundamental_pair(kernel, T=20.0)
        sol = stable_solution(kernel)
        assert len(built) == (mu[2] > 0.0) and solves == []
        assert sol.seed_residual == 0.0

    @pytest.mark.parametrize("kind", ["parallel", "perpendicular"])
    def test_lone_mollified_query_makes_no_solve(self, solves, kind):
        # at an eps no earlier call used, a certificate or a fundamental pair
        # integrates nothing: it sums the pair's series at its eps (one
        # window solve per query, and 2 with a pair solve per eps, before the
        # windows were quadratures; then the process's one pair solve)
        stable_for(kind, GeodesicParams(0.2, 0.76, 0.0431))
        stable_for(kind, GeodesicParams(0.2, 0.77, 0.0529))
        fundamental_pair(make_kernel(kind, GeodesicParams(0.2, 0.77, 0.0617)), T=20.0)
        assert solves == []

    def test_r_star_from_the_transition_pair(self, solves):
        # W'(0; r) = tan(r - r*): the transition pair gives r*, and the s = 0
        # window at r*, a quadrature on the pair, gives the residual (was 4
        # solves: the warp and the window at pi/4, then both at r*; then 2,
        # with a pair per eps; then 1, the window; then the pair's one solve)
        eps = 0.05
        r_star, _ = find_r_star(eps)
        assert solves == []
        radial = solve_radial(GeodesicParams(0.0, r_star, eps), 30.0)
        assert radial.window == (r_star, r_star + eps)

    def test_non_trapping_check_makes_no_solve(self, solves):
        # the premise A'(r + eps/2) > 0 is read off the pair, and the sharp
        # metric has no pair
        assert search_mod._non_trapping_check(solve_warp(ProfileParams(PI4, 0.0)))
        assert search_mod._non_trapping_check(solve_warp(ProfileParams(0.76, 0.05)))
        assert solves == []

    def test_mollified_scan_makes_no_dense_lookup(self, solves, monkeypatch):
        # no right-hand side reads a trajectory, and a scan integrates
        # nothing: every window is a quadrature on the pair, and r*, the
        # non-trapping check and the curvature threshold read the pair itself
        # (the process's one pair solve and 2 more when each regime solved
        # the windows of its grid at once, 4 with a pair solve per eps and a
        # separate witness, 90 with one per geodesic)
        def refuse(self, t):
            raise AssertionError("dense lookup")

        monkeypatch.setattr(Trajectory, "state_scalar", refuse)
        report = assemble_report(0.05)
        assert report.overall == "boundary-CP-and-no-interior-CP"
        assert solves == []


    def test_far_window_looks_nothing_up(self, tables, lookups):
        # a far window (s < r - 2 eps/32) takes its quadrature on the metric's
        # node table, built on the first and reused; a window within two
        # pair panels of grazing, or one with a turning point, looks up its
        # 320 sigma nodes (every window looked them up before the table)
        # (the grid's other lookup is (A, A')(s) at its rows)
        r, eps = 0.76, 0.05
        warp = solve_warp(ProfileParams(r, eps))
        far = geo_mod._solve(np.array([0.0, 0.3, 0.6, r - 2.5 * eps / 32]), warp)
        assert np.all(far.t_in < far.t_x)
        assert lookups == [4] and tables == [ProfileParams(r, eps)]
        geo_mod._solve(np.array([r - 1.5 * eps / 32]), warp)
        assert lookups == [4, 1, 320] and len(tables) == 1

    def test_node_table_once_per_grid_metric(self, tables):
        # one table per metric, however many far windows its grid has; a
        # sharp metric has no window, so a sharp scan builds none
        grid = solve_radial_grid(np.linspace(0.0, 0.9, 31), 0.76, 0.05)
        assert np.sum(grid.t_in < grid.t_x) > 20
        assert tables == [ProfileParams(0.76, 0.05)]
        assert assemble_report(0.0).overall == "boundary-CP-and-no-interior-CP"
        list(solve_radial_grid(np.linspace(0.0, 0.9, 31), PI4, 0.0))
        assert tables == [ProfileParams(0.76, 0.05)]

    def test_lookups_build_no_legendre_basis(self, monkeypatch):
        # a warp lookup is the barycentric formula on the pair's node values:
        # neither a mollified scan nor a mollified fundamental pair, evaluated
        # across its window, builds a Legendre basis (every lookup did)
        calls = []
        real = np.polynomial.legendre.legvander

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.polynomial.legendre, "legvander", counting)
        assert assemble_report(0.05).overall == "boundary-CP-and-no-interior-CP"
        for kind in ("parallel", "perpendicular"):
            kernel = make_kernel(kind, GeodesicParams(0.3, 0.76, 0.05))
            pair = fundamental_pair(kernel, T=20.0)
            pair.wronskian(np.linspace(*kernel.radial.window, 11))
        assert calls == []

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_perp_minimum_takes_at_most_eight_values(self, monkeypatch, eps):
        # Newton on the sign of U' past t_x, from the root of its tangent at
        # E = 0, takes at most 8 values of it on every mid-s geodesic of a
        # scan (bisection in floats took about 50); the geodesics of a grid
        # take those values together, one array of them at a time
        per_call, rows, real_turn = [], [], geo_mod.RadialGrid._turn
        real_min = geo_mod.RadialGrid.perp_minima

        def turn(self, e, psi):
            per_call[-1] += 1
            return real_turn(self, e, psi)

        def minimum(self, psi):
            per_call.append(0)
            rows.append(len(psi))
            return real_min(self, psi)

        monkeypatch.setattr(geo_mod.RadialGrid, "_turn", turn)
        monkeypatch.setattr(geo_mod.RadialGrid, "perp_minima", minimum)
        assert assemble_report(eps).overall == "boundary-CP-and-no-interior-CP"
        assert sum(rows) > 80 and max(per_call) <= 8


def direct_window(s, r, eps):
    """The window of the geodesic (s, r, eps) by one DOP853 solve in t at
    tol 1e-13, from the entry (rho = r, or rho = s at rest for r <= s) to
    rho = r + eps, of the geodesic, of the in-plane Killing field
    y1 = A(rho) rho' from (A rho', A')(t_in), of the in-plane pair from
    the identity and of the angle integral psi (dpsi/dt = 1/A^2): (time in
    the window, the end state of the Killing field, (A rho', A') at the end,
    the transfer matrix, psi across the window)."""
    profile = GeodesicParams(s, r, eps).profile
    warp = solve_warp(profile)
    rho0, v0 = (r, radial_exit_slope(s, r)) if s < r else (s, 0.0)

    def rhs(t, y):
        rho, v = y[0], y[1]
        a, da = (float(z[0]) for z in warp.state(rho))
        m = -float(k_parallel(profile, rho))
        return (v, da / a * (1.0 - v * v), y[3], m * y[2], y[5], m * y[4], y[7], m * y[6],
                1.0 / (a * a))

    def exit_(t, y):
        return y[0] - (r + eps)

    exit_.terminal = True
    a0, da0 = (float(z[0]) for z in warp.state(rho0))
    sol = solve_ivp(rhs, (0.0, 10.0), (rho0, v0, a0 * v0, da0, 1.0, 0.0, 0.0, 1.0, 0.0),
                    method="DOP853", events=exit_, rtol=1e-13, atol=1e-16)
    assert sol.status == 1, sol.message
    end = sol.y[:, -1]
    a_x, da_x = (float(z[0]) for z in warp.state(end[0]))
    return (float(sol.t[-1]), end[2:4], np.array([a_x * end[1], da_x]),
            np.array([[end[4], end[6]], [end[5], end[7]]]), float(end[8]))


class TestWindowInvariants:
    @given(
        frac=st.floats(0.0, 1.0, exclude_max=True),
        r=st.floats(0.7, 0.85),
        eps=st.floats(0.005, 0.1),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_transfer_determinant_and_clairaut(self, frac, r, eps):
        # the window's transfer matrix is symplectic, and inside the window
        # rho' (from D = A(rho) - A(s)) is Clairaut's sqrt(1 - A(s)^2 / A^2)
        # at the rho that Newton put each time at (from sigma)
        s = frac * (r + eps)
        radial = solve_radial(GeodesicParams(s, r, eps), T)
        assert abs(np.linalg.det(radial.transfer) - 1.0) <= 1e-13
        t_in, t_x = radial.window
        rho, drho = radial.state(np.linspace(t_in, t_x, 23)[1:-1])
        a = radial.warp.value(rho)
        assert np.max(np.abs(drho - np.sqrt(1.0 - (radial.a_s / a) ** 2))) <= 1e-12
        assert abs(radial.rho(t_x) - (r + eps)) <= 1e-15

    @pytest.mark.parametrize("where, s", [("inside", 0.3), ("grazing", 0.755),
                                          ("turning", 0.785)])
    def test_killing_field_crosses_the_window(self, where, s):
        # y1 = A(rho) rho' solves the in-plane Jacobi equation with
        # y1' = A'(rho): a direct solve from (A rho', A')(t_in) reaches
        # (A rho', A')(t_x).  That identity is what the transfer matrix is
        # built on, and the direct solve's pair and time check the quadrature
        r, eps = 0.76, 0.05
        t_window, killing, exact, pair, _ = direct_window(s, r, eps)
        assert np.max(np.abs(killing - exact)) <= 1e-12
        radial = solve_radial(GeodesicParams(s, r, eps), T)
        t_in, t_x = radial.window
        assert abs((t_x - t_in) - t_window) <= 1e-12
        assert np.max(np.abs(radial.transfer - pair)) <= 1e-11

    @given(
        fracs=st.lists(st.floats(0.0, 1.2), max_size=6),
        r=st.floats(0.7, 0.85),
        eps=st.floats(0.005, 0.1),
    )
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_grid_solve_matches_single_solves(self, fracs, r, eps):
        # the radial geodesic, random s, s = r + eps (no window), and three
        # geodesics that start at rest on the ball's boundary (turning
        # points): each window of the grid is computed on its own, so it is
        # its single solve's bit for bit
        ss = [0.0, *(f * (r + eps) for f in fracs), r + eps, r, r + 1e-9, r + 2e-9]
        grid = list(solve_radial_grid(ss, r, eps, T))
        assert len(grid) == len(ss)
        for s, sol in zip(ss, grid):
            one = solve_radial(GeodesicParams(s, r, eps), T)
            assert sol.params == one.params and sol.entry_time == one.entry_time
            if s >= r + eps:
                assert sol.exit_time == one.exit_time == 0.0
                continue
            assert sol.exit_time == one.exit_time
            assert np.array_equal(sol.transfer, one.transfer)
            assert abs(np.linalg.det(sol.transfer) - 1.0) <= 1e-13
        assert len({sol.exit_time for sol in grid[-3:]}) == 3

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.78, 0.9])
    def test_grid_of_one_is_solve_radial(self, s):
        mu = GeodesicParams(s, 0.76, 0.05)
        one = solve_radial(mu, T)
        (sol,) = solve_radial_grid([s], mu.r, mu.eps, T)
        assert sol is not one  # grid results are not cached
        assert sol.exit_time == one.exit_time and sol.entry_time == one.entry_time
        ts = np.linspace(0.0, T, 201)
        for x, y in zip(sol.state(ts), one.state(ts)):
            assert np.array_equal(x, y)
        for x, y in ((sol.sigma, one.sigma), (sol.cum, one.cum), (sol.M, one.M)):
            assert np.array_equal(x, y)


class TestMidSAccuracy:
    def test_mid_s_minimum_against_tight_reference(self):
        # the record is the minimum over t >= 0 (``even_minimum``, Newton on
        # U' in the window); the reference samples the same solution at 0.01
        # and again at 1e-5 around its least sample.  A lone window solve at
        # tol 1e-9 once put this minimum 7.9e-8 off
        eps = 0.1
        report = assemble_report(eps)
        rec = next(rec for rec in report.mid_s if abs(rec.s - 0.33) < 1e-9)
        kern = make_kernel("parallel", GeodesicParams(rec.s, report.r_star, eps), horizon=21.0)
        U = jacobi_solution(kern, (1.0, 0.0), 20.0)
        sample = np.arange(0.0, 20.0 + 1e-12, 0.01)
        i = int(np.argmin(U.value(sample)))
        ref = float(np.min(U.value(np.linspace(sample[i - 1], sample[i + 1], 2001))))
        assert abs(rec.min_U_parallel - ref) <= 1e-9

    @pytest.mark.parametrize("kind, s, r, eps", [
        ("parallel", 0.78, 0.7604650677455032, 0.05),  # r* at eps 0.05
        ("parallel", 0.71, 0.4475242006932244, 0.7),   # r* at eps 0.7
        ("perpendicular", 0.5, 0.1, 0.5),
        ("perpendicular", 0.75, 0.2, 0.7),
    ])
    def test_minimum_inside_the_window(self, kind, s, r, eps):
        # turning points whose U has its minimum inside the window: the
        # Newton turn of ``even_minimum`` against U sampled on the window,
        # and again at 1e-6 of it around its least sample
        kern = make_kernel(kind, GeodesicParams(s, r, eps), horizon=5.0)
        t_in, t_x = kern.radial.window
        U = jacobi_solution(kern, (1.0, 0.0), 5.0)
        sample = np.linspace(t_in, t_x, 1001)
        i = int(np.argmin(U.value(sample)))
        assert 0 < i < 1000
        ref = float(np.min(U.value(np.linspace(sample[i - 1], sample[i + 1], 2001))))
        got = even_minimum(kern)
        assert got <= ref + 1e-15 and ref - got <= 1e-12

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1])
    def test_mid_s_windows_against_direct_solve(self, eps):
        # mid-s windows from s = 0.3 to past r* (every fourth point of the
        # grid), against a direct DOP853 solve of the geodesic and its
        # in-plane pair at tol 1e-13 (a window solve at tol 1e-9 was 3e-12
        # off, and 2.8e-8 before its steps were bounded by eps/32 in x)
        r, _ = find_r_star(eps)
        for s in np.arange(0.30, r + eps, 0.04).tolist():
            t_window, _, _, pair, _ = direct_window(s, r, eps)
            radial = solve_radial(GeodesicParams(s, r, eps), T)
            t_in, t_x = radial.window
            assert abs((t_x - t_in) - t_window) <= 1e-12, s
            assert np.max(np.abs(radial.transfer - pair)) <= 1e-11, s

    @pytest.mark.parametrize("r, eps", [(0.76, 0.05), (0.76, 0.1), (0.3, 1.2)])
    def test_windows_across_the_far_switch(self, r, eps):
        # windows at 1 to 4 pair-panel widths eps/32 below grazing: a far
        # one (past 2 widths) takes its quadrature in x on the pair's own
        # nodes, a near one in sigma; both sides against a direct DOP853
        # solve of the geodesic, its angle integral and its in-plane pair
        for widths in (1.0, 1.5, 2.0, 2.5, 4.0):
            s = r - widths * eps / 32
            t_window, _, _, pair, psi = direct_window(s, r, eps)
            radial = solve_radial(GeodesicParams(s, r, eps), T)
            t_in, t_x = radial.window
            assert abs((t_x - t_in) - t_window) <= 1e-12, widths
            assert abs(float(radial.cum[0, 1, -1]) - psi) <= 1e-12, widths
            assert np.max(np.abs(radial.transfer - pair)) <= 1e-12, widths
