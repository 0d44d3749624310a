"""A scan as array programs over s: one grid of rows per block of s (one
block per default grid), the row formulas and their Newton solves on whole
arrays, and one path shared with the single queries."""

import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import ahwarp.geodesics as geo_mod
from ahwarp.geodesics import (GeodesicParams, RadialGrid, RadialSolution, entry_time, solve_radial,
                              solve_radial_grid)
from ahwarp.jacobi import KINDS, even_minima, even_minimum, killing_field, make_kernel
from ahwarp.ode import Trajectory
from ahwarp.search import assemble_report, find_r_star, verify_large_s, verify_small_s
from ahwarp.stable import CertificateError, certificate_grid, stable_for
from ahwarp.warp import ProfileParams, k_parallel, solve_warp

ROOT = Path(__file__).resolve().parents[1]


class TestOnePath:
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1])
    def test_scan_records_are_the_single_queries(self, eps):
        # every record of a scan is what the single query at its s gives,
        # bit for bit: the grid's row formulas and Newton solves are the
        # single query's on a grid of one
        report = assemble_report(eps)
        r = report.r_star
        for rec in report.small_s:
            for kind, got in zip(KINDS, (rec.cert_parallel, rec.cert_perp)):
                assert got == stable_for(kind, GeodesicParams(rec.s, r, eps)).W_prime_0, (kind, rec.s)
        for rec in report.mid_s:
            for kind, got in zip(KINDS, (rec.min_U_parallel, rec.min_U_perp)):
                kernel = make_kernel(kind, GeodesicParams(rec.s, r, eps))
                assert got == even_minimum(kernel), (kind, rec.s)

    def test_rows_of_a_grid_are_its_grids_of_one(self):
        # a row taken from a grid holds the same numbers as the grid of one,
        # and its own minima are the grid's
        ss = [0.0, 0.3, 0.74, 0.78, 0.9]
        grid = solve_radial_grid(ss, 0.76, 0.05)
        minima = even_minima(grid._take(np.arange(1, len(ss))))
        for i, s in enumerate(ss):
            one = solve_radial_grid([s], 0.76, 0.05)
            row = grid[i]
            assert isinstance(row, RadialSolution) and row.params == GeodesicParams(s, 0.76, 0.05)
            for name in ("c", "t_in", "t_x", "cum", "M", "sigma"):
                assert np.array_equal(getattr(row, name), getattr(one, name)), (name, s)
            if s > 0.0:
                assert np.array_equal(minima[i - 1], even_minima(one)[0])


S_BAD = 0.15
SS = [0.0, 0.05, 0.1, S_BAD, 0.2, 0.25]


def _row_patch(monkeypatch, name, bad, at=S_BAD):
    """Replace the property ``name`` of every grid by ``bad`` at the row of
    s = at, for the grid and for its single query alike."""
    real = getattr(RadialGrid, name)
    get = getattr(real, "func", None) or real.fget

    def patched(self):
        value = get(self)
        hit = (self.s == at).reshape((-1,) + (1,) * (np.ndim(value) - 1))
        return np.where(hit, bad, value)

    monkeypatch.setattr(RadialGrid, name, property(patched))


def _solve_patch(monkeypatch, at=S_BAD, **fields):
    """Replace the fields of the solved rows at s = at by functions of them."""
    real = geo_mod._solve

    def patched(ss, *args):
        grid = real(ss, *args)
        hit = grid.s == at
        new = {name: fn(grid, hit) for name, fn in fields.items()}
        return dataclasses.replace(grid, **new)

    monkeypatch.setattr(geo_mod, "_solve", patched)


class TestZeroTests:
    # each zero test of the stable construction, forced to fail at one row
    # by one row value: the grid raises the CertificateError of the single
    # query at that s, and the rows before it pass
    R, EPS = 0.76, 0.05

    def _same_error(self, kind, match):
        with pytest.raises(CertificateError, match=match) as single:
            stable_for(kind, GeodesicParams(S_BAD, self.R, self.EPS))
        with pytest.raises(CertificateError) as grid:
            certificate_grid(solve_radial_grid(SS, self.R, self.EPS))
        assert str(grid.value) == str(single.value)
        assert f"s={S_BAD}," in str(single.value)

    def test_window_shorter_than_pi(self, monkeypatch):
        _solve_patch(monkeypatch, t_x=lambda g, hit: np.where(hit, g.t_in + math.pi, g.t_x))
        self._same_error("parallel", "is not shorter than pi; the zero test does not apply")

    def test_positive_at_the_entry(self, monkeypatch):
        # adj(M) (1, -1) = (dv + v, -(du + u)) has a negative first entry
        _solve_patch(monkeypatch,
                     M=lambda g, hit: np.where(hit[:, None, None], [[1.0, -2.0], [0.0, 1.0]], g.M))
        self._same_error("parallel", r"vanishes \(Y\(t_in\) = -")

    def test_no_zero_in_the_ball(self, monkeypatch):
        # W(t_in) = 1e6: arctan W(t_in) + t_in passes pi/2
        _solve_patch(monkeypatch,
                     M=lambda g, hit: np.where(hit[:, None, None], [[-1.0, 0.5], [0.0, -0.5 + 1e-6]], g.M))
        self._same_error("parallel", r"vanishes \(arctan W\(t_in\) \+ t_in = 2\.\d+ >= pi/2\)")

    def test_angle_left_to_sweep_below_pi(self, monkeypatch):
        _row_patch(monkeypatch, "psi", -2.0)
        self._same_error("perpendicular", r"vanishes \(phi\(0\) = 3\.570796 >= pi\)")

    def test_growth_past_the_transition(self, monkeypatch):
        # (with the in-plane window's transfer kept the identity there)
        _solve_patch(monkeypatch, exit=lambda g, hit: np.where(hit[:, None], [-1.0, 0.0], g.exit),
                     M=lambda g, hit: np.where(hit[:, None, None], np.eye(2), g.M))
        self._same_error("perpendicular", "A\\(rho\\) does not grow past the transition")

    def test_first_failing_s_comes_first(self, monkeypatch):
        # an off-plane failure at s = 0.15 is met before an in-plane one at
        # 0.2, as one geodesic at a time (in-plane first) met them
        _row_patch(monkeypatch, "psi", -2.0)
        _solve_patch(monkeypatch, at=0.2, t_x=lambda g, hit: np.where(hit, g.t_in + math.pi, g.t_x))
        with pytest.raises(CertificateError, match=r"s=0\.15,.*phi\(0\)"):
            certificate_grid(solve_radial_grid(SS, self.R, self.EPS))


class TestMasks:
    # every masked formula is taken on its rows or under a local errstate,
    # so warnings, errors in this suite, come only from real faults

    @pytest.mark.parametrize("eps", [0.74, 1.0])
    def test_frontier_scans_fail_as_before(self, eps):
        report = assemble_report(eps, bracket_halfwidth=0.7)
        assert report.overall == "failed"
        assert report.failure_reason == "negative-curvature threshold not confirmed"

    def test_rows_at_rest_within_ulps_of_the_exit(self):
        ss = np.linspace(0.7, 0.82, 25)
        grid = solve_radial_grid(ss, 0.76, 0.05)
        assert np.all(np.isfinite(grid.t_x)) and np.all(np.isfinite(grid.cum))
        at_rest = int(np.flatnonzero(ss == 0.8099999999999999)[0])
        limit = math.sqrt(2.0 * (0.81 - ss[at_rest]) * grid.c[at_rest] / grid.warp.deriv(ss[at_rest]))
        assert grid.t_in[at_rest] == 0.0 and grid.t_x[at_rest] == pytest.approx(limit, rel=1e-6)
        minima = even_minima(grid)
        assert np.all(minima > 0.0)

    def test_entry_times_are_the_closed_form_row_by_row(self):
        # t_in is entry_time(s, r) in the ball, 0 from r on and r on the
        # radial row, whatever numpy's own cos would give
        r, ss = 0.76, np.linspace(0.0, 0.82, 42)
        grid = solve_radial_grid(ss, r, 0.05)
        want = [r if s == 0.0 else entry_time(s, r) if s < r else 0.0 for s in ss.tolist()]
        assert grid.t_in.tolist() == want
        assert all(grid[i].entry_time == t for i, t in enumerate(want))

    def test_a_shared_warp_function_must_be_of_the_grid_metric(self):
        warp = solve_warp(ProfileParams(0.76, 0.05))
        with pytest.raises(ValueError, match="warp function of"):
            verify_large_s(0.77, 0.05, warp=warp)
        with pytest.raises(ValueError, match="warp function of"):
            verify_small_s(0.76, 0.0, warp=warp)


class TestBlocks:
    def test_fine_mid_s_grid_memory_is_bounded(self):
        # about 4,000 rows, solved in blocks of geodesics._BLOCK = 128 with
        # window lookups of geodesics._ROWS = 16 rows: the traced peak is
        # 5.2 MB (2-core x86-64, Python 3.11, numpy 2.4; 4.5 MB before the
        # in-window minima took their points from the panel's node data,
        # whose evaluation at a block's rows holds rows x 3 x 11 x 10
        # products), about 1.2 MB of it the records and most of the rest one
        # block of sigma windows; at ds = 1e-4 (8,323 rows) it is 5.6 MB, the
        # records grown.  Looking up a block's 128 rows at once would peak at
        # 7.4 MB, and one grid of all the rows would hold each row's panel
        # data at once
        r = find_r_star(0.05)[0]
        tracemalloc.start()
        try:
            rho0, _, records, ok = verify_large_s(r, 0.05, ds=2e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and len(records) > 4000
        assert peak < 6e6

    def test_huge_grid_is_refused_cleanly(self):
        # the s grid itself cannot be allocated: one error line, exit 1
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-m", "ahwarp.cli", "scan", "--ds", "1e-300"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("ahwarp: error: ") and len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1])
    def test_block_and_lookup_sizes_change_no_number(self, eps, monkeypatch):
        # the sizes bound what a scan holds and nothing else: every grid cut
        # into blocks of 7 rows, each window lookup 3 rows at a time
        default = assemble_report(eps).to_json()
        monkeypatch.setattr(geo_mod, "_BLOCK", 7)
        monkeypatch.setattr(geo_mod, "_ROWS", 3)
        assert assemble_report(eps).to_json() == default


class TestThresholdRow:
    @pytest.mark.parametrize("eps", [0.0, 0.01, 0.05, 0.1])
    def test_rest_row_at_rho0_is_its_exit_value(self, eps, monkeypatch):
        # at s = rho0, A'(s) = 1 to rounding (a double root of U' at t_x):
        # the off-plane minimum is U(t_x), decided with no Newton, and the
        # mid-s grid, one block, takes at most 5 values of the turn
        r = find_r_star(eps)[0]
        warp = solve_warp(ProfileParams(r, eps))
        real, turns = RadialGrid._turn, []
        monkeypatch.setattr(RadialGrid, "_turn",
                            lambda self, e, psi: turns.append(len(self)) or real(self, e, psi))
        rho0, _, records, ok = verify_large_s(r, eps, warp=warp)
        assert ok and records[-1].s == rho0 and len(records) <= geo_mod._BLOCK
        assert len(turns) <= 5
        row = solve_radial_grid([rho0], r, eps)
        assert abs(row.exit[0, 0] - 1.0) < 1e-15 and row.exit[0, 1] == 0.0
        assert records[-1].min_U_perp == real(row, 1.0, row.psi)[2][0]


class TestTrajectory:
    def test_built_once_and_freed_with_its_row(self, monkeypatch):
        # the ball, window and exterior pieces are made on the first
        # evaluation and kept; they hold no reference back to the solution,
        # so it is freed as soon as it is dropped, with no cycle to collect
        made, real = [], Trajectory.from_function
        monkeypatch.setattr(Trajectory, "from_function",
                            classmethod(lambda cls, *args: made.append(args) or real(*args)))
        sol = solve_radial(GeodesicParams(0.3, 0.76, 0.05))
        t_in, t_x = sol.window
        for _ in range(3):
            sol.state(np.array([0.5 * t_in, 0.5 * (t_in + t_x), t_x + 1.0]))
        assert len(made) == 3
        row = weakref.ref(sol)
        gc.disable()
        try:
            del sol
            assert row() is None
        finally:
            gc.enable()


class TestSingleInversion:
    def test_killing_field_inverts_each_time_once(self, monkeypatch):
        # the state and the angle at the same times share one inversion of
        # the window's time integral (each took its own)
        calls, real = [], RadialGrid.at

        def counting(self, tau):
            calls.append(len(tau))
            return real(self, tau)

        monkeypatch.setattr(RadialGrid, "at", counting)
        for angle in ("theta", "phi"):
            kernel = make_kernel("perpendicular", GeodesicParams(0.3, 0.76, 0.05))
            t_in, t_x = kernel.radial.window
            field = killing_field(kernel, 1.0, 0.5, 10.0, angle=angle)
            calls.clear()
            for k in range(3):
                field.state(t_in + (t_x - t_in) * (np.arange(1.0, 6.0) + 0.1 * k) / 6.5)
            assert calls == [5, 5, 5]


class TestMinLogSlope:
    @pytest.mark.parametrize("r, eps", [(0.85, 0.05), (0.7, 0.3), (0.3, 1.2)])
    def test_newton_against_bisection(self, r, eps):
        # the root of w^2 + K_par on the window, where w = A'/A is least,
        # by 60 bisection steps on the warp function: Newton lands within
        # rounding of the same least value
        warp = solve_warp(ProfileParams(r, eps))

        def g(x):
            return float(warp.log_slope(x)) ** 2 + float(k_parallel(warp.params, x))

        lo, hi = r, r + eps
        assert g(lo) > 0.0 > g(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if g(mid) > 0.0 else (lo, mid)
        assert abs(warp.min_log_slope() - float(warp.log_slope(hi))) <= 2.0 * np.spacing(1.0)


class TestScanCounts:
    @staticmethod
    def counts(eps: str) -> dict:
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, str(ROOT / "tools" / "scan_counts.py"), eps],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_sharp_scan_counts(self):
        # tools/scan_counts.py on a sharp scan: two grids, each one block of
        # rows with one lookup of (A, A')(s), the few lookups of the
        # threshold and the non-trapping check, one Newton loop of at most 4
        # steps past the transition, no window, no in-window minimum, and
        # only the witness's trajectory pieces
        assert self.counts("0") == {"0.0": SHARP_COUNTS}

    def test_mollified_scan_counts(self):
        # at eps 0.05: 79 far windows on the node table and 6 sigma windows
        # in one batched lookup; of the 4 in-window minima, 3 are at rest
        # with K_par(s) <= 0 and so 1 with no step, and the fourth takes one
        # lookup of its panel's nodes (10 points, none in the turning band)
        # and 3 evaluations on them: U' at the nodes and 2 Newton steps
        assert self.counts("0.05") == {"0.05": MOLLIFIED_COUNTS}


SHARP_COUNTS = {"grids_solved": 2, "newton_steps_perp": 5, "newton_steps_window": 0,
                "state_calls": 4, "state_points": 120, "trajectory_pieces": 2, "window_lookups": 0,
                "window_minima": 0, "windows_far": 0, "windows_sigma": 0}
MOLLIFIED_COUNTS = {"grids_solved": 2, "newton_steps_perp": 5, "newton_steps_window": 3,
                    "state_calls": 7, "state_points": 3700, "trajectory_pieces": 3, "window_lookups": 1,
                    "window_minima": 4, "windows_far": 79, "windows_sigma": 6}
