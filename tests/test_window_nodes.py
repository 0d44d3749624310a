"""The in-window evaluation on each panel's own nodes against the per-point
Gauss rule it replaced, and the minima it decides.

``RadialGrid._partial`` takes a point inside a window from the ten Gauss
nodes of its panel: the integral from the panel's start by the panel's
Legendre integration row, and dt/dsigma, m = D / (L sigma^2) and A' by the
barycentric formula.  The reference here is the rule it replaced, re-made
on ``geodesics._rates``: the panel ends' sums plus one ten-node Gauss rule on
[panel start, sigma], with the rates looked up at sigma itself.  Each bound
is FACTOR times the largest error measured (2-core x86-64, Python 3.11,
numpy 2.4).
"""

import math

import numpy as np
import pytest

import ahwarp.geodesics as geo_mod
from ahwarp.geodesics import RadialGrid, solve_radial_grid
from ahwarp.jacobi import even_minima
from ahwarp.search import assemble_report, find_r_star
from ahwarp.warp import ProfileParams, solve_warp

FACTOR = 10.0


def gauss_partial(grid: RadialGrid, sg: np.ndarray):
    """(the integrals (t - t_in, psi, J), D, A') at the sigma sg (rows x
    points) by the per-point rule: cum at the panel's start plus one Gauss
    rule on [start, sg], every rate looked up."""
    rows = np.arange(len(sg))[:, None]
    k = np.clip((grid.sigma[:, None, :] <= sg[:, :, None]).sum(axis=-1) - 1, 0, geo_mod._PANELS - 1)
    lo = grid.sigma[rows, k]
    h = sg - lo
    nodes = np.concatenate((lo[..., None] + h[..., None] * geo_mod._GAUSS_X, sg[..., None]), axis=-1)
    rates, d, da, _ = geo_mod._rates(grid.warp, grid.s, grid.c, nodes.reshape(len(sg), -1))
    rates = rates.reshape(len(sg), 3, *nodes.shape[1:])
    part = grid.cum[rows, :, k].transpose(0, 2, 1) + h[:, None] * (rates[..., :-1] @ geo_mod._GAUSS_W)
    return part, d.reshape(nodes.shape)[..., -1], da.reshape(nodes.shape)[..., -1]


def dense_minima(grid: RadialGrid, in_plane: np.ndarray, points: int = 2001, zoom: int = 41,
                 passes: int = 5):
    """The least U of each row over its window by the per-point rule: the
    least of ``points`` equally spaced sigma, then ``passes`` times the
    least of ``zoom`` between the neighbours of the last least (a spacing
    of 5e-4 and then 20 times finer each pass)."""
    lo, hi, rows, n = grid.sigma[:, :1], np.ones((len(grid), 1)), np.arange(len(grid)), points
    for _ in range(passes + 1):
        sg = lo + (hi - lo) * np.linspace(0.0, 1.0, n)
        part, d, da = gauss_partial(grid, sg)
        u = grid._even(in_plane, sg, part, d, da)[0]
        i = np.argmin(u, axis=1)
        least = u[rows, i]
        lo, hi = sg[rows, np.maximum(i - 1, 0)][:, None], sg[rows, np.minimum(i + 1, n - 1)][:, None]
        n = zoom
    return least


def scan_minima(eps: float, hw: float, monkeypatch) -> list:
    """Each call of ``window_minima`` in assemble_report(eps): the grid, the
    kinds, the minima, and the s of the rows whose panel nodes it looked up
    (``_nodes``, which every Newton step's rows come from)."""
    calls, looked_up = [], []
    real_min, real_nodes = RadialGrid.window_minima, RadialGrid._nodes

    def window_minima(self, in_plane):
        looked_up.clear()
        out = real_min(self, in_plane)
        calls.append((self, in_plane, out, sorted(looked_up)))
        return out

    def nodes(self, k):
        looked_up.extend(self.s.tolist())
        return real_nodes(self, k)

    monkeypatch.setattr(RadialGrid, "window_minima", window_minima)
    monkeypatch.setattr(RadialGrid, "_nodes", nodes)
    assemble_report(eps, bracket_halfwidth=hw)
    return calls


# |window_minima - dense_minima| over every row that window_minima decides
# in the scan (4, 21 and 103 rows), per eps; the dense reference moves by at
# most 2.2e-16 with 81 points a pass and six passes
MINIMA_MEASURED = {0.05: 2.2e-16, 0.3: 3.3e-16, 1.0: 1.5e-15}


@pytest.mark.parametrize("eps, hw", [(0.05, 0.1), (0.3, 0.7), (1.0, 0.7)])
def test_window_minima_against_dense_evaluation(eps, hw, monkeypatch):
    calls = scan_minima(eps, hw, monkeypatch)
    assert calls
    for grid, in_plane, got, looked_up in calls:
        want = dense_minima(grid, in_plane)
        assert np.max(np.abs(got - want)) <= FACTOR * MINIMA_MEASURED[eps]
        # at rest with a nonpositive kernel (K_par(s) in-plane, K_perp(s)
        # off-plane): U(t_in) = 1 exactly, with no lookup and no Newton step
        kernel = np.where(in_plane, 1.0 - 2.0 * geo_mod.mollifier((grid.s - grid.r) / grid.eps),
                          (1.0 - grid.entry[:, 1] ** 2) / grid.c ** 2)
        rest = (grid.t_in == 0.0) & (kernel <= 0.0)
        assert rest.any()
        assert (got[rest] == 1.0).all()
        assert looked_up == sorted(grid.s[~rest].tolist())


# The first two panels of turning (s - r = 0.3 eps, 0.01 eps) and
# near-grazing (s - r = -0.01 eps) windows, where the node-rate integral is
# farthest from the per-point rule, at 39 points a panel: the largest
# difference in the integrals relative to the window's whole integrals, and
# in D and A' relative to their largest value there.  The integral from a
# panel's start is exact to degree 9 at an inner point, the Gauss rule on
# [start, sigma] to degree 19: against that rule on eight subintervals the
# per-point rule was within 6.8e-15 and the node rows within the figures
# below, largest in the first panel of the turning window s - r = 0.01 eps.
PANEL_MEASURED = {0.05: {"integrals": 3.4e-14, "d": 8.4e-14, "da": 4.2e-15},
                  0.3: {"integrals": 4.7e-14, "d": 1.7e-14, "da": 2.0e-14},
                  1.2: {"integrals": 1.8e-13, "d": 2.5e-15, "da": 4.0e-14}}
# |t(sigma(tau)) - tau| relative to the window's time, t by the per-point
# rule at the sigma that RadialGrid.at returns for 200 tau across the window
ROUND_TRIP_MEASURED = {0.05: 3.2e-15, 0.3: 5.5e-16, 1.2: 4.7e-16}
CASES = [(0.05, None), (0.3, None), (1.2, 0.3)]


def case_grid(eps: float, r: float | None) -> RadialGrid:
    r = find_r_star(eps, 0.7 if eps > 0.1 else 0.1)[0] if r is None else r
    return solve_radial_grid([r + 0.3 * eps, r + 0.01 * eps, r - 0.01 * eps], r, eps)


def panel_errors(grid: RadialGrid) -> dict:
    errors = {"integrals": 0.0, "d": 0.0, "da": 0.0}
    z = np.linspace(0.0, 1.0, 41)[1:-1]
    for k in (0, 1):
        lo, hi = grid.sigma[:, k:k + 1], grid.sigma[:, k + 1:k + 2]
        sg_ref = lo + (hi - lo) * z
        want, d, da = gauss_partial(grid, sg_ref)
        nodes = grid._nodes(np.full((len(grid), 1), k))
        sg, got, _, d_got, da_got = grid._partial(nodes, np.broadcast_to(2.0 * z - 1.0, sg_ref.shape))
        assert np.max(np.abs(sg - sg_ref)) <= 1e-16
        scale = np.abs(grid.cum[:, :, -1:])
        errors["integrals"] = max(errors["integrals"], float(np.max(np.abs(got - want) / scale)))
        errors["d"] = max(errors["d"], float(np.max(np.abs(d_got - d) / np.max(np.abs(d)))))
        errors["da"] = max(errors["da"], float(np.max(np.abs(da_got - da) / np.max(np.abs(da)))))
    return errors


def round_trip_error(grid: RadialGrid) -> float:
    worst = 0.0
    for i in range(len(grid)):
        row = grid[i]
        total = row.cum[0, 0, -1]
        tau = np.linspace(0.0, total, 200)
        sg = row.at(tau)[0]
        t = gauss_partial(row, sg[None])[0][0, 0]
        worst = max(worst, float(np.max(np.abs(t - tau)) / total))
    return worst


@pytest.mark.parametrize("eps, r", CASES, ids=[f"eps{eps}" for eps, _ in CASES])
def test_first_panels_against_the_per_point_rule(eps, r):
    errors = panel_errors(case_grid(eps, r))
    for name, err in errors.items():
        assert err <= FACTOR * PANEL_MEASURED[eps][name], name


@pytest.mark.parametrize("eps, r", CASES, ids=[f"eps{eps}" for eps, _ in CASES])
def test_window_time_round_trip(eps, r):
    assert round_trip_error(case_grid(eps, r)) <= FACTOR * ROUND_TRIP_MEASURED[eps]


def bisected_perp_minimum(row: RadialGrid) -> float:
    """U at the turn of f on (0, 1) (``RadialGrid._turn``), by 200 steps of
    bisection: f > 0 as E -> 0 and f < 0 just below E = 1 at a rest row."""
    psi, lo, hi = row.psi, 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if row._turn(mid, psi)[0][0] > 0.0:
            lo = mid
        else:
            hi = mid
    return float(row._turn(lo, psi)[2][0])


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.3])
def test_perp_minima_near_the_threshold(eps):
    # rows at rest within 1e-8 of rho0, where U' has its double root at
    # E = 1 and the turn close to it: Newton may run all its steps, but the
    # minimum stays within 4 ulps of a bisection of the turn and never
    # above U(t_x)
    r = find_r_star(eps, 0.7 if eps > 0.1 else 0.1)[0]
    rho0 = solve_warp(ProfileParams(r, eps)).negative_curvature_threshold()
    for gap in (1e-8, 1e-9, 1e-10, 1e-11, 1e-12):
        row = solve_radial_grid([rho0 - gap], r, eps)
        got = even_minima(row)[0, 1]
        want = bisected_perp_minimum(row)
        assert abs(got - want) <= 4.0 * math.ulp(want), gap
        assert got <= row._turn(1.0, row.psi)[2][0], gap
