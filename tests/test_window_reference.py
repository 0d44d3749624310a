"""The transition against an independent 30-digit reference.

``window_reference.json`` holds, for (r*, eps) at eps 0.01, 0.05 and 0.1 and
s in {0, 0.3, 0.6, r* - 0.005, r* + eps/2}, the time spent in the window,
the angle integral psi across it and its in-plane transfer matrix M; and for
eps 0.01, 0.020927634009400266, 0.05 and 0.1 at r* and for eps 1.2 at r 0.3,
the transition pair (C, C', S, S') at x = eps, a_+- and r*.  They come from
classical Runge-Kutta in mpmath (``window_reference.py``), which shares
nothing with DOP853 and its error estimate.
"""

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from ahwarp.geodesics import _PSI, GeodesicParams, solve_radial
from ahwarp.warp import ProfileParams, _pair_end, entry_slope, solve_warp
from window_reference import pair, window

FIXTURE = json.loads(Path(__file__).with_name("window_reference.json").read_text())
POINTS = FIXTURE["points"]
PAIRS = FIXTURE["pairs"]

# The largest error of a window solve at tol 1e-12 over the fifteen points,
# measured when the fixture was first written, per quantity; each bound is
# FACTOR times it.  The largest errors are at the grazing geodesic and the
# turning point of eps 0.1 (1.1e-14, 2.4e-14, 3.2e-14).  The fixture was
# rewritten with r* taken from its own pair entries (it moved by up to
# 8e-15); at the moved points M is off by up to 3.8e-14, inside the same
# bound.
MEASURED = {"t_window": 1.1e-14, "psi": 2.4e-14, "M": 3.2e-14}
FACTOR = 10.0
# the reference's own error (Richardson, 2n against n steps) stays far below
REF_ERR = 1e-16


@pytest.mark.parametrize("point", POINTS, ids=lambda p: f"eps{p['eps']}-s{p['s']:.4f}")
def test_window_against_reference(point):
    assert point["err"] < REF_ERR
    sol = solve_radial(GeodesicParams(point["s"], point["r"], point["eps"]), 30.0, 1e-12)
    t_in, t_x = sol.window
    errors = {
        "t_window": abs((t_x - t_in) - float(point["t_window"])),
        "psi": abs(float(sol.transition.end[_PSI]) - float(point["psi"])),
        "M": float(np.max(np.abs(sol.transfer - np.array(point["M"], dtype=float)))),
    }
    for name, err in errors.items():
        assert err <= FACTOR * MEASURED[name], name


# The largest error of the interpolated pair over the entries with eps <= 0.1
# and at eps 1.2 (lam = 1.44), measured when the fixture was written, per
# quantity; each bound is FACTOR times it.  A pair solved per eps in x (tol
# 1e-12, steps of at most eps/32) was off by up to 3.7e-14, 2.8e-14 and
# 1.9e-14 at eps <= 0.1 and by 1.9e-13, 1.8e-13 and 1.4e-13 at eps 1.2.
PAIR_MEASURED = {"small": {"pair": 2.6e-16, "a": 2.5e-16, "r_star": 1.2e-16},
                 "large": {"pair": 8.2e-15, "a": 4.5e-16, "r_star": 6.2e-15}}


@pytest.mark.parametrize("point", PAIRS, ids=lambda p: f"eps{p['eps']}")
def test_pair_against_reference(point):
    assert point["err"] < REF_ERR
    eps, r = point["eps"], point["r"]
    c1, dc, s, ds1 = _pair_end(eps)
    warp = solve_warp(ProfileParams(r, eps))
    with mp.workdps(30):
        ref = [mp.mpf(v) for v in point["pair"]]
        errors = {
            "pair": max(float(abs(g - v)) for g, v in zip((1.0 + c1, dc, s, 1.0 + ds1), ref)),
            "a": max(float(abs(warp.a_plus - mp.mpf(point["a_plus"]))),
                     float(abs(warp.a_minus - mp.mpf(point["a_minus"])))),
            "r_star": float(abs(-math.atan(entry_slope(eps)) - mp.mpf(point["r_star"]))),
        }
    measured = PAIR_MEASURED["large" if eps > 0.5 else "small"]
    for name, err in errors.items():
        assert err <= FACTOR * measured[name], name


def test_reference_recomputes():
    # the script and the fixture stay in step: one entry, recomputed
    point = next(p for p in POINTS if p["eps"] == 0.05 and p["s"] == 0.3)
    got = window(point["s"], point["r"], point["eps"], point["steps"])
    stored = [point["t_window"], point["psi"], point["M"][0][0], point["M"][1][0],
              point["M"][0][1], point["M"][1][1]]
    with mp.workdps(30):
        for g, ref in zip(got, stored):
            assert abs(g - mp.mpf(ref)) <= mp.mpf("1e-25")


def test_pair_reference_recomputes():
    point = next(p for p in PAIRS if p["eps"] == 0.01)
    got = pair(point["eps"], point["steps"])
    with mp.workdps(30):
        for g, ref in zip(got, point["pair"]):
            assert abs(g - mp.mpf(ref)) <= mp.mpf("1e-25")
