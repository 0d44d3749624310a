"""The transition against an independent 30-digit reference.

``window_reference.json`` holds, for (r*, eps) at eps 0.01, 0.05 and 0.1 and
s in {0, 0.3, 0.6, r* - 0.005, r* + eps/2}, the time spent in the window,
the angle integral psi across it and its in-plane transfer matrix M; and for
eps 0.01, 0.020927634009400266, 0.05 and 0.1 at r* and for eps 1.2 at r 0.3,
the transition pair (C, C', S, S') at x = eps, a_+- and r*.  They come from
classical Runge-Kutta in mpmath (``window_reference.py``), which shares
nothing with the package's Taylor series of the pair, nor with its
Gauss-Legendre quadrature of the window.
"""

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from ahwarp.geodesics import GeodesicParams, solve_radial
from ahwarp.warp import ProfileParams, _pair_end, entry_slope, solve_warp
from window_reference import pair, window

FIXTURE = json.loads(Path(__file__).with_name("window_reference.json").read_text())
POINTS = FIXTURE["points"]
PAIRS = FIXTURE["pairs"]

# The largest error of a window's quadrature on the transition pair over the
# fifteen points, per quantity; each bound is FACTOR times it.  The largest
# errors are at the turning points (5.3e-16 in t and 1.3e-15 in psi at eps
# 0.05, 4.9e-16 in M at eps 0.01).  On the pair's series M is up to 9.4e-16
# off (at eps 0.1), 4 ulps of its largest entry.  A DOP853 window solve at
# tol 1e-12 was off by up to 1.1e-14, 2.4e-14 and 3.8e-14.
MEASURED = {"t_window": 5.3e-16, "psi": 1.3e-15, "M": 4.9e-16}
FACTOR = 10.0
# the reference's own error (Richardson, 2n against n steps) stays far below
REF_ERR = 1e-16


@pytest.mark.parametrize("point", POINTS, ids=lambda p: f"eps{p['eps']}-s{p['s']:.4f}")
def test_window_against_reference(point):
    assert point["err"] < REF_ERR
    sol = solve_radial(GeodesicParams(point["s"], point["r"], point["eps"]), 30.0)
    t_in, t_x = sol.window
    errors = {
        "t_window": abs((t_x - t_in) - float(point["t_window"])),
        "psi": abs(float(sol.cum[0, 1, -1]) - float(point["psi"])),
        "M": float(np.max(np.abs(sol.transfer - np.array(point["M"], dtype=float)))),
    }
    for name, err in errors.items():
        assert err <= FACTOR * MEASURED[name], name


# The largest error of the pair's series over the entries with eps <= 0.1
# and at eps 1.2 (lam = 1.44), measured when the series replaced the solve,
# per quantity; each bound is FACTOR times it.  The pair's error is that of
# the remainders C - 1, C', S, S' - 1 the package returns, with the 1 added
# back at 30 digits.  The pair interpolated in lam from one DOP853 solve was
# off by up to 2.6e-16 (with the 1 added in floats), 2.5e-16 and 1.2e-16 at
# eps <= 0.1 and by 8.2e-15, 4.5e-16 and 6.2e-15 at eps 1.2.
PAIR_MEASURED = {"small": {"pair": 3.6e-18, "a": 1.2e-16, "r_star": 5.8e-17},
                 "large": {"pair": 3.9e-17, "a": 8.8e-17, "r_star": 2.8e-17}}


@pytest.mark.parametrize("point", PAIRS, ids=lambda p: f"eps{p['eps']}")
def test_pair_against_reference(point):
    assert point["err"] < REF_ERR
    eps, r = point["eps"], point["r"]
    c1, dc, s, ds1 = _pair_end(eps)
    warp = solve_warp(ProfileParams(r, eps))
    with mp.workdps(30):
        ref = [mp.mpf(v) for v in point["pair"]]
        errors = {
            "pair": max(float(abs(g - v)) for g, v in
                        zip((1 + mp.mpf(c1), mp.mpf(dc), mp.mpf(s), 1 + mp.mpf(ds1)), ref)),
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
