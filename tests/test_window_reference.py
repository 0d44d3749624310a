"""The transition window against an independent 30-digit reference.

``window_reference.json`` holds, for (r*, eps) at eps 0.01, 0.05 and 0.1 and
s in {0, 0.3, 0.6, r* - 0.005, r* + eps/2}, the time spent in the window,
the angle integral psi across it and its in-plane transfer matrix M, from
classical Runge-Kutta in mpmath (``window_reference.py``), which shares
nothing with DOP853 and its error estimate.
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from ahwarp.geodesics import _PSI, GeodesicParams, solve_radial
from window_reference import window

POINTS = json.loads(Path(__file__).with_name("window_reference.json").read_text())["points"]

# The largest error of a window solve at tol 1e-12 over the fifteen points,
# measured when the fixture was written, per quantity; each bound is
# FACTOR times it.  The largest errors are at the grazing geodesic and the
# turning point of eps 0.1 (1.1e-14, 2.4e-14, 3.2e-14).
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


def test_reference_recomputes():
    # the script and the fixture stay in step: one entry, recomputed
    point = next(p for p in POINTS if p["eps"] == 0.05 and p["s"] == 0.3)
    got = window(point["s"], point["r"], point["eps"], point["steps"])
    stored = [point["t_window"], point["psi"], point["M"][0][0], point["M"][1][0],
              point["M"][0][1], point["M"][1][1]]
    with mp.workdps(30):
        for g, ref in zip(got, stored):
            assert abs(g - mp.mpf(ref)) <= mp.mpf("1e-25")
