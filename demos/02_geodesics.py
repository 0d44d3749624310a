"""Radial geodesics: entry times, closed forms, and the non-trapping bound.

A geodesic at distance s from the origin runs along a great-circle arc
inside the round ball and then escapes to infinity with rho ~ t.  The arc
and the exterior (where h = A'(rho) solves h'' = h) are exact; only the
mollified transition is a quadrature, so at the critical parameters, where
everything has a closed form, the pipeline reproduces it to rounding.
"""

import math

import numpy as np

from ahwarp import (
    GeodesicParams,
    closed_rho,
    closed_theta,
    comparison_lower_bound,
    entry_time,
    radial_exit_slope,
    solve_radial,
    solve_warp,
)

PI4 = math.pi / 4

print("=== entry times and exit slopes (r = pi/4) ===")
print("  s       ell(s)      rho'(ell)   entry time        |entry - ell|")
for s in (0.0, 0.1, 0.3, 0.5, 0.7):
    ell = entry_time(s, PI4)
    slope = radial_exit_slope(s, PI4)
    sol = solve_radial(GeodesicParams(s, PI4, 0.0), T=12.0)
    print(f"  {s:.1f}   {ell:.8f}   {slope:.8f}   {sol.entry_time:.12f}   "
          f"{abs(sol.entry_time - ell):.1e}")

print()
print("=== numeric trajectory vs closed form ===")
ts = np.arange(0.0, 12.0001, 0.01)
for s in (0.0, 0.3, 0.78, 1.0, 2.0):
    sol = solve_radial(GeodesicParams(s, PI4, 0.0), T=12.5)
    err = np.max(np.abs(np.asarray(sol.rho(ts)) - np.asarray(closed_rho(s, ts))))
    print(f"  s = {s:4.2f}: max |numeric - closed| on [0, 12] = {err:.2e}")

print()
print("=== the geodesic with s = 0.3, step by step ===")
mu = GeodesicParams(0.3, PI4, 0.0)
sol = solve_radial(mu, T=12.0)
print("  t       rho(t)      rho'(t)     theta(t)")
for t in (0.0, 0.4, sol.entry_time, 1.0, 2.0, 5.0):
    print(f"  {t:5.3f}  {float(sol.rho(t)):.8f}  {float(sol.drho(t)):.8f}  "
          f"{float(closed_theta(0.3, t)):.8f}")
print(f"  (entry at t = {sol.entry_time:.8f}, where the arc hands over to the exterior)")

print()
print("=== non-trapping: rho dominates the constant-drift comparison ===")
print("  the bound is an equality at t = 0, so the minimum gap is zero up")
print("  to integration roundoff")
for r, eps in ((PI4, 0.0), (0.76, 0.05)):
    a = solve_warp(GeodesicParams(0.0, r, eps).profile).min_log_slope()
    worst = math.inf
    for s in (0.0, 0.5, 1.0):
        sol = solve_radial(GeodesicParams(s, r, eps), T=12.5)
        gap = np.asarray(sol.rho(ts)) - np.asarray(comparison_lower_bound(a, s, 0.0, ts))
        worst = min(worst, float(np.min(gap)))
    print(f"  (r, eps) = ({r:.4f}, {eps:.2f}), a = {a:.4f}: "
          f"min(rho - lower bound) = {worst:+.3e}")
