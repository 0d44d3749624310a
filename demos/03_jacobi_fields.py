"""Jacobi fields along the geodesic family and their closed forms.

Two scalar equations govern the normal Jacobi fields: the in-plane kernel
K_par(rho(t)) and the off-plane mix of K_par and K_perp.  Both jump from +1
to a value above -1 when the geodesic leaves the ball (sharply for eps = 0).
The in-plane pair is a rotation in the ball, exponentials past the
transition and integrated across it; the off-plane pair comes from the
rotations of S^n, whose Killing fields restrict to Jacobi fields:
U = A(rho) cos(theta) / A(s) and V = A(rho) sin(theta), with the angular
coordinate theta from Clairaut's integral, so their Wronskian is 1 to
rounding.  The even solutions U stay positive along every geodesic of the
critical metric; that positivity, via Sturm separation, is what forbids
interior conjugate points.
"""

import math

import numpy as np

from ahwarp import (
    GeodesicParams,
    closed_U_perp,
    closed_V_perp,
    fundamental_pair,
    make_kernel,
    theta_infinity,
)

PI4 = math.pi / 4

print("=== kernel along the geodesic with s = 0.3 (critical metric) ===")
kern = make_kernel("perpendicular", GeodesicParams(0.3, PI4, 0.0), tol=1e-12)
print(f"  jump at the entry time t = {kern.radial.entry_time:.8f}")
print("  t      k(t)")
for t in (0.0, 0.5, kern.radial.entry_time, 0.75, 1.0, 2.0, 6.0):
    print(f"  {t:5.3f}  {float(kern.value(t)):+9.6f}")

print()
print("=== fundamental pair vs closed forms ===")
pair = fundamental_pair(kern, T=10.0, tol=1e-12)
ts = np.linspace(0.0, 10.0, 501)
u, _ = pair.U.state(ts)
v, _ = pair.V.state(ts)
print(f"  max |U - closed| = {np.max(np.abs(u - np.asarray(closed_U_perp(0.3, ts)))):.2e}")
print(f"  max |V - closed| = {np.max(np.abs(v - np.asarray(closed_V_perp(0.3, ts)))):.2e}")
print(f"  Wronskian deviation (relative) = {np.max(pair.wronskian_deviation(ts)):.2e}")

print()
print("=== positivity of the even solution U across the family ===")
tgrid = np.linspace(0.0, 20.0, 4001)
print("  s      min U_parallel   min U_perp")
for s in (0.1, 0.3, 0.6, 1.0, 2.0):
    mus = GeodesicParams(s, PI4, 0.0)
    mins = []
    for kind in ("parallel", "perpendicular"):
        p = fundamental_pair(make_kernel(kind, mus), T=20.0, tol=1e-10)
        uu, _ = p.U.state(tgrid)
        mins.append(float(np.min(uu)))
    print(f"  {s:4.2f}   {mins[0]:12.6f}   {mins[1]:12.6f}")
print("  (for s < pi/4 the in-plane minimum is exactly tan s)")

print()
print("=== the phase limit Theta_infinity ===")
print("  decreases from pi/2 at s = 0 to sqrt(2) at s = pi/4; it crossing")
print("  below pi/2 is what makes the off-plane certificate strictly negative")
for s in (0.0, 0.1, 0.2, 0.3, 0.5, 0.7, PI4):
    print(f"  Theta_inf({s:.6f}) = {theta_infinity(s):.12f}")
print(f"  pi/2 = {math.pi/2:.12f},  sqrt(2) = {math.sqrt(2):.12f}")
