"""Stable solutions and the double-zero certificate W'(0).

Seeding W = Y'/Y = -1 far out and integrating the log-Riccati equation
backward once produces the unique in-plane Jacobi solution with
e^t Y(t) -> 1; the off-plane one is the Killing field A(rho) sin(phi), phi
the angle the geodesic has still to sweep, so W'(0) = -cot(phi(0)) / A(s)
with no solve at all.  The
normalized slope W'(0) decides everything: solutions vanishing twice exist
if and only if W'(0) > 0.  Along radial geodesics of the sharp metric the certificate is
(sin r - cos r)/(sin r + cos r) -- negative below pi/4, positive above, and
exactly zero at the critical radius, where the decaying solution extends
evenly to a boundary-conjugate witness.
"""

import math

import numpy as np

from ahwarp import (
    GeodesicParams,
    certificate,
    certificate_parallel_closed,
    certificate_perp_closed,
    certificate_s_derivatives,
    no_double_zero_criterion,
    radial_certificate_closed,
    stable_for,
)

PI4 = math.pi / 4

print("=== radial certificates across r (sharp metric) ===")
print("  r         W'(0) integrated    closed form        verdict")
for r in (0.70, 0.75, PI4, 0.80, 0.86):
    mu = GeodesicParams(0.0, r, 0.0)
    got = certificate("parallel", mu, tol=1e-11)
    v = no_double_zero_criterion("parallel", mu, tol=1e-11)
    flag = " (marginal: on the critical locus)" if v.marginal else ""
    print(f"  {r:.6f}  {got:+.12f}   {radial_certificate_closed(r):+.12f}   "
          f"{v.verdict}{flag}")

print()
print("=== the boundary-conjugate witness at the critical radius ===")
sol = stable_for("parallel", GeodesicParams(0.0, PI4, 0.0), tol=1e-11)
print(f"  Y(0) = {sol.Y0:.12f}  (= sqrt2 e^(-pi/4) = {math.sqrt(2)*math.exp(-PI4):.12f})")
print(f"  W'(0) = {sol.W_prime_0:+.2e}  -> even extension is C^1, decays both ways")
print(f"  |Y(20)| = {abs(float(sol.Y.value(20.0))):.3e}  vs  e^(-20) = {math.exp(-20):.3e}"
      f"  (seeded at T0 = {sol.seed_horizon:g}, seed bound {sol.seed_residual:.1e})")

print()
print("=== off-radial certificates at (s, pi/4, 0) ===")
print("  s      parallel (num)   parallel (closed)  perp (num)      perp (closed)")
for s in (0.05, 0.1, 0.2, 0.3):
    mu = GeodesicParams(s, PI4, 0.0)
    cp = certificate("parallel", mu, tol=1e-11)
    cq = certificate("perpendicular", mu, tol=1e-11)
    print(f"  {s:.2f}   {cp:+.10f}    {certificate_parallel_closed(s):+.10f}     "
          f"{cq:+.10f}   {certificate_perp_closed(s):+.10f}")
print("  both families behave like -c s^2 near s = 0: strictly concave")

print()
print("=== concavity signature at s = 0 ===")
for kind, target in (("perpendicular", -1.0 / 3.0), ("parallel", -1.0)):
    d1, d2 = certificate_s_derivatives(kind, GeodesicParams(0.0, PI4, 0.0),
                                       h=5e-3, tol=1e-11)
    print(f"  {kind:13s}: d/ds = {d1:+.2e} (exact 0), "
          f"d2/ds2 = {d2:+.6f} (exact {target:+.6f})")

print()
print("=== the certificate survives mollification ===")
print("  eps     W'(0) at (0.2, pi/4, eps), perpendicular")
base = certificate("perpendicular", GeodesicParams(0.2, PI4, 0.0), tol=1e-10)
for eps in (0.1, 0.05, 0.01, 0.0):
    got = certificate("perpendicular", GeodesicParams(0.2, PI4, eps), tol=1e-10)
    print(f"  {eps:4.2f}   {got:+.10f}   (|diff from sharp| = {abs(got-base):.2e})")
