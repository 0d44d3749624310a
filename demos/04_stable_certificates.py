"""Stable solutions and the double-zero certificate W'(0).

The unique in-plane Jacobi solution with e^t Y(t) -> 1 is exactly e^{-t}
past the transition; the transfer matrix of the transition window and a
rotation through the ball carry it to t = 0.  The off-plane one is
the Killing field A(rho) sin(phi), phi the angle the geodesic has still to
sweep, so W'(0) = -cot(phi(0)) / A(s) with no solve at all.  The
normalized slope W'(0) decides everything: solutions vanishing twice exist
if and only if W'(0) > 0.  Along radial geodesics of the sharp metric the certificate is
(sin r - cos r)/(sin r + cos r) -- negative below pi/4, positive above, and
exactly zero at the critical radius, where the decaying solution extends
evenly to a boundary-conjugate witness.  Every certificate rides on the
window's quadrature on the transition pair, which is solved once at a fixed
tolerance, 1e-12; no call below chooses it.
"""

import math

import numpy as np

from ahwarp import (
    TOL_SIGN,
    GeodesicParams,
    certificate_parallel_closed,
    certificate_perp_closed,
    certificate_s_derivatives,
    find_r_star,
    radial_certificate_closed,
    stable_for,
)

PI4 = math.pi / 4

print("=== radial certificates across r (sharp metric) ===")
print("  r         W'(0) integrated    closed form        verdict")
for r in (0.70, 0.75, PI4, 0.80, 0.86):
    mu = GeodesicParams(0.0, r, 0.0)
    got = stable_for("parallel", mu).W_prime_0
    verdict = "no-double-zeros" if got <= TOL_SIGN else "double-zero-exists"
    flag = " (marginal: on the critical locus)" if abs(got) < TOL_SIGN / 10.0 else ""
    print(f"  {r:.6f}  {got:+.12f}   {radial_certificate_closed(r):+.12f}   "
          f"{verdict}{flag}")

print()
print("=== the boundary-conjugate witness at the critical radius ===")
sol = stable_for("parallel", GeodesicParams(0.0, PI4, 0.0))
print(f"  Y(0) = {sol.Y0:.12f}  (= sqrt2 e^(-pi/4) = {math.sqrt(2)*math.exp(-PI4):.12f})")
print(f"  W'(0) = {sol.W_prime_0:+.2e}  -> even extension is C^1, decays both ways")
print(f"  |Y(20)| = {abs(float(sol.Y.value(20.0))):.3e}  vs  e^(-20) = {math.exp(-20):.3e}"
      f"  (e^t Y(t) -> 1, a limit in closed form)")

print()
print("=== off-radial certificates at (s, pi/4, 0) ===")
print("  s      parallel (num)   parallel (closed)  perp (num)      perp (closed)")
for s in (0.05, 0.1, 0.2, 0.3):
    mu = GeodesicParams(s, PI4, 0.0)
    cp = stable_for("parallel", mu).W_prime_0
    cq = stable_for("perpendicular", mu).W_prime_0
    print(f"  {s:.2f}   {cp:+.10f}    {certificate_parallel_closed(s):+.10f}     "
          f"{cq:+.10f}   {certificate_perp_closed(s):+.10f}")
print("  both families behave like -c s^2 near s = 0: strictly concave")

print()
print("=== concavity signature at s = 0 ===")
for kind, target in (("perpendicular", -1.0 / 3.0), ("parallel", -1.0)):
    d1, d2 = certificate_s_derivatives(kind, GeodesicParams(0.0, PI4, 0.0))
    print(f"  {kind:13s}: d/ds = {d1:+.2e} (exact 0), "
          f"d2/ds2 = {d2:+.6f} (exact {target:+.6f})")

print()
print("=== the certificate survives mollification ===")
print("  W'(0) at s = 0.2, perpendicular, at the radius r*(eps) that the scan")
print("  certifies; held at r = pi/4 instead it turns positive as eps grows")
print("  eps     r*(eps)           at r*(eps)        at pi/4")
for eps in (0.1, 0.05, 0.01, 0.0):
    r_star = find_r_star(eps)[0]
    got = stable_for("perpendicular", GeodesicParams(0.2, r_star, eps)).W_prime_0
    held = stable_for("perpendicular", GeodesicParams(0.2, PI4, eps)).W_prime_0
    print(f"  {eps:4.2f}   {r_star:.12f}   {got:+.10f}   {held:+.10f}")
print("  at r*(eps), W'(0) < 0 at each eps above: no double zero")
