"""The headline computation: metrics with boundary conjugate points but no
interior conjugate points.

For each mollification width eps the critical radius r_eps is located where
the radial stable solution has Y'(0) = 0 (boundary conjugate points along
radial geodesics); absence of interior conjugate points is then certified on
three overlapping regimes of the closest-approach parameter s.  Each solve
runs at a tolerance fixed where it is made, and the report's metadata states
them.  The eps = 0.05 report is compared with the archived
artifacts/scan_eps_0.05.json; the demo writes nothing.
"""

import math
from pathlib import Path

from ahwarp import assemble_report, find_r_star

PI4 = math.pi / 4
ARCHIVE = Path(__file__).resolve().parents[1] / "artifacts" / "scan_eps_0.05.json"


def summarize(rep):
    print(f"  overall: {rep.overall}")
    print(f"  r* = {rep.r_star:.12f}   (pi/4 = {PI4:.12f})")
    print(f"  root residual |Y'(0)| = {rep.root_residual:.2e}")
    w = rep.witness
    print(f"  witness decay: |Y({w['T']:.0f})| = {w['abs_Y_at_T']:.3e} "
          f"< {w['decay_bound']:.3e}")
    worst_cert = max(max(r.cert_parallel, r.cert_perp) for r in rep.small_s)
    print(f"  small-s grid ({len(rep.small_s)} points): worst certificate "
          f"{worst_cert:+.2e} (<= 0 up to the sign band)")
    d1, d2 = rep.concavity
    print(f"  concavity at s = 0: d1 = {d1:+.1e}, d2 = {d2:+.5f} (< 0)")
    worst_min = min(min(r.min_U_parallel, r.min_U_perp) for r in rep.mid_s)
    print(f"  mid-s grid ({len(rep.mid_s)} points): worst minimum of U "
          f"{worst_min:.4f} (> 0)")
    print(f"  negative curvature past rho0 = {rep.large_s_threshold:.9f} "
          f"(proof confirmed: {rep.curvature_negativity_certified})")
    print(f"  non-trapping premise A'(r + eps/2) > 0: {rep.non_trapping_ok}")
    tol = rep.metadata["tol"]
    print(f"  tolerances: transition pair {tol['pair']:g}, certificates "
          f"{tol['certificates']:g}, mid-s grid {tol['mid_s']:g}")


print("=== critical radius as a function of the mollification width ===")
print("  eps     r_eps            |r_eps - pi/4|   residual")
for eps in (0.0, 0.01, 0.05, 0.1):
    r_star, residual = find_r_star(eps)
    print(f"  {eps:4.2f}   {r_star:.12f}   {abs(r_star-PI4):.3e}       {residual:.1e}")
print("  (the root walks like pi/4 - eps/2: the transition midpoint is the")
print("   effective jump radius)")

print()
print("=== full verification at eps = 0 (the sharp C^{1,1} metric) ===")
rep0 = assemble_report(0.0)
summarize(rep0)

print()
print("=== full verification at eps = 0.05 (a smooth metric) ===")
rep = assemble_report(0.05)
summarize(rep)

print()
if not ARCHIVE.exists():
    print(f"No archived report at {ARCHIVE}")
elif ARCHIVE.read_text() == rep.to_json() + "\n":
    print(f"The report equals the archived {ARCHIVE.name}, byte for byte")
else:
    print(f"The report differs from the archived {ARCHIVE.name}")
print("The archive is written only by `ahwarp scan --eps 0.05 --out "
      "artifacts/scan_eps_0.05.json`.")
