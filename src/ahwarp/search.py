"""Parameter search and verification: boundary conjugate points without
interior ones.

For each mollification width eps the radius r_eps is located at which the
radial stable solution satisfies Y'(0) = 0; the metric then has boundary
conjugate points along radial geodesics.  No root search is needed: along
the radial geodesic the transition window is [r, r + eps], and its equation
in x = rho - r does not contain r, so W = Y'/Y at the window's entry is one
number w(eps) for every r, read off the end state of the transition pair
(``warp.entry_slope``).  The exact rotation through the ball (``stable``)
then gives

    W'(0; r) = tan(arctan w(eps) + r) = tan(r - r*),   r* = -arctan w(eps).

The pair is one solve per process, interpolated in eps^2 (``warp``).  The
root residual |Y(0) W'(0)| comes from an s = 0 window solve at r*, which
carries no pair rows, so it measures how far the two disagree: a scan reads
it, and its boundary-conjugate witness, off the s = 0 column of its small-s
certificate grid, and ``find_r_star`` makes that solve on its own.
Absence of interior conjugate points is certified in three regimes:

* small s (certificate method): W'(0) <= 0 for both kernels on a grid
  0 <= s <= sigma, backed by the concavity signature of s -> W'(0) at 0;
* mid s (positivity method): the even fundamental solutions U stay positive
  on the whole line for sigma <= s <= rho0, which by Sturm separation leaves
  no solution with two zeros;
* large s (curvature method): past the threshold rho0 both sectional
  curvatures are negative, so Sturm comparison with Y'' = 0 rules out double
  zeros with no integration at all.  The threshold is confirmed by its
  proof: K_par < 0 past r + eps/2, and past r + eps, A'' = A > 0, so A'
  increases and K_perp < 0 once A' > 1.

Non-trapping is proved, not sampled.  In the ball A' = cos rho > 0; on the
window A'' = -K_par A, so A' falls until K_par changes sign at r + eps/2 and
rises after it; past r + eps, A'' = A > 0.  So A' > 0 on (0, inf) if and
only if A'(r + eps/2) > 0, and then inf A'/A > 0 (A'/A -> 1), which is the
premise of the comparison theorem (``geodesics.comparison_lower_bound``).

Each regime's grid takes its geodesics from one
``geodesics.solve_radial_grid``: the transition windows of up to 64
geodesics are one solve.  Each mid-s point's minima of U are exact over all
t >= 0 (``jacobi.even_minimum``): U is cos t in the ball and closed form past
the transition, and U' turns positive once, so the minimum is one closed
formula or one bisection.  No caller sets a tolerance: the transition pair is
solved at ``warp._PAIR_TOL``, every stable solution (the residual, the
witness, the small-s certificates) at ``stable._KERNEL_TOL`` and the mid-s
grid at ``_MID_TOL``, and the report's metadata states all three.  After the
process's one pair solve, a mollified scan makes two solves: the small-s
grid's and the mid-s grid's.  Each grid point is decided on the whole line
in t, but the grids sample s: they certify concrete parameter triples by
computation, not a computer-assisted proof, and the report says so in its
metadata.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geodesics import GeodesicParams, solve_radial_grid
from .jacobi import KINDS, even_minimum, kernel_on
from .stable import (_KERNEL_TOL, TOL_SIGN, StableSolution, certificate_grid, stable_for,
                     stencil_derivatives, stencil_points)
from .warp import _PAIR_TOL, ProfileParams, entry_slope, k_perp, solve_warp

__all__ = [
    "BracketError",
    "SmallSRecord",
    "MidSRecord",
    "ScanReport",
    "find_r_star",
    "verify_small_s",
    "verify_large_s",
    "assemble_report",
]

_QUARTER_PI = math.pi / 4.0
# The mid-s grid's windows are solved at _MID_TOL: the minima of U are
# positive margins, far above this error (certificates are signed numbers
# near 0 and ride on stable._KERNEL_TOL).
_MID_TOL = 1e-9

OVERALL_SUCCESS = "boundary-CP-and-no-interior-CP"
OVERALL_FAILED = "failed"


class BracketError(ValueError):
    """r* outside the window [pi/4 - h, pi/4 + h] (eps too large for the
    bracket half-width h)."""


@dataclass(frozen=True)
class SmallSRecord:
    s: float
    cert_parallel: float
    cert_perp: float
    verdict: str  # "pass" | "fail"


@dataclass(frozen=True)
class MidSRecord:
    s: float
    min_U_parallel: float
    min_U_perp: float
    verdict: str  # "pass" | "fail"


def _null(x: float) -> float | None:
    """x, or None for nan and +-inf, which JSON (RFC 8259) cannot carry."""
    return x if math.isfinite(x) else None


def _nan(x: float | None) -> float:
    return math.nan if x is None else x


@dataclass(frozen=True)
class ScanReport:
    eps: float
    r_star: float
    root_residual: float
    small_s: tuple[SmallSRecord, ...]
    mid_s: tuple[MidSRecord, ...]
    large_s_threshold: float
    curvature_negativity_certified: bool
    overall: str
    failure_reason: str | None = None
    witness: dict = field(default_factory=dict)
    non_trapping_ok: bool = True
    concavity: tuple[float, float] | None = None
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The report as JSON-ready data; a non-finite float (the nan of a
        failed stage) is written as None, JSON's null."""
        return {
            "eps": self.eps,
            "r_star": _null(self.r_star),
            "root_residual": _null(self.root_residual),
            "small_s": [[rec.s, _null(rec.cert_parallel), _null(rec.cert_perp), rec.verdict]
                        for rec in self.small_s],
            "mid_s": [[rec.s, _null(rec.min_U_parallel), _null(rec.min_U_perp), rec.verdict]
                      for rec in self.mid_s],
            "large_s_threshold": _null(self.large_s_threshold),
            "curvature_negativity_certified": self.curvature_negativity_certified,
            "overall": self.overall,
            "failure_reason": self.failure_reason,
            "witness": {k: _null(v) for k, v in self.witness.items()},
            "non_trapping_ok": self.non_trapping_ok,
            "concavity": ([_null(v) for v in self.concavity]
                          if self.concavity is not None else None),
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)

    @classmethod
    def from_dict(cls, d: dict) -> "ScanReport":
        """Inverse of ``to_dict``; null reads back as nan."""
        return cls(
            eps=d["eps"],
            r_star=_nan(d["r_star"]),
            root_residual=_nan(d["root_residual"]),
            small_s=tuple(SmallSRecord(row[0], *map(_nan, row[1:3]), row[3]) for row in d["small_s"]),
            mid_s=tuple(MidSRecord(row[0], *map(_nan, row[1:3]), row[3]) for row in d["mid_s"]),
            large_s_threshold=_nan(d["large_s_threshold"]),
            curvature_negativity_certified=d["curvature_negativity_certified"],
            overall=d["overall"],
            failure_reason=d["failure_reason"],
            witness={k: _nan(v) for k, v in d["witness"].items()},
            non_trapping_ok=d["non_trapping_ok"],
            concavity=tuple(map(_nan, d["concavity"])) if d["concavity"] is not None else None,
            metadata=d["metadata"],
        )

    @classmethod
    def from_json(cls, text: str) -> "ScanReport":
        return cls.from_dict(json.loads(text))


def _root(eps: float, bracket_halfwidth: float) -> float:
    """r* = -arctan w(eps); BracketError when it falls outside the window
    [pi/4 - bracket_halfwidth, pi/4 + bracket_halfwidth]."""
    ProfileParams(_QUARTER_PI, eps)  # validates eps
    lo = _QUARTER_PI - bracket_halfwidth
    hi = _QUARTER_PI + bracket_halfwidth
    r_star = -math.atan(entry_slope(eps))
    if not lo <= r_star <= hi:
        raise BracketError(f"r* = {r_star!r} outside the window [{lo!r}, {hi!r}]")
    return r_star


def find_r_star(eps: float, bracket_halfwidth: float = 0.1) -> tuple[float, float]:
    """Locate r with Y'(0) = 0 on the radial geodesic of (r, eps).

    W'(0; r) = tan(r - r*) for every r (module docstring), so

        r* = -arctan w(eps)

    from the transition pair at x = eps.  Returns (r_star, |Y(0) W'(0)| at
    r_star), the residual from the stable solution at r_star, a window solve
    independent of the pair.  Raises BracketError when r_star falls outside
    the window [pi/4 - bracket_halfwidth, pi/4 + bracket_halfwidth].
    """
    r_star = _root(eps, bracket_halfwidth)
    sol = stable_for("parallel", GeodesicParams(0.0, r_star, eps))
    return r_star, abs(sol.Y0 * sol.W_prime_0)


def verify_small_s(
    r: float,
    eps: float,
    sigma: float = 0.3,
    ds: float = 0.01,
) -> tuple[list[SmallSRecord], tuple[float, float], bool, StableSolution]:
    """Certificate method on 0 <= s <= sigma.

    Each grid point passes iff W'(0) <= TOL_SIGN for both kernels; the
    concavity signature (d1 ~ 0, d2 < 0) of s -> W'(0) at s = 0 is checked
    as well.  Returns (records, (d1, d2) for the perpendicular kind, all
    passed, the in-plane stable solution at s = 0), all from one
    ``certificate_grid``.
    """
    _check_grid(sigma, ds)
    grid = _grid(0.0, sigma, ds)
    stencil = stencil_points()
    ss = np.union1d(grid, stencil)
    certs = dict(zip(ss.tolist(), certificate_grid(ss, r, eps)))
    records: list[SmallSRecord] = []
    ok = True
    for s in grid.tolist():
        cp, cq = certs[s]
        good = cp <= TOL_SIGN and cq <= TOL_SIGN
        ok = ok and good
        records.append(SmallSRecord(s, cp, cq, "pass" if good else "fail"))
    d1, d2 = stencil_derivatives([certs[s][1] for s in stencil])
    ok = ok and d2 < 0.0
    return records, (d1, d2), ok, certs[0.0].stable


def _negative_curvature_threshold(params: ProfileParams) -> tuple[float, bool]:
    """rho0 past which both curvatures are negative, and whether its proof
    holds: rho0 >= r + eps (so K_par < 0 past it) with A, A' > 0 at r + eps
    (so A'' = A > 0 and A' increases past it from A'(rho0) >= 1, and
    K_perp < 0).  The threshold must also be sharp: K_perp just below rho0
    is nonnegative."""
    r, eps = params.r, params.eps
    warp = solve_warp(params)
    rho0 = warp.negative_curvature_threshold()
    a_x, da_x = warp.exit_state
    certified = rho0 >= r + eps and a_x > 0.0 and da_x > 0.0
    below = rho0 - 1e-6
    if below > r + eps / 2.0:
        certified = certified and float(k_perp(warp, below)) >= 0.0
    return rho0, certified


def verify_large_s(
    r: float,
    eps: float,
    sigma: float = 0.3,
    ds: float = 0.01,
) -> tuple[float, bool, list[MidSRecord], bool]:
    """Positivity method on sigma <= s <= rho0 (sigma > 0: the radial
    geodesic s = 0 has no angular coordinate, and the small-s regime
    covers it).

    Past rho0 both curvatures are negative and Sturm comparison needs no
    integration; below it, each grid point passes iff both even fundamental
    solutions U (U(0) = 1, U'(0) = 0) are positive on the whole line: by
    Sturm separation no solution then vanishes twice.  The minima are
    ``jacobi.even_minimum``, exact over t >= 0: closed forms in the ball and
    past the transition, the window solve's dense output across it.
    Returns (rho0, curvature_certified, records, all passed).
    """
    _check_grid(sigma, ds)
    if not sigma > 0.0:
        raise ValueError(f"the mid-s grid starts at sigma > 0, got {sigma}")
    rho0, certified = _negative_curvature_threshold(ProfileParams(r, eps))
    records: list[MidSRecord] = []
    for radial in solve_radial_grid(_grid(sigma, rho0, ds), r, eps, tol=_MID_TOL):
        min_u, min_v = (even_minimum(kernel_on(kind, radial)) for kind in KINDS)
        good = min_u > 0.0 and min_v > 0.0
        records.append(MidSRecord(radial.params.s, min_u, min_v, "pass" if good else "fail"))
    ok = certified and all(rec.verdict == "pass" for rec in records)
    return rho0, certified, records, ok


def _check_grid(sigma: float, ds: float) -> None:
    """A step ds <= 0 or non-finite would leave a grid empty, or fail deep
    inside it, so a scan could pass with nothing checked."""
    if not (math.isfinite(ds) and ds > 0.0):
        raise ValueError(f"ds must be finite and positive, got {ds}")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, ... up to hi, with hi appended; empty when hi < lo
    (a sigma past rho0 leaves no mid s to check)."""
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    if n < 1:
        return np.empty(0)
    g = lo + step * np.arange(n)
    if g[-1] < hi - 1e-12:
        g = np.append(g, hi)
    return g


def _failed_at(records) -> str:
    """The s values of the failing grid points, comma-separated."""
    return ", ".join(f"{rec.s:g}" for rec in records if rec.verdict == "fail")


def _non_trapping_check(r: float, eps: float) -> bool:
    """A'(r + eps/2) > 0: the premise of the comparison theorem (module
    docstring), read off the warp function with no solve of its own."""
    return solve_warp(ProfileParams(r, eps)).deriv(r + eps / 2.0) > 0.0


def assemble_report(
    eps: float,
    sigma: float = 0.3,
    ds: float = 0.01,
    bracket_halfwidth: float = 0.1,
) -> ScanReport:
    """Run the full pipeline for one eps and aggregate the verdicts.

    Success requires: a root r_star with small residual, the decaying
    witness at s = 0 (boundary conjugate points), all small-s certificates
    nonpositive with the concavity signature, all mid-s minima positive, the
    negative-curvature threshold confirmed, and the non-trapping premise.
    The residual and the witness come from the small-s grid's s = 0 column.
    The metadata states the tolerances of the solves: the transition pair
    (r_star and the warp function), the stable solutions (the residual, the
    witness and the small-s certificates) and the mid-s grid.  Raises
    ValueError unless ds is finite and positive and sigma finite.
    """
    _check_grid(sigma, ds)
    metadata = {
        "sigma": sigma,
        "ds": ds,
        "bracket_halfwidth": bracket_halfwidth,
        "tol": {"pair": _PAIR_TOL, "certificates": _KERNEL_TOL, "mid_s": _MID_TOL},
        "method": (
            "every grid point decided on all of t >= 0 from closed forms and "
            "the transition window solve, not on sampled t; the grids sample s: "
            "certification by sampling in s, not a computer-assisted proof"
        ),
        "mollifier": "exp(-1/x) / (exp(-1/x) + exp(-1/(1-x))) ramp on [0, 1]",
    }

    try:
        r_star = _root(eps, bracket_halfwidth)
    except BracketError as exc:
        nan = float("nan")
        return ScanReport(
            eps=eps, r_star=nan, root_residual=nan, small_s=(), mid_s=(),
            large_s_threshold=nan, curvature_negativity_certified=False,
            overall=OVERALL_FAILED, failure_reason=f"bracket: {exc}",
            non_trapping_ok=False, metadata=metadata,
        )

    small_records, concavity, _, witness_sol = verify_small_s(r_star, eps, sigma, ds)
    # Boundary-conjugate witness: the stable solution at s = 0 decays in
    # forward time and, extended evenly (W'(0) = 0 up to the root residual),
    # in backward time as well.  The residual is its |Y(0) W'(0)|.
    slope = witness_sol.Y0 * witness_sol.W_prime_0
    residual = abs(slope)
    t_check = witness_sol.seed_horizon
    y_end = abs(float(witness_sol.Y.value(t_check)))
    witness = {
        "T": t_check,
        "abs_Y_at_T": y_end,
        "decay_bound": 2.0 * math.exp(-t_check),
        "even_extension_slope": slope,
    }
    witness_ok = y_end < 2.0 * math.exp(-t_check) and residual < 1e-8
    del witness_sol  # it holds the small-s grid's window solve; the mid-s grid makes its own

    rho0, certified, mid_records, _ = verify_large_s(r_star, eps, sigma, ds)
    non_trapping = _non_trapping_check(r_star, eps)
    small_failed = _failed_at(small_records)
    mid_failed = _failed_at(mid_records)

    checks = [
        (residual < 1e-10, f"root residual {residual:.3e} >= 1e-10"),
        (witness_ok, "boundary witness does not decay"),
        (not small_failed, f"small-s certificate method failed at s = {small_failed}"),
        (concavity[1] < 0.0, f"small-s concavity d2 = {concavity[1]:.3e} is not negative"),
        (not mid_failed, f"mid-s positivity method failed at s = {mid_failed}"),
        (certified, "negative-curvature threshold not confirmed"),
        (non_trapping, "non-trapping premise A'(r + eps/2) > 0 fails"),
    ]
    reason = "; ".join(msg for ok, msg in checks if not ok) or None

    return ScanReport(
        eps=eps,
        r_star=r_star,
        root_residual=residual,
        small_s=tuple(small_records),
        mid_s=tuple(mid_records),
        large_s_threshold=rho0,
        curvature_negativity_certified=certified,
        overall=OVERALL_SUCCESS if reason is None else OVERALL_FAILED,
        failure_reason=reason,
        witness=witness,
        non_trapping_ok=non_trapping,
        concavity=concavity,
        metadata=metadata,
    )
