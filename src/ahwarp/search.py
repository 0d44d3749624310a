"""Parameter search and verification: boundary conjugate points without
interior ones.

For each mollification width eps the radius r_eps is located at which the
radial stable solution satisfies Y'(0) = 0; the metric then has boundary
conjugate points along radial geodesics.  No root search is needed: along
the radial geodesic the transition window is [r, r + eps], and its equation
in x = rho - r does not contain r, so W = Y'/Y at the window's entry is one
number w(eps) for every r.  The exact rotation through the ball (``stable``)
then gives

    W'(0; r) = tan(arctan w(eps) + r) = tan(r - r*),   r* = -arctan w(eps),

and one certificate at r = pi/4 fixes the root.  Absence of interior conjugate
points is certified in three regimes:

* small s (certificate method): W'(0) <= 0 for both kernels on a grid
  0 <= s <= sigma, backed by the concavity signature of s -> W'(0) at 0;
* mid s (positivity method): the even fundamental solutions U stay positive
  on [0, T] with positive exit slope for sigma <= s <= rho0;
* large s (curvature method): past the threshold rho0 both sectional
  curvatures are negative, so Sturm comparison with Y'' = 0 rules out double
  zeros with no integration at all.

Each regime's grid, like the non-trapping check, takes its geodesics from
one ``geodesics.solve_radial_grid``: the transition windows of up to 64
geodesics are one solve.  The grids certify concrete parameter triples by
computation; this is certification by sampling, not a computer-assisted
proof, and the report says so in its metadata.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geodesics import GeodesicParams, comparison_lower_bound, solve_radial_grid
from .jacobi import KINDS, jacobi_solution, kernel_on
from .stable import (TOL_SIGN, certificate, certificate_grid, stable_for, stencil_derivatives,
                     stencil_points)
from .warp import ProfileParams, k_parallel, k_perp, solve_warp

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


def find_r_star(
    eps: float,
    bracket_halfwidth: float = 0.1,
    tol: float = 1e-12,
) -> tuple[float, float]:
    """Locate r with Y'(0) = 0 on the radial geodesic of (r, eps).

    W'(0; r) = tan(r - r*) for every r (module docstring), so

        r* = pi/4 - arctan W'(0; pi/4)

    from one certificate.  Returns (r_star, |Y'(0)| at r_star), the residual
    from the stable solution at r_star that the scan's witness reuses.
    Raises BracketError when r_star falls outside the window
    [pi/4 - bracket_halfwidth, pi/4 + bracket_halfwidth].
    """
    lo = _QUARTER_PI - bracket_halfwidth
    hi = _QUARTER_PI + bracket_halfwidth
    w0 = certificate("parallel", GeodesicParams(0.0, _QUARTER_PI, eps), tol)
    r_star = _QUARTER_PI - math.atan(w0)
    if not lo <= r_star <= hi:
        raise BracketError(f"r* = {r_star!r} outside the window [{lo!r}, {hi!r}]")
    sol = stable_for("parallel", GeodesicParams(0.0, r_star, eps), tol=tol)
    return r_star, abs(sol.Y0 * sol.W_prime_0)


def verify_small_s(
    r: float,
    eps: float,
    sigma: float = 0.3,
    ds: float = 0.01,
    tol: float = 1e-10,
    tol_sign: float = TOL_SIGN,
) -> tuple[list[SmallSRecord], tuple[float, float], bool]:
    """Certificate method on 0 <= s <= sigma.

    Each grid point passes iff W'(0) <= tol_sign for both kernels; the
    concavity signature (d1 ~ 0, d2 < 0) of s -> W'(0) at s = 0 is checked
    as well.  Returns (records, (d1, d2) for the perpendicular kind, all
    passed).
    """
    grid = _grid(0.0, sigma, ds)
    stencil = stencil_points()
    ss = np.union1d(grid, stencil)
    certs = dict(zip(ss.tolist(), certificate_grid(ss, r, eps, tol)))
    records: list[SmallSRecord] = []
    ok = True
    for s in grid.tolist():
        cp, cq = certs[s]
        good = cp <= tol_sign and cq <= tol_sign
        ok = ok and good
        records.append(SmallSRecord(s, cp, cq, "pass" if good else "fail"))
    d1, d2 = stencil_derivatives([certs[s][1] for s in stencil])
    ok = ok and d2 < 0.0
    return records, (d1, d2), ok


def _negative_curvature_threshold(params: ProfileParams, tol: float) -> tuple[float, bool]:
    """rho0 past which both curvatures are negative, plus a sign-scan
    confirmation on [just below rho0, rho0 + 10]."""
    warp = solve_warp(params, tol=min(tol, 1e-12))
    rho0 = warp.negative_curvature_threshold()
    grid = np.linspace(rho0 + 1e-9, rho0 + 10.0, 2001)
    certified = bool(
        np.all(np.asarray(k_parallel(params, grid)) < 0.0)
        and np.all(np.asarray(k_perp(warp, grid)) < 0.0)
    )
    # the threshold must be sharp: K_perp just below rho0 is nonnegative
    below = rho0 - 1e-6
    if below > params.r + params.eps / 2.0:
        certified = certified and float(k_perp(warp, below)) >= 0.0
    return rho0, certified


def verify_large_s(
    r: float,
    eps: float,
    sigma: float = 0.3,
    S_cap: float | None = None,
    ds: float = 0.01,
    T: float = 20.0,
    tol: float = 1e-9,
) -> tuple[float, bool, list[MidSRecord], bool]:
    """Positivity method on sigma <= s <= rho0 (or S_cap).

    Past rho0 both curvatures are negative and Sturm comparison needs no
    integration; below it, each grid point passes iff both even fundamental
    solutions have positive minimum on [0, T] and positive exit slope.  The
    off-plane U = A(rho) cos(theta) / A(s) is positive on all of [0, T], not
    only at the 0.01-spaced samples, exactly when theta(T) < pi/2 (theta
    increases), so that is required as well.  Past T the Sturm argument
    needs both curvatures negative, so each point also requires
    rho(T) >= rho0 (rho increases).
    Returns (rho0, curvature_certified, records, all passed).
    """
    rho0, certified = _negative_curvature_threshold(ProfileParams(r, eps), tol)
    cap = rho0 if S_cap is None else S_cap
    records: list[MidSRecord] = []
    ok = certified
    sample = np.arange(0.0, T + 1e-12, 0.01)
    grid = _grid(sigma, cap, ds)
    for s, radial in zip(grid.tolist(), solve_radial_grid(grid, r, eps, T + 1.0, tol)):
        mins = {}
        good = True
        for kind in KINDS:
            kern = kernel_on(kind, radial)
            u, du = jacobi_solution(kern, (1.0, 0.0), T, tol).state(sample)
            mins[kind] = float(np.min(u))
            good = good and mins[kind] > 0.0 and float(du[-1]) > 0.0
            if kern.kind == "perpendicular":
                good = good and float(radial.theta(T)) < math.pi / 2.0
        good = good and float(radial.rho(T)) >= rho0
        ok = ok and good
        records.append(MidSRecord(s, mins["parallel"], mins["perpendicular"],
                                  "pass" if good else "fail"))
    return rho0, certified, records, ok


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


def _non_trapping_check(r: float, eps: float, tol: float) -> bool:
    """Every radial coordinate dominates the constant-drift comparison
    solution for the certified drift bound a."""
    warp = solve_warp(ProfileParams(r, eps), tol=min(tol, 1e-12))
    a = warp.min_log_slope()
    if not a > 0.0:
        return False
    ts = np.linspace(0.0, 12.0, 241)
    ss = (0.0, 0.5, 1.0)
    for s, sol in zip(ss, solve_radial_grid(ss, r, eps, 12.5, tol)):
        rho = np.asarray(sol.rho(ts))
        bound = np.asarray(comparison_lower_bound(a, s, 0.0, ts))
        if not np.all(rho >= bound - 100.0 * tol):
            return False
    return True


def assemble_report(
    eps: float,
    sigma: float = 0.3,
    ds: float = 0.01,
    bracket_halfwidth: float = 0.1,
    tol: float = 1e-10,
    root_tol: float = 1e-12,
    T_mid: float = 20.0,
) -> ScanReport:
    """Run the full pipeline for one eps and aggregate the verdicts.

    Success requires: a root r_star with small residual, the decaying
    witness at s = 0 (boundary conjugate points), all small-s certificates
    nonpositive with the concavity signature, all mid-s minima positive, the
    negative-curvature threshold confirmed, and the non-trapping bound.
    """
    metadata = {
        "sigma": sigma,
        "ds": ds,
        "bracket_halfwidth": bracket_halfwidth,
        "tol": tol,
        "method": (
            "certification by sampling on the stated grids; "
            "not a computer-assisted proof"
        ),
        "mollifier": "exp(-1/x) / (exp(-1/x) + exp(-1/(1-x))) ramp on [0, 1]",
    }

    def failed(reason: str, **partial) -> ScanReport:
        return ScanReport(
            eps=eps,
            r_star=partial.get("r_star", float("nan")),
            root_residual=partial.get("root_residual", float("nan")),
            small_s=partial.get("small_s", ()),
            mid_s=partial.get("mid_s", ()),
            large_s_threshold=partial.get("rho0", float("nan")),
            curvature_negativity_certified=partial.get("certified", False),
            overall=OVERALL_FAILED,
            failure_reason=reason,
            witness=partial.get("witness", {}),
            non_trapping_ok=partial.get("non_trapping", False),
            concavity=partial.get("concavity"),
            metadata=metadata,
        )

    try:
        r_star, residual = find_r_star(eps, bracket_halfwidth, root_tol)
    except BracketError as exc:
        return failed(f"bracket: {exc}")

    # Boundary-conjugate witness: the stable solution at s = 0 decays in
    # forward time and, extended evenly (W'(0) = 0 up to the root residual),
    # in backward time as well.  find_r_star took the residual from this
    # solution; rebuilding it reuses that radial solve.
    witness_sol = stable_for("parallel", GeodesicParams(0.0, r_star, eps), tol=root_tol)
    t_check = min(30.0, witness_sol.seed_horizon)
    y_end = abs(float(witness_sol.Y.value(t_check)))
    witness = {
        "T": t_check,
        "abs_Y_at_T": y_end,
        "decay_bound": 2.0 * math.exp(-t_check),
        "even_extension_slope": witness_sol.Y0 * witness_sol.W_prime_0,
    }
    witness_ok = y_end < 2.0 * math.exp(-t_check) and residual < 1e-8

    small_records, concavity, _ = verify_small_s(r_star, eps, sigma, ds, tol)
    rho0, certified, mid_records, _ = verify_large_s(
        r_star, eps, sigma, None, ds, T_mid, max(tol, 1e-9)
    )
    non_trapping = _non_trapping_check(r_star, eps, tol)
    small_failed = _failed_at(small_records)
    mid_failed = _failed_at(mid_records)

    checks = [
        (residual < 1e-10, f"root residual {residual:.3e} >= 1e-10"),
        (witness_ok, "boundary witness does not decay"),
        (not small_failed, f"small-s certificate method failed at s = {small_failed}"),
        (concavity[1] < 0.0, f"small-s concavity d2 = {concavity[1]:.3e} is not negative"),
        (not mid_failed, f"mid-s positivity method failed at s = {mid_failed}"),
        (certified, "negative-curvature threshold not confirmed"),
        (non_trapping, "non-trapping lower bound violated"),
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
