"""Parameter search and verification: boundary conjugate points without
interior ones.

For each mollification width eps the radius r_eps is located at which the
radial stable solution satisfies Y'(0) = 0; the metric then has boundary
conjugate points along radial geodesics.  Absence of interior conjugate
points is certified in three regimes:

* small s (certificate method): W'(0) <= 0 for both kernels on a grid
  0 <= s <= sigma, backed by the concavity signature of s -> W'(0) at 0;
* mid s (positivity method): the even fundamental solutions U stay positive
  on [0, T] with positive exit slope for sigma <= s <= rho0;
* large s (curvature method): past the threshold rho0 both sectional
  curvatures are negative, so Sturm comparison with Y'' = 0 rules out double
  zeros with no integration at all.

The grids certify concrete parameter triples by computation; this is
certification by sampling, not a computer-assisted proof, and the report
says so in its metadata.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .geodesics import GeodesicParams, comparison_lower_bound, solve_radial
from .jacobi import KINDS, jacobi_solution, make_kernel
from .stable import TOL_SIGN, certificate, certificate_s_derivatives, stable_for
from .warp import ProfileParams, k_parallel, k_perp, solve_warp

__all__ = [
    "Bracket",
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
    """Root bracket endpoints have equal signs (eps too large for the
    bracket width)."""


@dataclass(frozen=True)
class Bracket:
    r_lo: float
    r_hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        if not self.r_lo < self.r_hi:
            raise ValueError("bracket requires r_lo < r_hi")
        if not self.f_lo * self.f_hi < 0.0:
            raise BracketError(
                f"no sign change over [{self.r_lo}, {self.r_hi}]: "
                f"f = ({self.f_lo:.3e}, {self.f_hi:.3e})"
            )


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
        return {
            "eps": self.eps,
            "r_star": self.r_star,
            "root_residual": self.root_residual,
            "small_s": [[rec.s, rec.cert_parallel, rec.cert_perp, rec.verdict]
                        for rec in self.small_s],
            "mid_s": [[rec.s, rec.min_U_parallel, rec.min_U_perp, rec.verdict]
                      for rec in self.mid_s],
            "large_s_threshold": self.large_s_threshold,
            "curvature_negativity_certified": self.curvature_negativity_certified,
            "overall": self.overall,
            "failure_reason": self.failure_reason,
            "witness": self.witness,
            "non_trapping_ok": self.non_trapping_ok,
            "concavity": list(self.concavity) if self.concavity is not None else None,
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "ScanReport":
        return cls(
            eps=d["eps"],
            r_star=d["r_star"],
            root_residual=d["root_residual"],
            small_s=tuple(SmallSRecord(*row) for row in d["small_s"]),
            mid_s=tuple(MidSRecord(*row) for row in d["mid_s"]),
            large_s_threshold=d["large_s_threshold"],
            curvature_negativity_certified=d["curvature_negativity_certified"],
            overall=d["overall"],
            failure_reason=d["failure_reason"],
            witness=d["witness"],
            non_trapping_ok=d["non_trapping_ok"],
            concavity=tuple(d["concavity"]) if d["concavity"] is not None else None,
            metadata=d["metadata"],
        )

    @classmethod
    def from_json(cls, text: str) -> "ScanReport":
        return cls.from_dict(json.loads(text))


def _radial_slope_at_zero(r: float, eps: float, tol: float) -> float:
    """Y'(0) of the stable solution along the radial geodesic of (r, eps);
    the root function of the search."""
    sol = stable_for("parallel", GeodesicParams(0.0, r, eps), tol=tol)
    return sol.Y0 * sol.W_prime_0


def find_r_star(
    eps: float,
    bracket_halfwidth: float = 0.1,
    tol: float = 1e-12,
) -> tuple[float, float]:
    """Locate r with Y'(0) = 0 on the radial geodesic of (r, eps).

    Brackets pi/4 and runs Brent's method (bisection/secant/inverse
    quadratic) on r -> Y'(0).  Returns (r_star, |Y'(0)| at r_star).  Raises
    BracketError when the endpoint signs agree, which happens when eps is
    too large for the bracket.
    """
    r_lo = _QUARTER_PI - bracket_halfwidth
    r_hi = _QUARTER_PI + bracket_halfwidth
    f = lambda r: _radial_slope_at_zero(r, eps, tol)
    Bracket(r_lo, r_hi, f(r_lo), f(r_hi))  # validates the sign change
    r_star = float(brentq(f, r_lo, r_hi, xtol=1e-13, rtol=8.9e-16))
    return r_star, abs(f(r_star))


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
    records: list[SmallSRecord] = []
    ok = True
    for s in _grid(0.0, sigma, ds):
        mu = GeodesicParams(s, r, eps)
        cp = certificate("parallel", mu, tol)
        cq = certificate("perpendicular", mu, tol)
        good = cp <= tol_sign and cq <= tol_sign
        ok = ok and good
        records.append(SmallSRecord(s, cp, cq, "pass" if good else "fail"))
    d1, d2 = certificate_s_derivatives(
        "perpendicular", GeodesicParams(0.0, r, eps), tol=tol
    )
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
    increases), so that is required as well.
    Returns (rho0, curvature_certified, records, all passed).
    """
    rho0, certified = _negative_curvature_threshold(ProfileParams(r, eps), tol)
    cap = rho0 if S_cap is None else S_cap
    records: list[MidSRecord] = []
    ok = certified
    sample = np.arange(0.0, T + 1e-12, 0.01)
    for s in _grid(sigma, cap, ds):
        mu = GeodesicParams(s, r, eps)
        mins = {}
        good = True
        for kind in KINDS:
            kern = make_kernel(kind, mu, horizon=T + 1.0, tol=tol)
            u, du = jacobi_solution(kern, (1.0, 0.0), T, tol).state(sample)
            mins[kind] = float(np.min(u))
            good = good and mins[kind] > 0.0 and float(du[-1]) > 0.0
            if kern.kind == "perpendicular":
                good = good and float(kern.radial.theta(T)) < math.pi / 2.0
        ok = ok and good
        records.append(MidSRecord(s, mins["parallel"], mins["perpendicular"],
                                  "pass" if good else "fail"))
    return rho0, certified, records, ok


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    g = lo + step * np.arange(n)
    if g[-1] < hi - 1e-12:
        g = np.append(g, hi)
    return g


def _non_trapping_check(r: float, eps: float, tol: float) -> bool:
    """Every radial coordinate dominates the constant-drift comparison
    solution for the certified drift bound a."""
    warp = solve_warp(ProfileParams(r, eps), tol=min(tol, 1e-12))
    a = warp.min_log_slope()
    if not a > 0.0:
        return False
    ts = np.linspace(0.0, 12.0, 241)
    for s in (0.0, 0.5, 1.0):
        sol = solve_radial(GeodesicParams(s, r, eps), T=12.5, tol=tol)
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
    # in backward time as well.
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

    small_records, concavity, small_ok = verify_small_s(r_star, eps, sigma, ds, tol)
    rho0, certified, mid_records, mid_ok = verify_large_s(
        r_star, eps, sigma, None, ds, T_mid, max(tol, 1e-9)
    )
    non_trapping = _non_trapping_check(r_star, eps, tol)

    checks = [
        (residual < 1e-10, f"root residual {residual:.3e} >= 1e-10"),
        (witness_ok, "boundary witness does not decay"),
        (small_ok, "small-s certificate method failed"),
        (mid_ok, "mid-s positivity method failed"),
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
