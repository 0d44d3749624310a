"""Command-line front end: plot-ready CSV/JSON artifacts for every pipeline.

Subcommands
-----------
profile    CSV: rho, A, A_prime, K_par, K_perp
geodesic   CSV: t, rho, rho_prime[, theta]   (theta only at (pi/4, 0))
jacobi     CSV: t, U, U_prime, V, V_prime, kernel
stable     JSON: {kind, s, r, eps, Y0, W_prime_0, seed_horizon, seed_residual}
           seed_horizon is the fixed T0 with e^{T0} Y(T0) = 1; seed_residual
           is the error of W'(0) that the construction itself leaves: 0 for
           both kinds, since the parallel stable solution is exactly e^{-t}
           past the transition and the perpendicular one's angle is closed
           form there
find-r     JSON: {eps, r_star, root_residual}
           r_star = -arctan w(eps) from the transition pair; root_residual
           is |Y(0) W'(0)| of the radial stable solution at r_star, from a
           window solve independent of the pair, so it measures how far the
           two disagree
scan       JSON: the full ScanReport; exit status 0 iff overall success

Floats are written in their shortest round-trip representation, so two runs
with the same configuration produce byte-identical output.  ``geodesic`` and
``jacobi`` take the radial solve's tolerance --tol, whose default the
AHWARP_TOL environment variable sets (read when ``main`` runs, and only for
those two); the other subcommands solve at the tolerances fixed in ``stable``
and ``search``, which a scan's metadata states.
Exit codes: 0 success, 1 computation failure (including arithmetic
overflow), 2 usage error (including a malformed AHWARP_TOL).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import geodesics, jacobi, search, stable, warp

__all__ = ["RunConfig", "run", "main"]

_QUARTER_PI = math.pi / 4.0

TOL_MIN, TOL_MAX = 1e-12, 1e-4
DEFAULT_TOL = 1e-10


_NUMERIC = ("s", "r", "eps", "tmax", "dt", "rho_max", "drho", "tol", "sigma", "ds",
            "bracket_halfwidth")


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    s: float = 0.0
    r: float = _QUARTER_PI
    eps: float = 0.0
    kind: str = "parallel"
    tmax: float = 10.0
    dt: float = 0.05
    rho_max: float = 10.0
    drho: float = 0.01
    tol: float = DEFAULT_TOL
    sigma: float = 0.3
    ds: float = 0.01
    bracket_halfwidth: float = 0.1
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self) -> None:
        for name in _NUMERIC:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not TOL_MIN <= self.tol <= TOL_MAX:
            raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {self.tol}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        if self.s < 0.0:
            raise ValueError(f"s must be nonnegative, got {self.s}")
        if self.r <= 0.0 or self.eps < 0.0 or not self.r + self.eps < math.pi / 2:
            raise ValueError(
                f"profile parameters need r > 0, eps >= 0, r + eps < pi/2; "
                f"got r={self.r}, eps={self.eps}"
            )
        for name in ("tmax", "dt", "rho_max", "drho", "sigma", "ds", "bracket_halfwidth"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


def _emit(config: RunConfig, text: str) -> None:
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _table(header: list[str], columns: list[np.ndarray], fmt: str) -> str:
    if fmt == "json":
        payload = {name: [float(v) for v in col]
                   for name, col in zip(header, columns)}
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _run_profile(config: RunConfig) -> int:
    params = warp.ProfileParams(config.r, config.eps)
    w = warp.solve_warp(params)
    rho = np.arange(config.drho, config.rho_max + 1e-12, config.drho)
    a_val, a_der = w.state(rho)
    kpar = np.asarray(warp.k_parallel(params, rho))
    kperp = np.asarray(warp.k_perp(w, rho))
    _emit(config, _table(
        ["rho", "A", "A_prime", "K_par", "K_perp"],
        [rho, a_val, a_der, kpar, kperp],
        config.fmt,
    ))
    return 0


def _run_geodesic(config: RunConfig) -> int:
    mu = geodesics.GeodesicParams(config.s, config.r, config.eps)
    sol = geodesics.solve_radial(mu, T=config.tmax, tol=config.tol)
    ts = np.arange(0.0, config.tmax + 1e-12, config.dt)
    rho, drho = sol.state(ts)
    header = ["t", "rho", "rho_prime"]
    cols = [ts, rho, drho]
    if config.r == _QUARTER_PI and config.eps == 0.0:
        header.append("theta")
        cols.append(np.asarray(geodesics.closed_theta(config.s, ts)))
    _emit(config, _table(header, cols, config.fmt))
    return 0


def _run_jacobi(config: RunConfig) -> int:
    mu = geodesics.GeodesicParams(config.s, config.r, config.eps)
    kern = jacobi.make_kernel(config.kind, mu, horizon=config.tmax + 1.0, tol=config.tol)
    pair = jacobi.fundamental_pair(kern, T=config.tmax, tol=config.tol)
    ts = np.arange(0.0, config.tmax + 1e-12, config.dt)
    u, du = pair.U.state(ts)
    v, dv = pair.V.state(ts)
    kvals = np.asarray(kern.value(ts))
    _emit(config, _table(
        ["t", "U", "U_prime", "V", "V_prime", "kernel"],
        [ts, u, du, v, dv, kvals],
        config.fmt,
    ))
    return 0


def _run_stable(config: RunConfig) -> int:
    mu = geodesics.GeodesicParams(config.s, config.r, config.eps)
    sol = stable.stable_for(config.kind, mu)
    payload = {
        "kind": sol.kind,
        "s": mu.s,
        "r": mu.r,
        "eps": mu.eps,
        "Y0": sol.Y0,
        "W_prime_0": sol.W_prime_0,
        "seed_horizon": sol.seed_horizon,
        "seed_residual": sol.seed_residual,
    }
    _emit(config, json.dumps(payload, indent=2) + "\n")
    return 0


def _run_find_r(config: RunConfig) -> int:
    r_star, residual = search.find_r_star(config.eps, config.bracket_halfwidth)
    payload = {"eps": config.eps, "r_star": r_star, "root_residual": residual}
    _emit(config, json.dumps(payload, indent=2) + "\n")
    return 0


def _run_scan(config: RunConfig) -> int:
    report = search.assemble_report(
        config.eps,
        sigma=config.sigma,
        ds=config.ds,
        bracket_halfwidth=config.bracket_halfwidth,
    )
    _emit(config, report.to_json() + "\n")
    return 0 if report.overall == search.OVERALL_SUCCESS else 1


_RUNNERS = {
    "profile": _run_profile,
    "geodesic": _run_geodesic,
    "jacobi": _run_jacobi,
    "stable": _run_stable,
    "find-r": _run_find_r,
    "scan": _run_scan,
}


def run(config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit status."""
    return _RUNNERS[config.subcommand](config)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ahwarp",
        description="Warped-product AH metrics: geodesics, Jacobi fields, "
                    "and conjugate-point certificates.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def tolerance(sp):
        sp.add_argument("--tol", type=float, default=None,
                        help=f"tolerance of the radial solve (default {DEFAULT_TOL}, "
                        "or the AHWARP_TOL environment variable)")

    def common(sp, fmt_default="csv"):
        sp.add_argument("--out", type=str, default=None,
                        help="output file (default: stdout)")
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"),
                        default=fmt_default)

    sp = sub.add_parser("profile", help="dump A, A', K_par, K_perp over rho")
    sp.add_argument("--r", type=float, default=_QUARTER_PI)
    sp.add_argument("--eps", type=float, default=0.0)
    sp.add_argument("--rho-max", dest="rho_max", type=float, default=10.0)
    sp.add_argument("--drho", type=float, default=0.01)
    common(sp)

    sp = sub.add_parser("geodesic", help="dump the radial coordinate of one geodesic")
    sp.add_argument("--s", type=float, default=0.0)
    sp.add_argument("--r", type=float, default=_QUARTER_PI)
    sp.add_argument("--eps", type=float, default=0.0)
    sp.add_argument("--tmax", type=float, default=10.0)
    sp.add_argument("--dt", type=float, default=0.05)
    tolerance(sp)
    common(sp)

    sp = sub.add_parser("jacobi", help="dump fundamental Jacobi solutions and the kernel")
    sp.add_argument("--kind", choices=jacobi.KINDS, default="parallel")
    sp.add_argument("--s", type=float, default=0.0)
    sp.add_argument("--r", type=float, default=_QUARTER_PI)
    sp.add_argument("--eps", type=float, default=0.0)
    sp.add_argument("--tmax", type=float, default=10.0)
    sp.add_argument("--dt", type=float, default=0.05)
    tolerance(sp)
    common(sp)

    sp = sub.add_parser("stable", help="stable solution and certificate W'(0)")
    sp.add_argument("--kind", choices=jacobi.KINDS, default="parallel")
    sp.add_argument("--s", type=float, default=0.0)
    sp.add_argument("--r", type=float, default=_QUARTER_PI)
    sp.add_argument("--eps", type=float, default=0.0)
    common(sp, fmt_default="json")

    sp = sub.add_parser("find-r", help="root of the radial certificate in r")
    sp.add_argument("--eps", type=float, default=0.0)
    sp.add_argument("--bracket-halfwidth", dest="bracket_halfwidth",
                    type=float, default=0.1)
    common(sp, fmt_default="json")

    sp = sub.add_parser("scan", help="full verification report for one eps")
    sp.add_argument("--eps", type=float, default=0.0)
    sp.add_argument("--sigma", type=float, default=0.3)
    sp.add_argument("--ds", type=float, default=0.01)
    sp.add_argument("--bracket-halfwidth", dest="bracket_halfwidth",
                    type=float, default=0.1)
    common(sp, fmt_default="json")

    return p


def _default_tol(parser: argparse.ArgumentParser) -> float:
    raw = os.environ.get("AHWARP_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return float(raw)
    except ValueError:
        parser.error(f"AHWARP_TOL must be a number, got {raw!r}")  # exits 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if "tol" in vars(args) and args.tol is None:
        args.tol = _default_tol(parser)
    fields = {k: v for k, v in vars(args).items() if v is not None or k == "out"}
    try:
        config = RunConfig(**fields)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    try:
        return run(config)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"ahwarp: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
