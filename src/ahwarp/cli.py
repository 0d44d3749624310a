"""Command-line front end: plot-ready CSV/JSON artifacts for every pipeline.

Subcommands
-----------
profile    CSV: rho, A, A_prime, K_par, K_perp
geodesic   CSV: t, rho, rho_prime[, theta]   (theta only at (pi/4, 0))
jacobi     CSV: t, U, U_prime, V, V_prime, kernel
stable     JSON: {kind, s, r, eps, Y0, W_prime_0, seed_horizon, seed_residual}
           Y is normalized by e^t Y(t) -> 1, a limit taken in closed form;
           seed_horizon is the end of the span [0, 30] it is evaluated on;
           seed_residual is the error of W'(0) that the construction itself
           leaves: 0 for both kinds, since the parallel stable solution is
           exactly e^{-t} past the transition and the perpendicular one's
           angle is closed form there
find-r     JSON: {eps, r_star, root_residual}
           r_star = -arctan w(eps) from the transition pair; root_residual
           is |Y(0) W'(0)| of the radial stable solution at r_star, whose
           window is a quadrature on the pair's own A': it checks that
           quadrature against the pair, not the pair's series
scan       JSON: the full ScanReport; exit status 0 iff overall success

The parser is the only schema: each subcommand declares its options once.
Numbers must be finite, and step sizes, horizons and widths positive; the
metric is checked by the library's own ``GeodesicParams``/``ProfileParams``
before anything runs.  ``find-r`` and ``scan`` check only 0 <= eps < pi/2
there: their metric is (r*, eps), and r* is known only once the transition
pair is summed, so an eps with r* + eps >= pi/2 ends with one error line and
exit status 1.  The three table subcommands take ``--format csv|json``; the
others always write JSON.  ``find-r`` and ``scan`` pass --sigma, --ds and
--bracket-halfwidth to ``search`` only when given, so their defaults are the
library's.

Floats are written in their shortest round-trip representation, so two runs
with the same configuration produce byte-identical output.  No subcommand
takes a tolerance: nothing is integrated.  The transition pair is its
Taylor series in eps^2, which a scan's metadata states, and every
transition window is a quadrature on it.
Exit codes: 0 success, 1 computation failure (including arithmetic
overflow, a sample grid too large to allocate, and r* + eps >= pi/2 in
``find-r`` and ``scan``), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import geodesics, jacobi, search, stable, warp

__all__ = ["main"]

_QUARTER_PI = math.pi / 4.0


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _transition_width(eps: float) -> float:
    """eps in [0, pi/2), the check of ``find-r`` and ``scan`` (module
    docstring)."""
    if not 0.0 <= eps < math.pi / 2.0:
        raise ValueError(f"eps must lie in [0, pi/2), got {eps}")
    return eps


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _json(args: argparse.Namespace, payload) -> None:
    _emit(args, json.dumps(payload, indent=2) + "\n")


def _table(args: argparse.Namespace, header: list[str], columns: list[np.ndarray]) -> None:
    if args.fmt == "json":
        _json(args, {name: [float(v) for v in col] for name, col in zip(header, columns)})
        return
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(repr(float(v)) for v in row))
    _emit(args, "\n".join(lines) + "\n")


def _given(args: argparse.Namespace, *names: str) -> dict[str, float]:
    """The options among ``names`` that were given on the command line."""
    return {name: getattr(args, name) for name in names if name in vars(args)}


def _run_profile(args: argparse.Namespace, params: warp.ProfileParams) -> int:
    w = warp.solve_warp(params)
    rho = np.arange(args.drho, args.rho_max + 1e-12, args.drho)
    a_val, a_der = w.state(rho)
    kpar = np.asarray(warp.k_parallel(params, rho))
    kperp = np.asarray(warp.k_perp(w, rho))
    _table(args, ["rho", "A", "A_prime", "K_par", "K_perp"], [rho, a_val, a_der, kpar, kperp])
    return 0


def _run_geodesic(args: argparse.Namespace, mu: geodesics.GeodesicParams) -> int:
    sol = geodesics.solve_radial(mu, T=args.tmax)
    ts = np.arange(0.0, args.tmax + 1e-12, args.dt)
    rho, drho = sol.state(ts)
    header = ["t", "rho", "rho_prime"]
    cols = [ts, rho, drho]
    if mu.r == _QUARTER_PI and mu.eps == 0.0:
        header.append("theta")
        cols.append(np.asarray(geodesics.closed_theta(mu.s, ts)))
    _table(args, header, cols)
    return 0


def _run_jacobi(args: argparse.Namespace, mu: geodesics.GeodesicParams) -> int:
    kern = jacobi.make_kernel(args.kind, mu, horizon=args.tmax + 1.0)
    pair = jacobi.fundamental_pair(kern, T=args.tmax)
    ts = np.arange(0.0, args.tmax + 1e-12, args.dt)
    u, du = pair.U.state(ts)
    v, dv = pair.V.state(ts)
    kvals = np.asarray(kern.value(ts))
    _table(args, ["t", "U", "U_prime", "V", "V_prime", "kernel"], [ts, u, du, v, dv, kvals])
    return 0


def _run_stable(args: argparse.Namespace, mu: geodesics.GeodesicParams) -> int:
    sol = stable.stable_for(args.kind, mu)
    _json(args, {"kind": sol.kind, "s": mu.s, "r": mu.r, "eps": mu.eps, "Y0": sol.Y0,
                 "W_prime_0": sol.W_prime_0, "seed_horizon": sol.seed_horizon,
                 "seed_residual": sol.seed_residual})
    return 0


def _run_find_r(args: argparse.Namespace, _: float) -> int:
    r_star, residual = search.find_r_star(args.eps, **_given(args, "bracket_halfwidth"))
    _json(args, {"eps": args.eps, "r_star": r_star, "root_residual": residual})
    return 0


def _run_scan(args: argparse.Namespace, _: float) -> int:
    report = search.assemble_report(args.eps, **_given(args, "sigma", "ds", "bracket_halfwidth"))
    _emit(args, report.to_json() + "\n")
    return 0 if report.overall == search.OVERALL_SUCCESS else 1


def _metric(sp: argparse.ArgumentParser, make, names=("s", "r", "eps")) -> None:
    """--s, --r and --eps, those in ``names``; ``make``, a parameter class of
    the library, checks them as its arguments before anything runs, and its
    ValueError is a usage error of the subcommand."""
    options = {"s": (0.0, "distance of the geodesic from the origin (default: 0)"),
               "r": (_QUARTER_PI, "radius of the round ball (default: pi/4)"),
               "eps": (0.0, "width of the curvature transition (default: 0)")}
    for name in names:
        sp.add_argument(f"--{name}", type=_finite, default=options[name][0], help=options[name][1])

    def params(args: argparse.Namespace):
        try:
            return make(*(getattr(args, name) for name in names))
        except ValueError as exc:
            sp.error(str(exc))  # exits 2

    sp.set_defaults(params=params)


def _solve(sp: argparse.ArgumentParser) -> None:
    """--tmax and --dt of a radial solve and its samples."""
    sp.add_argument("--tmax", type=_positive, default=10.0, help="last sample time (default: 10)")
    sp.add_argument("--dt", type=_positive, default=0.05, help="sample spacing (default: 0.05)")


def _output(sp: argparse.ArgumentParser, table: bool = False) -> None:
    """--out, and --format for the subcommands that print tables."""
    sp.add_argument("--out", help="output file (default: stdout)")
    if table:
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv",
                        help="table format (default: csv)")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ahwarp",
        description="Warped-product AH metrics: geodesics, Jacobi fields, "
                    "and conjugate-point certificates.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)
    library = "(default: the library's)"
    kind = "in-plane or off-plane Jacobi equation (default: parallel)"

    sp = sub.add_parser("profile", help="dump A, A', K_par, K_perp over rho")
    _metric(sp, warp.ProfileParams, ("r", "eps"))
    sp.add_argument("--rho-max", type=_positive, default=10.0, help="last sample rho (default: 10)")
    sp.add_argument("--drho", type=_positive, default=0.01, help="sample spacing (default: 0.01)")
    _output(sp, table=True)
    sp.set_defaults(run=_run_profile)

    sp = sub.add_parser("geodesic", help="dump the radial coordinate of one geodesic")
    _metric(sp, geodesics.GeodesicParams)
    _solve(sp)
    _output(sp, table=True)
    sp.set_defaults(run=_run_geodesic)

    sp = sub.add_parser("jacobi", help="dump fundamental Jacobi solutions and the kernel")
    sp.add_argument("--kind", choices=jacobi.KINDS, default="parallel", help=kind)
    _metric(sp, geodesics.GeodesicParams)
    _solve(sp)
    _output(sp, table=True)
    sp.set_defaults(run=_run_jacobi)

    sp = sub.add_parser("stable", help="stable solution and certificate W'(0)")
    sp.add_argument("--kind", choices=jacobi.KINDS, default="parallel", help=kind)
    _metric(sp, geodesics.GeodesicParams)
    _output(sp)
    sp.set_defaults(run=_run_stable)

    sp = sub.add_parser("find-r", help="root of the radial certificate in r")
    _metric(sp, _transition_width, ("eps",))
    sp.add_argument("--bracket-halfwidth", dest="bracket_halfwidth", type=_positive,
                    default=argparse.SUPPRESS, help=f"half-width of the r* window {library}")
    _output(sp)
    sp.set_defaults(run=_run_find_r)

    sp = sub.add_parser("scan", help="full verification report for one eps")
    _metric(sp, _transition_width, ("eps",))
    sp.add_argument("--sigma", type=_positive, default=argparse.SUPPRESS,
                    help=f"end of the small-s certificates, start of the mid-s grid {library}")
    sp.add_argument("--ds", type=_positive, default=argparse.SUPPRESS,
                    help=f"step of the s grids {library}")
    sp.add_argument("--bracket-halfwidth", dest="bracket_halfwidth", type=_positive,
                    default=argparse.SUPPRESS, help=f"half-width of the r* window {library}")
    _output(sp)
    sp.set_defaults(run=_run_scan)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    params = args.params(args)
    try:
        return args.run(args, params)
    except (ValueError, RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"ahwarp: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
