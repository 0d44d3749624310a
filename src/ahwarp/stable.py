"""Decaying Jacobi solutions and the double-zero certificate W'(0).

Because both kernels satisfy k(t) -> -1 with an exponentially integrable
tail, each scalar Jacobi equation has a unique stable solution Y normalized
by e^t Y(t) -> 1.  Past the transition exit both kinds are closed form, so
the limit is taken exactly.  A solution is built whole, from the geodesic's
whole solve, whatever the kernel's horizon: that horizon only bounds the
domain on which Y is evaluated, nothing is seeded there and nothing is
dropped past it.

In-plane kernels: the kernel is exactly -1 past the transition exit t_x
(see ``jacobi``), so the stable solution *is* Y = e^{-t} there, with
W = Y'/Y = -1 exactly; nothing is seeded and nothing is dropped.  Across the
transition window [t_in, t_x] the kernel's transfer matrix M (det M = 1,
from the geodesic's window quadrature) carries it back without a solve of its
own (Reid, Riccati Differential Equations, 1972):

    (Y, Y')(t_in) = e^{-t_x} M^{-1} (1, -1) = e^{-t_x} adj(M) (1, -1).

The window is short, so this is well-conditioned linear algebra, not a
forward propagation of the decaying mode over a long span.  K_par <= 1, so
by Sturm comparison with Y'' = -Y two zeros of Y lie at least pi apart; on
a window shorter than pi (checked), Y > 0 at t_x leaves room for a zero
inside exactly when Y(t_in) <= 0, which is reported as a certificate
failure.  Inside the ball k = 1, so W = -tan(t - t_in - arctan W(t_in))
and

    W'(0) = tan(arctan W(t_in) + t_in),

with a zero of Y on [0, t_in] exactly when that angle reaches pi/2.  At
eps = 0 the window is empty and M is the identity.

Off-plane kernels: no solve at all.  The stable solution is the Killing
field Y = C A(rho) sin(phi) / A(s), phi = theta_inf - theta the angle the geodesic
has still to sweep (see ``jacobi`` and ``geodesics``), so

    W'(0) = -cot(phi(0)) / A(s) = -tan(pi/2 - theta_inf) / A(s),

with pi/2 - theta_inf taken without cancellation (small s puts theta_inf
within rounding of pi/2), and Y vanishes somewhere exactly when
phi(0) >= pi (phi decreases to 0).  The constant C comes from the exterior
(``geodesics``): with tau = t - t_x, e^{-tau} A(rho) -> p = (h_x + h'_x)/2
and phi ~ A(s) e^{-2 tau} / (2 p^2), so e^t Y -> C e^{t_x} / (2 p) and

    C = (h_x + h'_x) e^{-t_x},

which needs p > 0 (checked).  phi is exact past the transition, so nothing
is dropped: ``seed_residual`` is 0 for both kinds.

The normalized solution W = Y / Y(0) carries the whole conjugate-point
story: for an even integrable kernel, no nontrivial solution vanishes twice
if and only if W'(0) <= 0.  The certificate at the critical parameters is
available in closed form and serves as the oracle for both constructions.

Every stable solution, and so every certificate, rides on the geodesic's
window quadrature on the transition pair (``geodesics``); nothing is solved
to a tolerance that a caller could choose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ode import Trajectory
from .geodesics import GeodesicParams, RadialGrid, solve_radial_grid
from .jacobi import (KINDS, JacobiKernel, _check_tol, _in_plane_solution, killing_field, make_kernel,
                     theta_infinity)

__all__ = [
    "TOL_SIGN",
    "CertificateError",
    "StableSolution",
    "stable_solution",
    "stable_for",
    "certificate_grid",
    "certificate_s_derivatives",
    "stencil_points",
    "stencil_derivatives",
    "certificate_parallel_closed",
    "certificate_perp_closed",
    "radial_certificate_closed",
    "radial_stable_closed",
]

_QUARTER_PI = math.pi / 4.0

# Signed tolerance band for the sign decision W'(0) <= 0: no solution
# vanishes twice if and only if W'(0) <= 0, and the interesting locus is
# exactly W'(0) = 0.
TOL_SIGN = 1e-9

# The horizon of the radial solves of ``stable_for``.
_T0 = 30.0
_STENCIL_H = 5e-3


class CertificateError(RuntimeError):
    """The stable solution could not be certified (a zero of Y outside the
    continuity neighborhood, a transition window too long for the zero
    test, or a non-decaying kernel tail)."""


@dataclass(frozen=True, eq=False)
class StableSolution:
    """Stable solution with e^t Y(t) -> 1, on [0, seed_horizon] (the
    kernel's horizon), its value and normalized slope at 0, and the error
    dropped past the horizon: 0 for both kinds (the in-plane tail e^{-t} and
    the off-plane angle are exact there)."""

    kind: str
    params: GeodesicParams
    Y: Trajectory
    Y0: float
    W_prime_0: float
    seed_horizon: float
    seed_residual: float

    def W(self, t: float | np.ndarray) -> float | np.ndarray:
        return self.Y.value(t) / self.Y0


def stable_solution(kernel: JacobiKernel, kind: str | None = None) -> StableSolution:
    """Construct the stable solution of the kernel's Jacobi equation, on
    [0, the kernel's horizon]: e^{-t} past the transition, the window pair's
    combination adj(M) (1, -1) across it and an exact rotation through the
    ball for the in-plane kernel; the decaying Killing field for the
    off-plane one.  Nothing is integrated here; the in-plane window pair
    comes with the geodesic, and Y(0) and W'(0) are the row formulas of
    ``certificate_grid`` on the kernel's geodesic, a grid of one.

    ``kind`` overrides the label stored on the result (the s = 0
    perpendicular equation is solved as the parallel one, which is the
    same equation).
    """
    radial = kernel.radial
    if kernel.kind == "perpendicular":
        (scale, y0, w0), checks = _off_plane(radial)
        _refuse(radial, checks)
        Y = killing_field(kernel, 0.0, float(scale[0]), radial.T, angle="phi")
    else:
        (y_in, dy_in, y0, dy0), checks = _in_plane(radial)
        _refuse(radial, checks)
        w0 = dy0 / y0  # y0 > 0 once the zero tests pass
        Y = _in_plane_solution(radial, radial.entry_time, float(y_in[0]), float(dy_in[0]), radial.T,
                               lambda t: (np.exp(-t), -np.exp(-t)))
    return StableSolution(kind=kind or kernel.kind, params=kernel.params, Y=Y, Y0=float(y0[0]),
                          W_prime_0=float(w0[0]), seed_horizon=radial.T, seed_residual=0.0)


def _in_plane(radial: RadialGrid) -> tuple[tuple, list]:
    """((Y, Y')(t_in), (Y, Y')(0)) of the in-plane stable solution at each
    row (e^{-t} past t_x, adj(M) (1, -1) e^{-t_x} across the window, a
    rotation through the ball), and its zero tests (``_refuse``)."""
    t_in, t_x = radial.t_in, radial.t_x
    u, v, du, dv = radial.M.reshape(-1, 4).T
    # (Y, Y')(t_x) = e^{-t_x} (1, -1), so (Y, Y')(t_in) = e^{-t_x} adj(M) (1, -1)
    decay_x = radial.decay
    y_in, dy_in = (dv + v) * decay_x, -(du + u) * decay_x
    # arctan W(t_in) where Y(t_in) > 0, the only rows whose angle test is read
    angle, back = np.arctan2(dy_in, y_in) + t_in, -t_in  # ``back`` rotates from t_in to 0
    cos, sin = np.cos(back), np.sin(back)
    y0, dy0 = y_in * cos + dy_in * sin, dy_in * cos - y_in * sin
    return (y_in, dy_in, y0, dy0), [
        # the zero test rests on Sturm comparison with Y'' = -Y (module docstring)
        (t_x - t_in < math.pi, lambda i, mu: CertificateError(
            f"transition window [{t_in[i]}, {t_x[i]}] at {mu} is not shorter "
            "than pi; the zero test does not apply")),
        (y_in > 0.0, lambda i, mu: _vanishes(mu, f"Y(t_in) = {y_in[i]:.3e} <= 0")),
        (angle < math.pi / 2.0, lambda i, mu: _vanishes(
            mu, f"arctan W(t_in) + t_in = {angle[i]:.6f} >= pi/2"))]


def _off_plane(radial: RadialGrid) -> tuple[tuple, list]:
    """(C, Y(0), W'(0)) of Y = C A(rho) sin(phi) / A(s) at each row, with
    C = (h_x + h'_x) e^{-t_x} from the exterior (module docstring), and its
    zero tests.  phi(0) = pi/2 - psi is used through psi = pi/2 - theta_inf:
    cot(phi(0)) = tan(psi) has no cancellation for small s.  The radial
    geodesic (s = 0) has no angle; its off-plane equation is the in-plane
    one."""
    psi, (h_x, dh_x), radial_line = radial.psi, radial.exit.T, radial.s == 0.0
    scale = (h_x + dh_x) * radial.decay
    with np.errstate(divide="ignore", invalid="ignore"):
        w0 = -np.tan(psi) / radial.c
    return (scale, scale * np.cos(psi), w0), [
        (radial_line | (psi > -math.pi / 2.0),
         lambda i, mu: _vanishes(mu, f"phi(0) = {math.pi / 2.0 - psi[i]:.6f} >= pi")),
        (radial_line | (h_x + dh_x > 0.0), lambda i, mu: CertificateError(
            f"A(rho) does not grow past the transition at {mu}"))]


def _refuse(radial: RadialGrid, checks: list) -> None:
    """Raise the CertificateError of the first row whose zero test fails,
    the first failing test of that row in the order of ``checks``: the one
    that a construction geodesic by geodesic, in-plane before off-plane,
    meets first."""
    oks = np.array([ok for ok, _ in checks])
    if not oks.all():
        i, n = min((int(np.argmin(ok)), n) for n, ok in enumerate(oks) if not ok.all())
        raise checks[n][1](i, GeodesicParams(float(radial.s[i]), radial.r, radial.eps))


def _vanishes(params: GeodesicParams, detail: str) -> CertificateError:
    return CertificateError(
        f"stable solution at {params} vanishes ({detail}): "
        "outside the continuity neighborhood of the critical parameters"
    )


def stable_for(kind: str, params: GeodesicParams, tol: float = 1e-10) -> StableSolution:
    """Stable solution for mu = params, on a radial solve on [0, 30]; a
    ``tol`` below the floor raises ValueError (``jacobi._check_tol``).
    Each call solves its geodesic anew."""
    _check_tol(tol)
    kernel = make_kernel(kind, params, horizon=_T0)
    return stable_solution(kernel, kind=kind)


def certificate_grid(radial: RadialGrid) -> np.ndarray:
    """W'(0) of both kinds at each row of a grid (rows x 2: in-plane,
    off-plane), each the value that ``stable_for`` gives at its s bit for
    bit, as array formulas over the rows: in-plane adj(M) (1, -1) and the
    rotation through the ball, off-plane -tan(pi/2 - theta_inf) / A(s).
    At s = 0 both are the in-plane one.  Raises the CertificateError of the
    first row, in the order of s, whose zero test fails."""
    (_, _, y0, dy0), par_checks = _in_plane(radial)
    (_, _, perp), perp_checks = _off_plane(radial)
    _refuse(radial, par_checks + perp_checks)
    par = dy0 / y0  # y0 > 0 once the zero tests pass
    return np.stack((par, np.where(radial.s == 0.0, par, perp)), axis=1)


def stencil_points() -> tuple[float, ...]:
    """s = 0, h, 2h, 3h with h = 5e-3: the samples of s -> W'(0) behind
    :func:`stencil_derivatives`."""
    return tuple(i * _STENCIL_H for i in range(4))


def stencil_derivatives(f: Sequence[float]) -> tuple[float, float]:
    """One-sided finite differences at s = 0 of the samples f at
    ``stencil_points()``: s = 0 is a boundary of the parameter domain, so
    d1 = (-3 f0 + 4 f1 - f2)/(2h) and d2 = (2 f0 - 5 f1 + 4 f2 - f3)/h^2,
    both second-order accurate."""
    h = _STENCIL_H
    d1 = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    d2 = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / (h * h)
    return d1, d2


def certificate_s_derivatives(kind: str, params: GeodesicParams) -> tuple[float, float]:
    """One-sided finite differences (d1, d2) of s -> W'(0) at s = 0 (see
    :func:`stencil_derivatives`), from one :func:`certificate_grid` on the
    stencil points."""
    if params.s != 0.0:
        raise ValueError("s-derivatives of the certificate are taken at s = 0")
    certs = certificate_grid(solve_radial_grid(stencil_points(), params.r, params.eps, _T0))
    return stencil_derivatives(certs[:, KINDS.index(kind)].tolist())


# -- closed-form certificates and solutions (oracles) ------------------------


def certificate_parallel_closed(s: float) -> float:
    """W'(0) of the in-plane stable solution at (s, pi/4, 0):
    -(1 - sqrt(cos 2s)) / (1 + sqrt(cos 2s))."""
    if not 0.0 <= s < _QUARTER_PI:
        raise ValueError("closed parallel certificate requires 0 <= s < pi/4")
    c = math.sqrt(max(0.0, math.cos(2.0 * s)))
    return -(1.0 - c) / (1.0 + c)


def certificate_perp_closed(s: float) -> float:
    """W'(0) of the off-plane stable solution at (s, pi/4, 0):
    -csc(s) cot(theta_infinity(s)), extended by 0 at s = 0."""
    if not 0.0 <= s < _QUARTER_PI:
        raise ValueError("closed perpendicular certificate requires 0 <= s < pi/4")
    if s == 0.0:
        return 0.0
    return -math.cos(theta_infinity(s)) / (math.sin(theta_infinity(s)) * math.sin(s))


def radial_certificate_closed(r: float) -> float:
    """W'(0) along the radial geodesic of the sharp metric (0, r, 0):
    (sin r - cos r)/(sin r + cos r); vanishes exactly at r = pi/4."""
    return (math.sin(r) - math.cos(r)) / (math.sin(r) + math.cos(r))


def radial_stable_closed(r: float, t: float | np.ndarray) -> float | np.ndarray:
    """Stable solution along the radial geodesic of (0, r, 0):
    e^{-r}(cos(t - r) - sin(t - r)) inside the ball, e^{-t} outside."""
    t_arr = np.asarray(t, dtype=float)
    inside = math.exp(-r) * (np.cos(t_arr - r) - np.sin(t_arr - r))
    out = np.where(t_arr <= r, inside, np.exp(-t_arr))
    return float(out) if np.ndim(t) == 0 else out
