"""Decaying Jacobi solutions and the double-zero certificate W'(0).

Because both kernels satisfy k(t) -> -1 with an exponentially integrable
tail, each scalar Jacobi equation has a unique stable solution Y normalized
by e^t Y(t) -> 1.  Past the transition exit both kinds are closed form, so
the limit is taken exactly; a solution is evaluated on [0, the kernel's
horizon], nothing is seeded there and nothing is dropped past it.

In-plane kernels: the kernel is exactly -1 past the transition exit t_x
(see ``jacobi``), so the stable solution *is* Y = e^{-t} there, with
W = Y'/Y = -1 exactly; nothing is seeded and nothing is dropped.  Across the
transition window [t_in, t_x] the kernel's transfer matrix M (det M = 1,
from the geodesic's window solve) carries it back without a solve of its
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

Every stable solution, and so every certificate, rides on a radial solve at
one tolerance, 1e-12 (``_KERNEL_TOL``); no caller chooses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ode import Trajectory
from .geodesics import GeodesicParams, solve_radial_grid
from .jacobi import (KINDS, JacobiKernel, _rotation, kernel_on, killing_field, make_kernel,
                     theta_infinity)

__all__ = [
    "TOL_SIGN",
    "CertificateError",
    "StableSolution",
    "Certificates",
    "DoubleZeroVerdict",
    "stable_solution",
    "stable_for",
    "certificate",
    "certificate_grid",
    "certificate_s_derivatives",
    "stencil_points",
    "stencil_derivatives",
    "no_double_zero_criterion",
    "certificate_parallel_closed",
    "certificate_perp_closed",
    "radial_certificate_closed",
    "radial_stable_closed",
]

_QUARTER_PI = math.pi / 4.0

# Signed tolerance band for the sign decision of the criterion; the
# interesting locus is exactly W'(0) = 0, so near-zero certificates are
# flagged as marginal rather than silently classified.
TOL_SIGN = 1e-9

# The horizon of the radial solves of ``stable_for`` and ``certificate_grid``.
_T0 = 30.0
_STENCIL_H = 5e-3
# Every stable solution rides on a radial solve at this tolerance: an
# off-plane certificate carries the solve's angle error, amplified by
# 1 / (A(s) sin^2 phi(0)), and both kinds share one solve.
_KERNEL_TOL = 1e-12


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
    comes with the geodesic.

    ``kind`` overrides the label stored on the result (the s = 0
    perpendicular equation is integrated as the parallel one, which is the
    same equation).
    """
    build = _killing_stable if kernel.kind == "perpendicular" else _in_plane_stable
    Y, y0, w0 = build(kernel)
    return StableSolution(
        kind=kind or kernel.kind,
        params=kernel.params,
        Y=Y,
        Y0=y0,
        W_prime_0=w0,
        seed_horizon=kernel.radial.trajectory.t1,
        seed_residual=0.0,
    )


def _in_plane_stable(kernel: JacobiKernel) -> tuple[Trajectory, float, float]:
    """(Y, Y(0), W'(0)) of the in-plane stable solution: e^{-t} past t_x,
    adj(M) (1, -1) e^{-t_x} across the window, a rotation through the ball."""
    radial = kernel.radial
    t_in, t_x = radial.window
    # the zero test rests on Sturm comparison with Y'' = -Y (module docstring)
    if not t_x - t_in < math.pi:
        raise CertificateError(
            f"transition window [{t_in}, {t_x}] at {kernel.params} is not shorter "
            "than pi; the zero test does not apply")
    (u, v), (du, dv) = radial.transfer.tolist()
    # (Y, Y')(t_x) = e^{-t_x} (1, -1), so (Y, Y')(t_in) = e^{-t_x} adj(M) (1, -1)
    decay_x = math.exp(-t_x)
    y_in, dy_in = (dv + v) * decay_x, -(du + u) * decay_x
    if not y_in > 0.0:
        raise _vanishes(kernel, f"Y(t_in) = {y_in:.3e} <= 0")

    def decay(t: np.ndarray):
        y = np.exp(-t)
        return y, -y

    parts = [Trajectory.from_function(decay, t_x, radial.trajectory.t1)]
    if t_in < t_x:
        parts.insert(0, radial.window_solution(y_in, dy_in))
    w_in = dy_in / y_in
    angle = math.atan(w_in) + t_in
    if not angle < math.pi / 2.0:
        raise _vanishes(kernel, f"arctan W(t_in) + t_in = {angle:.6f} >= pi/2")
    ball = _rotation(t_in, y_in, dy_in)
    if t_in > 0.0:
        parts.insert(0, Trajectory.from_function(ball, 0.0, t_in))
    y0, dy0 = map(float, ball(0.0))
    return Trajectory.concat(parts), y0, dy0 / y0


def _killing_stable(kernel: JacobiKernel) -> tuple[Trajectory, float, float]:
    """(Y, Y(0), W'(0)) of Y = C A(rho) sin(phi) / A(s), with
    C = (h_x + h'_x) e^{-t_x} from the exterior (module docstring).
    phi(0) = pi/2 - psi is used through psi = ``theta_infinity_complement``:
    cot(phi(0)) = tan(psi) has no cancellation for small s."""
    radial = kernel.radial
    psi = radial.theta_infinity_complement  # refuses a geodesic still in the transition
    if not psi > -math.pi / 2.0:
        raise _vanishes(kernel, f"phi(0) = {math.pi / 2.0 - psi:.6f} >= pi")
    ext = radial.exterior
    if not ext.h_x + ext.dh_x > 0.0:
        raise CertificateError(f"A(rho) does not grow past the transition at {kernel.params}")
    scale = (ext.h_x + ext.dh_x) * math.exp(-ext.t_x)
    Y = killing_field(kernel, 0.0, scale, radial.trajectory.t1, angle="phi")
    return Y, scale * math.cos(psi), -math.tan(psi) / radial.a_s


def _vanishes(kernel: JacobiKernel, detail: str) -> CertificateError:
    return CertificateError(
        f"stable solution at {kernel.params} vanishes ({detail}): "
        "outside the continuity neighborhood of the critical parameters"
    )


def stable_for(kind: str, params: GeodesicParams, tol: float = 1e-10) -> StableSolution:
    """Stable solution for mu = params, on a radial solve on [0, 30] at
    ``_KERNEL_TOL``; a ``tol`` tighter than that raises ValueError.  Each
    call solves its geodesic anew."""
    if tol < _KERNEL_TOL:
        raise ValueError(f"tol = {tol} is tighter than the radial solve's {_KERNEL_TOL}")
    kernel = make_kernel(kind, params, horizon=_T0, tol=_KERNEL_TOL)
    return stable_solution(kernel, kind=kind)


def certificate(kind: str, params: GeodesicParams) -> float:
    """W'(0) = Y'(0)/Y(0) for the stable solution of the given kind."""
    return stable_for(kind, params).W_prime_0


class Certificates(tuple):
    """(W'(0) in-plane, W'(0) off-plane) at one s, a pair of floats, with
    the in-plane stable solution behind the first as ``stable``: at s = 0,
    the radial geodesic's, which a scan takes as its boundary-conjugate
    witness."""

    stable: StableSolution

    def __new__(cls, parallel: StableSolution, perp: StableSolution) -> "Certificates":
        pair = super().__new__(cls, (parallel.W_prime_0, perp.W_prime_0))
        pair.stable = parallel
        return pair


def certificate_grid(ss: Sequence[float], r: float, eps: float) -> list[Certificates]:
    """The certificates at each s of ``ss``, as ``certificate`` gives them
    one geodesic at a time, with the radial solves of the grid made by one
    ``geodesics.solve_radial_grid``."""
    return [Certificates(*(stable_solution(kernel_on(kind, radial), kind=kind) for kind in KINDS))
            for radial in solve_radial_grid(ss, r, eps, _T0, _KERNEL_TOL)]


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
    certs = certificate_grid(stencil_points(), params.r, params.eps)
    return stencil_derivatives([c[KINDS.index(kind)] for c in certs])


@dataclass(frozen=True)
class DoubleZeroVerdict:
    verdict: str  # "no-double-zeros" | "double-zero-exists"
    certificate: float
    marginal: bool


def no_double_zero_criterion(kind: str, params: GeodesicParams) -> DoubleZeroVerdict:
    """Decide whether the Jacobi equation admits a solution vanishing twice:
    it does not if and only if W'(0) <= 0, checked against the signed band
    ``TOL_SIGN``."""
    cert = certificate(kind, params)
    return DoubleZeroVerdict(
        verdict="no-double-zeros" if cert <= TOL_SIGN else "double-zero-exists",
        certificate=cert,
        marginal=abs(cert) < TOL_SIGN / 10.0,
    )


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
