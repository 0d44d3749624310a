"""Decaying Jacobi solutions and the double-zero certificate W'(0).

Because both kernels satisfy k(t) -> -1 with an exponentially integrable
tail, each scalar Jacobi equation has a unique stable solution Y normalized
by e^t Y(t) -> 1; here it is normalized at a fixed horizon T0 by
e^{T0} Y(T0) = 1.

In-plane kernels: one backward solve of the log-Riccati equation for
x = log(e^t Y),

    x'' = -k(t) - (x' - 1)^2,        x(T0) = 0,  x'(T0) = 0,

i.e. the Riccati variable W = Y'/Y = x' - 1 seeded with its limit -1 at T0.
The Riccati flow W' = -k - W^2 contracts in backward time (Reid, Riccati
Differential Equations, 1972): an error d in W(T0) reaches t = 0 damped by
(Y(T0)/Y(0))^2, so the seed error is bounded a priori by
1/2 |1 + k(T0)| exp(-2 (T0 + x(0))) -- exactly 0, since the in-plane tail is
exactly -1.  Then Y(0) = exp(x(0)), W'(0) = x'(0) - 1 and
Y(t) = exp(x(t) - t).  A zero of Y on [0, T0] is a pole of the log-Riccati
solution, which the solve reports as a certificate failure.

Off-plane kernels: no solve at all.  The stable solution is the Killing
field Y = C A(rho) sin(phi), phi = theta_inf - theta the angle the geodesic
has still to sweep (see ``jacobi`` and ``geodesics``), so

    W'(0) = -cot(phi(0)) / A(s),

and Y vanishes somewhere exactly when phi(0) >= pi (phi decreases to 0).
The tail of Clairaut's rate past the kernel horizon is dropped from phi; its
bound, carried to W'(0), is the ``seed_residual``.

The normalized solution W = Y / Y(0) carries the whole conjugate-point
story: for an even integrable kernel, no nontrivial solution vanishes twice
if and only if W'(0) <= 0.  The certificate at the critical parameters is
available in closed form and serves as the oracle for both constructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .ode import IntegrationError, Rhs, Trajectory, integrate_backward
from .geodesics import GeodesicParams
from .jacobi import JacobiKernel, killing_field, make_kernel, theta_infinity

__all__ = [
    "TOL_SIGN",
    "CertificateError",
    "StableSolution",
    "DoubleZeroVerdict",
    "stable_solution",
    "stable_for",
    "certificate",
    "certificate_s_derivatives",
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

_KERNEL_HORIZON = 50.0
# Time left past T0 before the kernel horizon: the angle tail dropped there is
# then e^{-2 * 20} ~ 4e-18 relative to phi(T0), below rounding.
_ANGLE_MARGIN = 20.0


class CertificateError(RuntimeError):
    """The stable solution could not be certified (a zero of Y on [0, T0]
    outside the continuity neighborhood, or a non-decaying kernel tail)."""


@dataclass(frozen=True, eq=False)
class StableSolution:
    """Stable solution on [0, seed_horizon] with e^{T0} Y(T0) = 1, its value
    and normalized slope at 0, the fixed horizon T0 and the a-priori bound
    on the certificate error: from seeding W(T0) = -1 (in-plane) or from the
    angle tail dropped past the kernel horizon (off-plane)."""

    kind: str
    params: GeodesicParams
    Y: Trajectory
    Y0: float
    W_prime_0: float
    seed_horizon: float
    seed_residual: float

    def W(self, t: float | np.ndarray) -> float | np.ndarray:
        return self.Y.value(t) / self.Y0


def _log_riccati(branch: Rhs) -> Rhs:
    """x'' = -k(t) - (x' - 1)^2 from one branch of Y'' = -k(t) Y; the branch
    is linear in Y, so branch(t, 1, 0) = -k(t)."""

    def rhs(t: float, x: float, v: float) -> float:
        w = v - 1.0
        return branch(t, 1.0, 0.0) - w * w

    return rhs


def stable_solution(
    kernel: JacobiKernel,
    tol: float = 1e-10,
    T0: float = 30.0,
    kind: str | None = None,
) -> StableSolution:
    """Construct the stable solution of the kernel's Jacobi equation: one
    backward log-Riccati solve from W(T0) = -1 for the in-plane kernel, the
    decaying Killing field for the off-plane one.

    ``kind`` overrides the label stored on the result (the s = 0
    perpendicular equation is integrated as the parallel one, which is the
    same equation).
    """
    horizon = kernel.radial.trajectory.grid.t1
    if T0 > horizon:
        raise ValueError(f"seed horizon T0 = {T0} beyond the kernel horizon {horizon}")
    if kernel.kind == "perpendicular":
        return _killing_stable(kernel, tol, T0, kind)
    base, breaks = kernel.rhs_pieces()
    breaks = tuple(replace(b, rhs_after=_log_riccati(b.rhs_after)) for b in breaks)
    try:
        # a zero of Y is a pole of x': the solve stalls or overflows before it
        with np.errstate(over="raise", invalid="raise"):
            log_y = integrate_backward(_log_riccati(base), T0, (0.0, 0.0), 0.0, tol,
                                       breaks=breaks)
            x0, v0 = float(log_y.values[0]), float(log_y.derivs[0])
            residual = 0.5 * abs(1.0 + float(kernel.value(T0))) * math.exp(-2.0 * (T0 + x0))
    except (IntegrationError, ArithmeticError) as exc:
        raise _vanishes(kernel, T0, str(exc)) from exc
    if not residual < tol:
        raise _seed_bound_error(kernel, residual, tol)

    def exp_shift(t: np.ndarray, x: np.ndarray, v: np.ndarray):
        y = np.exp(x - t)
        return y, y * (v - 1.0)

    return StableSolution(
        kind=kind or kernel.kind,
        params=kernel.params,
        Y=log_y.map(exp_shift),
        Y0=math.exp(x0),
        W_prime_0=v0 - 1.0,
        seed_horizon=T0,
        seed_residual=residual,
    )


def _killing_stable(kernel: JacobiKernel, tol: float, T0: float,
                    kind: str | None) -> StableSolution:
    """Y = C A(rho) sin(phi) with e^{T0} Y(T0) = 1."""
    radial = kernel.radial
    a_s = float(kernel.warp.value(kernel.params.s))
    phi0 = radial.theta_infinity
    if not phi0 < math.pi:
        raise _vanishes(kernel, T0, f"phi(0) = {phi0:.6f} >= pi")
    # d W'(0) / d phi(0) = 1 / (A(s) sin^2 phi(0))
    residual = radial.angle_tail_bound / (a_s * math.sin(phi0) ** 2)
    if not residual < tol:
        raise _seed_bound_error(kernel, residual, tol)
    phi_T = float(radial.angles(T0)[1][0])
    if not phi_T > 0.0:
        raise ValueError(f"seed horizon T0 = {T0} leaves no angle before the kernel horizon")
    a_T = float(kernel.warp.value(float(radial.rho(T0))))
    scale = math.exp(-T0) * a_s / (a_T * math.sin(phi_T))
    return StableSolution(
        kind=kind or kernel.kind,
        params=kernel.params,
        Y=killing_field(kernel, 0.0, scale, T0, angle="phi"),
        Y0=scale * math.sin(phi0),
        W_prime_0=-math.cos(phi0) / (math.sin(phi0) * a_s),
        seed_horizon=T0,
        seed_residual=residual,
    )


def _vanishes(kernel: JacobiKernel, T0: float, detail: str) -> CertificateError:
    return CertificateError(
        f"stable solution at {kernel.params} vanishes on [0, {T0}] ({detail}): "
        "outside the continuity neighborhood of the critical parameters"
    )


def _seed_bound_error(kernel: JacobiKernel, residual: float, tol: float) -> CertificateError:
    return CertificateError(
        f"seed bound {residual:.3e} at {kernel.params} is not below tol = {tol}; "
        "non-decaying kernel tail?"
    )


@lru_cache(maxsize=None)
def _stable_cached(kind: str, s: float, r: float, eps: float,
                   tol: float, T0: float) -> StableSolution:
    # An off-plane certificate carries the angle error of the radial solve,
    # amplified by 1 / (A(s) sin^2 phi(0)); both kinds share one solve.
    kernel = make_kernel(kind, GeodesicParams(s, r, eps),
                         horizon=max(_KERNEL_HORIZON, T0 + _ANGLE_MARGIN),
                         tol=min(tol, 1e-12))
    return stable_solution(kernel, tol=tol, T0=T0, kind=kind)


def stable_for(kind: str, params: GeodesicParams, tol: float = 1e-10,
               T0: float = 30.0) -> StableSolution:
    """Cached stable solution for mu = params."""
    return _stable_cached(kind, params.s, params.r, params.eps, tol, T0)


def certificate(kind: str, params: GeodesicParams, tol: float = 1e-10) -> float:
    """W'(0) = Y'(0)/Y(0) for the stable solution of the given kind."""
    return stable_for(kind, params, tol).W_prime_0


def certificate_s_derivatives(
    kind: str,
    params: GeodesicParams,
    h: float = 5e-3,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """One-sided finite differences of s -> W'(0) at s = 0.

    s = 0 is a boundary of the parameter domain, so one-sided stencils are
    used: d1 = (-3 f0 + 4 f1 - f2)/(2h) and d2 = (2 f0 - 5 f1 + 4 f2 - f3)/h^2,
    both second-order accurate.
    """
    if params.s != 0.0:
        raise ValueError("s-derivatives of the certificate are taken at s = 0")
    if not 1e-3 <= h <= 1e-1:
        raise ValueError(f"stencil step h = {h} outside [1e-3, 1e-1]")
    f = [certificate(kind, GeodesicParams(i * h, params.r, params.eps), tol)
         for i in range(4)]
    d1 = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    d2 = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / (h * h)
    return d1, d2


@dataclass(frozen=True)
class DoubleZeroVerdict:
    verdict: str  # "no-double-zeros" | "double-zero-exists"
    certificate: float
    marginal: bool


def no_double_zero_criterion(
    kind: str,
    params: GeodesicParams,
    tol: float = 1e-10,
    tol_sign: float = TOL_SIGN,
) -> DoubleZeroVerdict:
    """Decide whether the Jacobi equation admits a solution vanishing twice:
    it does not if and only if W'(0) <= 0, checked against a signed band."""
    cert = certificate(kind, params, tol)
    return DoubleZeroVerdict(
        verdict="no-double-zeros" if cert <= tol_sign else "double-zero-exists",
        certificate=cert,
        marginal=abs(cert) < tol_sign / 10.0,
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
