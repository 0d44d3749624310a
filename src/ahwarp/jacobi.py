"""Scalar Jacobi equations along the geodesic family and their closed forms.

Normal Jacobi fields along a geodesic of the warped-product metric reduce to
two scalar equations Y'' + k(t) Y = 0: the in-plane kernel is
k(t) = K_par(rho(t)) and the off-plane kernel is the angle-weighted mix

    k(t) = rho'(t)^2 K_par(rho(t)) + (1 - rho'(t)^2) K_perp(rho(t)).

Both kernels equal 1 while the geodesic runs inside the round ball and tend
to -1 exponentially as t -> infinity.  For eps = 0 the kernel jumps at the
entry time and the solutions are C^1 weak solutions; the integrator places a
node exactly at the jump and integrates each smooth branch separately.

Only the in-plane equation is integrated.  Rotations of S^n are isometries,
and a Killing field restricted to a geodesic is a Jacobi field (do Carmo,
Riemannian Geometry, ch. 5).  The rotations that tilt the geodesic's plane
give the off-plane solutions A(rho(t)) cos theta(t) and A(rho(t)) sin theta(t),
theta the angular coordinate with Clairaut's rate theta' = A(s)/A(rho)^2 (see
``geodesics``).  So the off-plane fundamental pair is

    U = A(rho) cos(theta) / A(s),    V = A(rho) sin(theta),

with Wronskian U V' - U' V = A^2 theta' / A(s) = 1 identically, and the
decaying solution is A(rho) sin(theta_inf - theta).  Along the radial
geodesic (s = 0) the two equations coincide and the off-plane kernel is
built as the in-plane one.

At (r, eps) = (pi/4, 0) every fundamental solution is known in closed form;
those formulas (and the phase function Theta with its limit Theta_infinity)
are implemented here as oracles for the numerical pipeline.  There Theta is
the angular coordinate itself past the entry time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ode import Break, Rhs, Trajectory, integrate_ivp
from .geodesics import (
    GeodesicParams,
    RadialSolution,
    entry_time,
    growth_factor,
    solve_radial,
)
from .warp import WarpFunction, k_parallel

__all__ = [
    "JacobiKernel",
    "FundamentalPair",
    "make_kernel",
    "killing_field",
    "jacobi_solution",
    "fundamental_pair",
    "closed_U_parallel",
    "closed_V_parallel",
    "closed_U_perp",
    "closed_V_perp",
    "theta",
    "theta_infinity",
]

_QUARTER_PI = math.pi / 4.0
_SQRT2 = math.sqrt(2.0)

KINDS = ("parallel", "perpendicular")


@dataclass(frozen=True, eq=False)
class JacobiKernel:
    """The coefficient k(t) of one scalar Jacobi equation, assembled from a
    radial solution (which carries the warp function).  Pure and
    immutable."""

    kind: str
    params: GeodesicParams
    radial: RadialSolution

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")

    @property
    def warp(self) -> WarpFunction:
        return self.radial.warp

    # -- region layout -----------------------------------------------------

    @property
    def entry(self) -> float | None:
        return self.radial.entry_time

    @property
    def exit(self) -> float | None:
        """End of the mollified transition along the geodesic (eps > 0), or
        the entry time itself when eps = 0 (sharp jump)."""
        if self.params.eps == 0.0:
            return self.entry
        return self.radial.transition_exit_time

    def _region_bounds(self) -> tuple[float | None, float | None]:
        """(end of the ball region, end of the transition region), either
        possibly None when the geodesic starts past it."""
        s, r, eps = self.params.s, self.params.r, self.params.eps
        if s >= r + eps:
            return None, None
        if eps == 0.0:
            return self.entry, self.entry
        t_out = self.radial.transition_exit_time
        if t_out is None:
            raise ValueError(
                "radial horizon too small: the geodesic has not left the "
                "transition zone"
            )
        return (self.entry if s < r else None), t_out

    # -- evaluation ---------------------------------------------------------

    def _k_exterior(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "parallel":
            return np.full_like(np.asarray(t, dtype=float), -1.0)
        rho, drho = self.radial.state(t)
        ep = np.exp(rho)
        em = np.exp(-rho)
        a_val = self.warp.a_plus * ep + self.warp.a_minus * em
        a_der = self.warp.a_plus * ep - self.warp.a_minus * em
        kperp = (1.0 - a_der * a_der) / (a_val * a_val)
        w2 = drho * drho
        return -w2 + (1.0 - w2) * kperp

    def _k_transition(self, t: np.ndarray) -> np.ndarray:
        rho, drho = self.radial.state(t)
        kpar = np.asarray(k_parallel(self.params.profile, rho))
        if self.kind == "parallel":
            return kpar
        a_val, a_der = self.warp.state(rho)
        kperp = (1.0 - a_der * a_der) / (a_val * a_val)
        w2 = drho * drho
        return w2 * kpar + (1.0 - w2) * kperp

    def value(self, t: float | np.ndarray) -> float | np.ndarray:
        """k(t), with the inside value (k = 1) at a sharp junction, matching
        the H(0) = 0 convention of the curvature profile."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t_arr)
        t_in, t_out = self._region_bounds()
        inside = t_arr <= t_in if t_in is not None else np.zeros_like(t_arr, dtype=bool)
        exterior = t_arr > t_out if t_out is not None else np.ones_like(t_arr, dtype=bool)
        mid = ~(inside | exterior)
        out[inside] = 1.0
        if np.any(mid):
            out[mid] = self._k_transition(t_arr[mid])
        if np.any(exterior):
            out[exterior] = self._k_exterior(t_arr[exterior])
        return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out

    # -- integrator plumbing -------------------------------------------------

    def rhs_pieces(self) -> tuple[Rhs, tuple[Break, ...]]:
        """Base right-hand side plus breakpoints for the in-plane equation
        Y'' = -K_par(rho(t)) Y, each segment carrying the smooth extension of
        its own kernel branch (scalar arithmetic: hot path).  The off-plane
        equation is never integrated: see :func:`killing_field`."""
        if self.kind != "parallel":
            raise ValueError("only the in-plane Jacobi equation is integrated; "
                             "off-plane solutions are Killing fields")
        radial = self.radial
        profile = self.params.profile

        def rhs_inside(t: float, x: float, v: float) -> float:
            return -x

        def rhs_transition(t: float, x: float, v: float) -> float:
            rho, _ = radial.state_scalar(t)
            return -float(k_parallel(profile, rho)) * x

        def rhs_exterior(t: float, x: float, v: float) -> float:
            return x

        t_in, t_out = self._region_bounds()
        breaks: list[Break] = []
        if t_in is not None:
            base = rhs_inside
            if self.params.eps > 0.0:
                breaks.append(Break(t_in, "entry", rhs_transition))
                breaks.append(Break(t_out, "transition_exit", rhs_exterior))
            else:
                breaks.append(Break(t_in, "entry", rhs_exterior))
        elif t_out is not None:
            base = rhs_transition
            breaks.append(Break(t_out, "transition_exit", rhs_exterior))
        else:
            base = rhs_exterior
        return base, tuple(breaks)


@lru_cache(maxsize=None)
def _make_kernel_cached(kind: str, s: float, r: float, eps: float,
                        horizon: float, tol: float) -> JacobiKernel:
    params = GeodesicParams(s, r, eps)
    # Along radial geodesics the two scalar equations coincide; building the
    # perpendicular kernel at s = 0 as the parallel one avoids 0/0 limits.
    effective = "parallel" if s == 0.0 else kind
    radial = solve_radial(params, T=horizon, tol=tol)
    return JacobiKernel(kind=effective, params=params, radial=radial)


def make_kernel(
    kind: str,
    params: GeodesicParams,
    horizon: float = 50.0,
    tol: float = 1e-11,
) -> JacobiKernel:
    """Assemble (and cache) the Jacobi kernel of the given kind along the
    geodesic mu = params, usable for t in [0, horizon]."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return _make_kernel_cached(kind, params.s, params.r, params.eps, horizon, tol)


def killing_field(
    kernel: JacobiKernel,
    p: float,
    q: float,
    T: float,
    angle: str = "theta",
) -> Trajectory:
    """The off-plane Jacobi field

        Y(t) = A(rho(t)) / A(s) * (p cos a(t) + q sin a(t))

    on [0, T]: a rotation of S^n restricted to the geodesic.  ``angle``
    selects a = theta (then p = Y(0) and q = A(s) Y'(0)) or a = phi =
    theta_inf - theta, in which the decaying field A sin(phi) keeps its full
    relative precision.  Accuracy follows the radial solve of the kernel.
    """
    if kernel.kind != "perpendicular":
        raise ValueError("Killing fields solve the off-plane equation only (s > 0)")
    if angle not in ("theta", "phi"):
        raise ValueError(f"angle must be 'theta' or 'phi', got {angle!r}")
    radial = kernel.radial
    horizon = radial.trajectory.grid.t1
    if not 0.0 < T <= horizon:
        raise ValueError(f"horizon T = {T} outside (0, {horizon}] of the kernel")
    warp = kernel.warp
    a_s = float(warp.value(kernel.params.s))
    sign = 1.0 if angle == "theta" else -1.0  # phi' = -theta'

    def fn(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rho, drho = radial.state(t)
        a, da = warp.state(rho)
        theta, phi = radial.angles(t)
        ang = theta if angle == "theta" else phi
        c, sn = np.cos(ang), np.sin(ang)
        comb = p * c + q * sn
        # (A/A(s))' = A' rho' / A(s) and (A/A(s)) a' = sign / A (Clairaut)
        return (a / a_s) * comb, (da * drho / a_s) * comb + sign * (q * c - p * sn) / a

    nodes = radial.trajectory.grid.nodes
    nodes = np.append(nodes[nodes < T], T)
    events = [(te, label) for te, label in radial.trajectory.events if te <= T]
    return Trajectory.from_function(fn, nodes, events)


@dataclass(frozen=True, eq=False)
class FundamentalPair:
    """Solutions U (U(0)=1, U'(0)=0) and V (V(0)=0, V'(0)=1) of one scalar
    Jacobi equation; their Wronskian U V' - U' V is identically 1."""

    U: Trajectory
    V: Trajectory

    def wronskian(self, t: float | np.ndarray) -> np.ndarray:
        u, du = self.U.state(t)
        v, dv = self.V.state(t)
        return u * dv - du * v

    def wronskian_deviation(self, t: float | np.ndarray) -> np.ndarray:
        """|W - 1| relative to the size of the bilinear terms.  Both
        solutions grow like e^t, so past t ~ 17 the absolute Wronskian sits
        below the cancellation floor of double precision no matter how
        accurate the integration; the relative form is the meaningful
        conservation statement."""
        u, du = self.U.state(t)
        v, dv = self.V.state(t)
        scale = np.maximum(1.0, np.abs(u * dv) + np.abs(du * v))
        return np.abs(u * dv - du * v - 1.0) / scale


def jacobi_solution(
    kernel: JacobiKernel,
    initial: tuple[float, float],
    T: float = 20.0,
    tol: float = 1e-10,
) -> Trajectory:
    """The solution of Y'' + k(t) Y = 0 on [0, T] with (Y(0), Y'(0)) =
    ``initial``: integrated for the in-plane kernel, the Killing field of
    :func:`killing_field` for the off-plane one (``tol`` unused there)."""
    if not T > 0.0:
        raise ValueError("horizon T must be positive")
    y0, dy0 = initial
    if kernel.kind == "perpendicular":
        a_s = float(kernel.warp.value(kernel.params.s))
        return killing_field(kernel, y0, dy0 * a_s, T)
    base, breaks = kernel.rhs_pieces()
    return integrate_ivp(base, 0.0, (y0, dy0), T, tol, breaks=breaks)


def fundamental_pair(kernel: JacobiKernel, T: float = 20.0, tol: float = 1e-10) -> FundamentalPair:
    """The fundamental solutions U, V of Y'' + k(t) Y = 0 on [0, T]."""
    return FundamentalPair(U=jacobi_solution(kernel, (1.0, 0.0), T, tol),
                           V=jacobi_solution(kernel, (0.0, 1.0), T, tol))


# -- closed forms at (r, eps) = (pi/4, 0) ------------------------------------


def closed_U_parallel(s: float, t: float | np.ndarray) -> float | np.ndarray:
    """In-plane fundamental solution U at (pi/4, 0); even in t.

    The outside branch cos(l) cosh(x) - sin(l) sinh(x) is evaluated in the
    exponential form ((cos l - sin l) e^x + (cos l + sin l) e^{-x}) / 2; the
    hyperbolic form cancels catastrophically once e^{-x} drops below the
    ulp of cosh(x) (x around 18), and both coefficients are nonnegative for
    l <= pi/4 so the rearrangement is stable.
    """
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    ta = np.abs(np.asarray(t, dtype=float))
    if s >= _QUARTER_PI:
        out = np.cosh(ta)
    elif s == 0.0:
        # degenerate entry at exactly pi/4: the growing coefficient vanishes
        outside = (_SQRT2 / 2.0) * np.exp(-(ta - _QUARTER_PI))
        out = np.where(ta <= _QUARTER_PI, np.cos(ta), outside)
    else:
        ell = entry_time(s, _QUARTER_PI)
        x = np.maximum(ta, ell) - ell
        c, si = math.cos(ell), math.sin(ell)
        outside = 0.5 * ((c - si) * np.exp(x) + (c + si) * np.exp(-x))
        out = np.where(ta <= ell, np.cos(ta), outside)
    return float(out) if np.ndim(t) == 0 else out


def closed_V_parallel(s: float, t: float | np.ndarray) -> float | np.ndarray:
    """In-plane fundamental solution V at (pi/4, 0); odd in t."""
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    t_arr = np.asarray(t, dtype=float)
    ta = np.abs(t_arr)
    if s >= _QUARTER_PI:
        out = np.sinh(t_arr)
    else:
        ell = entry_time(s, _QUARTER_PI)
        x = np.maximum(ta, ell) - ell
        c, si = math.cos(ell), math.sin(ell)
        outside = 0.5 * ((si + c) * np.exp(x) + (si - c) * np.exp(-x))
        out = np.sign(t_arr) * np.where(ta <= ell, np.sin(ta), outside)
    return float(out) if np.ndim(t) == 0 else out


def theta(t: float | np.ndarray, s: float) -> float | np.ndarray:
    """Phase of the off-plane solutions outside the ball, 0 < s < pi/4:

        Theta(t, s) = 2 sin(s) sinh(t - ell(s)) / F(t, s) + arccos(tan s),

    defined for t >= ell(s); increases strictly in t toward
    theta_infinity(s)."""
    if not 0.0 < s < _QUARTER_PI:
        raise ValueError("theta requires 0 < s < pi/4")
    ell = entry_time(s, _QUARTER_PI)
    x = np.asarray(t, dtype=float) - ell
    if np.any(x < -1e-12):
        raise ValueError("theta is defined for t >= ell(s)")
    x = np.maximum(x, 0.0)
    F = growth_factor(np.asarray(t, dtype=float), s)
    out = 2.0 * math.sin(s) * np.sinh(x) / F + math.acos(min(1.0, math.tan(s)))
    return float(out) if np.ndim(t) == 0 else out


def theta_infinity(s: float) -> float:
    """Limit of Theta(t, s) as t -> infinity:

        arccos(tan s) + 2 sin(s) / (1 + sqrt(cos 2s)),

    strictly decreasing from pi/2 at s = 0 to sqrt(2) at s = pi/4.  The raw
    formula loses half its precision within ~1e-8 of the right endpoint
    (cancellation in both terms), where the first-order expansion about
    s = pi/4 is used instead.
    """
    if not 0.0 <= s <= _QUARTER_PI + 1e-15:
        raise ValueError("theta_infinity requires 0 <= s <= pi/4")
    d = _QUARTER_PI - s
    if d < 1e-8:
        return _SQRT2 + _SQRT2 * d
    c = math.sqrt(max(0.0, math.cos(2.0 * s)))
    return math.acos(math.tan(s)) + 2.0 * math.sin(s) / (1.0 + c)


def closed_U_perp(s: float, t: float | np.ndarray) -> float | np.ndarray:
    """Off-plane fundamental solution U at (pi/4, 0); even in t.  Requires
    s > 0 (the s = 0 limit is the in-plane form; csc(s) is indeterminate)."""
    if s <= 0.0:
        raise ValueError("closed_U_perp requires s > 0; use closed_U_parallel at s = 0")
    t_arr = np.asarray(t, dtype=float)
    if s >= _QUARTER_PI:
        out = np.cosh(t_arr) * np.cos(_SQRT2 * math.exp(-s + _QUARTER_PI) * np.tanh(t_arr))
    else:
        ell = entry_time(s, _QUARTER_PI)
        ta = np.abs(t_arr)
        tc = np.maximum(ta, ell)
        outside = (_SQRT2 / 2.0 / math.sin(s)) * growth_factor(tc, s) * np.cos(theta(tc, s))
        out = np.where(ta <= ell, np.cos(ta), outside)
    return float(out) if np.ndim(t) == 0 else out


def closed_V_perp(s: float, t: float | np.ndarray) -> float | np.ndarray:
    """Off-plane fundamental solution V at (pi/4, 0); odd in t; s > 0."""
    if s <= 0.0:
        raise ValueError("closed_V_perp requires s > 0; use closed_V_parallel at s = 0")
    t_arr = np.asarray(t, dtype=float)
    if s >= _QUARTER_PI:
        out = (_SQRT2 / 2.0) * math.exp(s - _QUARTER_PI) * np.cosh(t_arr) * np.sin(
            _SQRT2 * math.exp(-s + _QUARTER_PI) * np.tanh(t_arr)
        )
    else:
        ell = entry_time(s, _QUARTER_PI)
        ta = np.abs(t_arr)
        tc = np.maximum(ta, ell)
        outside = (_SQRT2 / 2.0) * growth_factor(tc, s) * np.sin(theta(tc, s))
        out = np.sign(t_arr) * np.where(ta <= ell, np.sin(ta), outside)
    return float(out) if np.ndim(t) == 0 else out
