"""Scalar Jacobi equations along the geodesic family and their closed forms.

Normal Jacobi fields along a geodesic of the warped-product metric reduce to
two scalar equations Y'' + k(t) Y = 0: the in-plane kernel is
k(t) = K_par(rho(t)) and the off-plane kernel is the angle-weighted mix

    k(t) = rho'(t)^2 K_par(rho(t)) + (1 - rho'(t)^2) K_perp(rho(t)).

Both kernels equal 1 while the geodesic runs inside the round ball and tend
to -1 exponentially as t -> infinity.  For eps = 0 the kernel jumps at the
entry time and the solutions are C^1 weak solutions: the state is handed
over unchanged at the jump.

The in-plane kernel is +1 before the entry time t_in and exactly -1 after
the transition exit t_x (see ``geodesics``), so an in-plane solution is
composed of three pieces: an exact rotation on [0, t_in], the combination
y U + dy V of the window pair across [t_in, t_x] (empty at eps = 0), and
the exact exponentials P e^tau + Q e^{-tau}, tau = t - t_x, with
P = (Y + Y')/2 and Q = (Y - Y')/2 at t_x, after it.  The window pair
(U, V), started from the identity at t_in, is solved together with the
geodesic itself, in the geodesic's window solve (``geodesics.solve_radial``,
or one solve for up to 64 geodesics of a grid, ``solve_radial_grid``); its
end state is the window's transfer matrix M = [[U, V], [U', V']], det M = 1
(``RadialSolution.transfer``, with ``window_solution`` across the window).
Nothing is solved per initial condition, so a solution is as accurate as
the kernel's radial solve and a tighter ``tol`` is refused.

The off-plane equation is not integrated at all.  Rotations of S^n are
isometries, and a Killing field restricted to a geodesic is a Jacobi field
(do Carmo, Riemannian Geometry, ch. 5).  The rotations that tilt the
geodesic's plane give the off-plane solutions A(rho(t)) cos theta(t) and
A(rho(t)) sin theta(t), theta the angular coordinate with Clairaut's rate
theta' = A(s)/A(rho)^2 (see ``geodesics``).  So the off-plane fundamental
pair is

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

import numpy as np

from .ode import Trajectory
from .geodesics import (
    GeodesicParams,
    RadialSolution,
    _Paths,
    entry_time,
    growth_factor,
    solve_radial,
)
from .warp import k_parallel, k_perp

__all__ = [
    "JacobiKernel",
    "FundamentalPair",
    "make_kernel",
    "kernel_on",
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

    def _k_exterior(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "parallel":
            return np.full_like(np.asarray(t, dtype=float), -1.0)
        _, drho = self.radial.state(t)
        kperp = self.radial.exterior.k_perp(t)
        w2 = drho * drho
        return -w2 + (1.0 - w2) * kperp

    def _k_transition(self, t: np.ndarray) -> np.ndarray:
        rho, drho = self.radial.state(t)
        kpar = np.asarray(k_parallel(self.params.profile, rho))
        if self.kind == "parallel":
            return kpar
        kperp = k_perp(self.radial.warp, rho)
        w2 = drho * drho
        return w2 * kpar + (1.0 - w2) * kperp

    def value(self, t: float | np.ndarray) -> float | np.ndarray:
        """k(t), with the inside value (k = 1) at a sharp junction, matching
        the H(0) = 0 convention of the curvature profile."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t_arr)
        t_in, t_x = self.radial.span
        inside = t_arr <= t_in if t_in > 0.0 else np.zeros_like(t_arr, dtype=bool)
        exterior = t_arr > t_x if t_x > 0.0 else np.ones_like(t_arr, dtype=bool)
        mid = ~(inside | exterior)
        out[inside] = 1.0
        if np.any(mid):
            out[mid] = self._k_transition(t_arr[mid])
        if np.any(exterior):
            out[exterior] = self._k_exterior(t_arr[exterior])
        return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


def kernel_on(kind: str, radial: RadialSolution) -> JacobiKernel:
    """The Jacobi kernel of the given kind along a solved geodesic, usable
    for t in [0, its horizon]."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    # Along radial geodesics the two scalar equations coincide; building the
    # perpendicular kernel at s = 0 as the parallel one avoids 0/0 limits.
    effective = "parallel" if radial.params.s == 0.0 else kind
    return JacobiKernel(kind=effective, params=radial.params, radial=radial)


def make_kernel(
    kind: str,
    params: GeodesicParams,
    horizon: float = 50.0,
    tol: float = 1e-11,
) -> JacobiKernel:
    """Assemble the Jacobi kernel of the given kind along the geodesic
    mu = params, usable for t in [0, horizon].  Each call builds a new
    kernel on a new ``solve_radial``.  Grids
    solve their geodesics with ``geodesics.solve_radial_grid`` and take
    their kernels from :func:`kernel_on`, which checks ``kind``."""
    return kernel_on(kind, solve_radial(params, T=horizon, tol=tol))


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
    horizon = radial.trajectory.t1
    if not 0.0 < T <= horizon:
        raise ValueError(f"horizon T = {T} outside (0, {horizon}] of the kernel")
    warp, a_s = radial.warp, radial.a_s
    sign = 1.0 if angle == "theta" else -1.0  # phi' = -theta'

    def fn(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rho, drho = radial.state(t)
        a, da = warp.state(rho)
        # theta is defined on all of [0, T]; phi needs the transition exit
        ang = radial.theta(t) if angle == "theta" else radial.phi(t)
        return _killing_state(a, da, drho, ang, a_s, p, q, sign)

    return Trajectory.from_function(fn, 0.0, T)


def _killing_state(a, da, drho, ang, a_s, p: float, q: float, sign: float):
    """(Y, Y') of the Killing field A(rho) / A(s) (p cos a + q sin a) from
    A, A' and rho' along the geodesic and its angle a (theta, sign 1, or
    phi, sign -1); a_s = A(s) is a float, or a column for a block of
    geodesics."""
    c, sn = np.cos(ang), np.sin(ang)
    comb = p * c + q * sn
    # (A/A(s))' = A' rho' / A(s) and (A/A(s)) a' = sign / A (Clairaut)
    return (a / a_s) * comb, (da * drho / a_s) * comb + sign * (q * c - p * sn) / a


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


def _rotation(t0: float, y: float, dy: float):
    """The solution of Y'' = -Y with state (y, dy) at t0, as (Y, Y')(t)."""

    def fn(t):
        c, sn = np.cos(t - t0), np.sin(t - t0)
        return y * c + dy * sn, dy * c - y * sn

    return fn


def _exponentials(t0, y, dy, t):
    """(Y, Y')(t) of the solution of Y'' = Y with state (y, dy) at t0, in the
    basis (y + dy)/2 e^tau, (y - dy)/2 e^{-tau} with tau = t - t0; t0, y and
    dy are floats, or columns for a block of geodesics."""
    p, q = 0.5 * (y + dy), 0.5 * (y - dy)
    grow, decay = p * np.exp(t - t0), q * np.exp(t0 - t)
    return grow + decay, grow - decay


def _in_plane_to_exit(radial: RadialSolution, y0: float, dy0: float,
                      T: float) -> tuple[list[Trajectory], tuple[float, float]]:
    """The in-plane solution along ``radial``: the rotation on [0, t_in] and
    the window pair's combination across [t_in, t_x], as far as each reaches
    before T, and the state where they end: at t_x, where the exponentials
    take over."""
    t_in, t_x = radial.span
    parts = []
    state = (y0, dy0)
    if t_in > 0.0:
        ball = _rotation(0.0, y0, dy0)
        parts.append(Trajectory.from_function(ball, 0.0, min(t_in, T)))
        state = tuple(map(float, ball(min(t_in, T))))  # the state at t_in, if t_in <= T
    if t_in < min(t_x, T):
        parts.append(radial.window_solution(*state, T))
        state = tuple((radial.transfer @ state).tolist())
    return parts, state


def _even_solutions(radials: list[RadialSolution], paths: _Paths, T: float):
    """((U, U'), (U, U')) of the in-plane and the off-plane equation, with
    U(0) = 1 and U'(0) = 0, along the geodesics of ``paths`` (s > 0) at its
    sample times (all at most T), one row per geodesic: element for element
    ``jacobi_solution(kernel_on(kind, radial), (1, 0), T).state(t)``.  The
    in-plane rotation and exponentials are evaluated for the whole block at
    once, the exponentials from columns of their start states (at
    max(t, t_x), inside their domain), the window samples per geodesic; the
    off-plane U is the Killing field A(rho) cos(theta) / A(s) of the
    sampled rho, rho' and theta."""
    t, lead, tail = paths.t, paths.lead, paths.tail
    u, du = np.empty((2,) + paths.rho.shape)
    u[:, :lead], du[:, :lead] = _rotation(0.0, 1.0, 0.0)(t[:lead])
    pieces = [_in_plane_to_exit(rad, 1.0, 0.0, T) for rad in radials]
    if tail < len(t):
        # a geodesic that has not left the transition by T has no exterior
        # samples; any finite t_x keeps its unused exponentials finite
        t_x = np.array([[rad.span[1]] for rad in radials])
        t_x[np.isinf(t_x)] = 0.0
        y, dy = np.array([state for _, state in pieces]).T[:, :, None]
        for out, part in zip((u, du), _exponentials(t_x, y, dy, np.maximum(t[tail:], t_x))):
            np.copyto(out[:, tail:], part, where=paths.exterior[:, tail:])
    for j in np.flatnonzero(paths.window.any(axis=1)):
        idx = np.flatnonzero(paths.window[j])
        u[j, idx], du[j, idx] = pieces[j][0][-1].state(t[idx])  # the window piece

    a, da = radials[0].warp.state(paths.rho)
    a_s = np.array([[rad.a_s] for rad in radials])
    return (u, du), _killing_state(a, da, paths.drho, paths.theta, a_s, 1.0, 0.0, 1.0)


def jacobi_solution(
    kernel: JacobiKernel,
    initial: tuple[float, float],
    T: float = 20.0,
    tol: float = 1e-10,
) -> Trajectory:
    """The solution of Y'' + k(t) Y = 0 on [0, T] with (Y(0), Y'(0)) =
    ``initial``: exact pieces and a combination of the kernel's window pair
    for the in-plane kernel, the Killing field of :func:`killing_field` for
    the off-plane one.  Both are as accurate as the kernel's radial solve,
    so a ``tol`` tighter than the kernel's raises ValueError."""
    if not T > 0.0:
        raise ValueError("horizon T must be positive")
    if tol < kernel.radial.tol:
        raise ValueError(f"tol = {tol} is tighter than the kernel's {kernel.radial.tol}; "
                         "build the kernel at the tolerance wanted")
    y0, dy0 = initial
    if kernel.kind == "perpendicular":
        return killing_field(kernel, y0, dy0 * kernel.radial.a_s, T)
    # the exponentials after t_x start from the state where the window ends
    parts, state = _in_plane_to_exit(kernel.radial, y0, dy0, T)
    t_x = kernel.radial.span[1]
    if t_x < T:
        parts.append(Trajectory.from_function(lambda t: _exponentials(t_x, *state, t), t_x, T))
    return Trajectory.concat(parts)


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
