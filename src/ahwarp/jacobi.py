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
(U, V), from the identity at t_in, comes with the geodesic: its window is a
quadrature on the transition pair (``geodesics``), and the in-plane Killing
field A(rho) rho', with derivative A'(rho), gives the pair in closed form
in the integral J of K_par / A'^2 by reduction of order.  At t_x it is the
window's transfer matrix M = [[U, V], [U', V']], det M = 1
(``RadialSolution.transfer``, with ``window_solution`` across the window,
where a time t is found by Newton on the window's time integral).
Nothing is solved per geodesic or per initial condition: a ``tol`` below
the floor ``_TOL_FLOOR`` is refused, and any other is not used.

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
from functools import partial

import numpy as np

from .ode import Trajectory
from .geodesics import (
    GeodesicParams,
    RadialGrid,
    RadialSolution,
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
    "even_minimum",
    "even_minima",
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

    def _k(self, t: np.ndarray, past: bool) -> np.ndarray:
        """k on the window, or past it (``past``), where K_par = -1 and
        K_perp is the exterior's closed form."""
        if self.kind == "parallel" and past:
            return np.full_like(t, -1.0)
        rho, drho = self.radial.state(t)
        kpar = -1.0 if past else np.asarray(k_parallel(self.params.profile, rho))
        if self.kind == "parallel":
            return kpar
        kperp = self.radial.k_perp_past(t) if past else k_perp(self.radial.warp, rho)
        w2 = drho * drho
        return w2 * kpar + (1.0 - w2) * kperp

    def value(self, t: float | np.ndarray) -> float | np.ndarray:
        """k(t) on the radial trajectory's domain [0, T] (ValueError outside
        it, with ``Trajectory.state``'s slack), with the inside value (k = 1)
        at a sharp junction, matching the H(0) = 0 convention of the
        curvature profile."""
        t_arr = self.radial.trajectory.clip(t)
        out = np.empty_like(t_arr)
        t_in, t_x = self.radial.window
        inside = t_arr <= t_in if t_in > 0.0 else np.zeros_like(t_arr, dtype=bool)
        exterior = t_arr > t_x if t_x > 0.0 else np.ones_like(t_arr, dtype=bool)
        mid = ~(inside | exterior)
        out[inside] = 1.0
        if np.any(mid):
            out[mid] = self._k(t_arr[mid], False)
        if np.any(exterior):
            out[exterior] = self._k(t_arr[exterior], True)
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


# Nothing is computed to a tolerance: the transition pair is a converged
# series and every window a fixed quadrature.  The suite checks the results
# to about 1e-12, so a ``tol`` below that is refused rather than promised.
_TOL_FLOOR = 1e-12


def _check_tol(tol: float) -> None:
    """Refuse a ``tol`` below ``_TOL_FLOOR``.  The ``tol`` of
    ``make_kernel``, ``fundamental_pair`` and ``stable.stable_for`` does
    nothing else."""
    if tol < _TOL_FLOOR:
        raise ValueError(f"tol = {tol} is tighter than the floor {_TOL_FLOOR}: "
                         f"no result is checked to more")


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
    their kernels from :func:`kernel_on`, which checks ``kind``.  Nothing
    is computed to a tolerance: a ``tol`` below the floor raises ValueError
    (``_check_tol``), and any other is not used."""
    _check_tol(tol)
    return kernel_on(kind, solve_radial(params, T=horizon))


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
    relative precision.  Accuracy follows the geodesic's window quadrature;
    the state and the angle at the times inside the window share one
    inversion of its time integral.
    """
    if kernel.kind != "perpendicular":
        raise ValueError("Killing fields solve the off-plane equation only (s > 0)")
    if angle not in ("theta", "phi"):
        raise ValueError(f"angle must be 'theta' or 'phi', got {angle!r}")
    radial = kernel.radial
    if not 0.0 < T <= radial.T:
        raise ValueError(f"horizon T = {T} outside (0, {radial.T}] of the kernel")
    warp, a_s = radial.warp, radial.a_s
    sign = 1.0 if angle == "theta" else -1.0  # phi' = -theta'

    def fn(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rho, drho = radial.state(t)
        a, da = warp.state(rho)
        # theta and phi are defined on all of [0, T], whatever part of the geodesic T is in
        ang = radial.theta(t) if angle == "theta" else radial.phi(t)
        c, sn = np.cos(ang), np.sin(ang)
        comb = p * c + q * sn
        # (A/A(s))' = A' rho' / A(s) and (A/A(s)) ang' = sign / A (Clairaut)
        return (a / a_s) * comb, (da * drho / a_s) * comb + sign * (q * c - p * sn) / a

    return Trajectory.from_function(fn, 0.0, T)


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
        accurate the solutions; the relative form is the meaningful
        conservation statement."""
        u, du = self.U.state(t)
        v, dv = self.V.state(t)
        scale = np.maximum(1.0, np.abs(u * dv) + np.abs(du * v))
        return np.abs(u * dv - du * v - 1.0) / scale


def _rotation(t0: float, y: float, dy: float, t):
    """(Y, Y')(t) of the solution of Y'' = -Y with state (y, dy) at t0."""
    c, sn = np.cos(t - t0), np.sin(t - t0)
    return y * c + dy * sn, dy * c - y * sn


def _exponentials(t0, y, dy, t):
    """(Y, Y')(t) of the solution of Y'' = Y with state (y, dy) at t0, in the
    basis (y + dy)/2 e^tau, (y - dy)/2 e^{-tau} with tau = t - t0."""
    p, q = 0.5 * (y + dy), 0.5 * (y - dy)
    grow, decay = p * np.exp(t - t0), q * np.exp(t0 - t)
    return grow + decay, grow - decay


def jacobi_solution(
    kernel: JacobiKernel,
    initial: tuple[float, float],
    T: float = 20.0,
) -> Trajectory:
    """The solution of Y'' + k(t) Y = 0 on [0, T] with (Y(0), Y'(0)) =
    ``initial``: exact pieces and a combination of the kernel's window pair
    for the in-plane kernel, the Killing field of :func:`killing_field` for
    the off-plane one.  Both are as accurate as the geodesic's window
    quadrature."""
    if not T > 0.0:
        raise ValueError("horizon T must be positive")
    y0, dy0 = initial
    if kernel.kind == "perpendicular":
        return killing_field(kernel, y0, dy0 * kernel.radial.a_s, T)
    return _in_plane_solution(kernel.radial, 0.0, y0, dy0, T)


def _in_plane_solution(radial: RadialSolution, t0: float, y: float, dy: float, T: float,
                       tail=None) -> Trajectory:
    """The in-plane solution with state (y, dy) at t0 (0 or t_in), on
    [0, T]: the rotation on [0, t_in], the window pair's combination on
    [t_in, t_x], and from t_x ``tail`` (t -> (Y, Y')) or else the
    exponentials, each from the state where the last ends."""
    t_in, t_x = radial.window
    ball = partial(_rotation, t0, y, dy)
    state = tuple(map(float, ball(t_in))) if t0 < t_in else (y, dy)
    parts = [Trajectory.from_function(ball, 0.0, t_in)] if t_in > 0.0 else []
    if t_in < t_x:
        parts.append(radial.window_solution(*state))
        state = tuple((radial.transfer @ state).tolist()) if tail is None else state
    tail = tail or (lambda t: _exponentials(t_x, *state, t))
    parts.append(Trajectory.from_function(tail, t_x, math.inf))
    return Trajectory(t0=0.0, t1=float(T), pieces=sum((part.pieces for part in parts), ()))


def fundamental_pair(kernel: JacobiKernel, T: float = 20.0, tol: float = 1e-10) -> FundamentalPair:
    """The fundamental solutions U, V of Y'' + k(t) Y = 0 on [0, T]; a
    ``tol`` below the floor raises ValueError (``_check_tol``), and any
    other is not used."""
    _check_tol(tol)
    return FundamentalPair(U=jacobi_solution(kernel, (1.0, 0.0), T),
                           V=jacobi_solution(kernel, (0.0, 1.0), T))


def even_minima(radial: RadialGrid) -> np.ndarray:
    """The minimum over t >= 0 of the even solution U (U(0) = 1, U'(0) = 0)
    of both kernels' equations at each row of a grid (rows x 2: in-plane,
    off-plane), from their exact pieces: -inf where U is unbounded below, nan
    where it is not decided.  By Sturm separation (Hartman, Ordinary
    Differential Equations, 1964) no solution vanishes twice iff the even U
    has no zero on the line, iff this is positive.

    Positivity:

    * in-plane, U = cos t in the ball and P e^tau + Q e^{-tau} past t_x, with
      (P, Q) from the state at t_x; K_par <= 1, so two zeros of U lie at
      least pi apart, and on a window shorter than pi (else nan) U > 0 iff
      U(t_x) > 0.  So U > 0 on the line iff U(t_x) > 0 and P >= 0;
    * off-plane, U = A(rho) cos(theta) / A(s) > 0 on the line iff
      theta_inf < pi/2 (theta increases to theta_inf).

    Minimum: both kernels are 1 in the ball and change sign at most once
    after it, from + to -.  K_par decreases.  Clairaut turns the off-plane
    kernel into K_par (1 - A(s)^2/A^2) + A(s)^2 (1 - A'^2) / A^4, which is
    positive before the window's midpoint (K_par >= 0, A' < 1), decreasing
    past it while A' <= 1, negative once A' > 1, and decreasing past t_x
    (``perp_minima``).  While U > 0, U'' = -k U, so U' <= 0 up to the
    minimum and U' > 0 after it.  The minimum lies in the window when
    U'(t_x) > 0, where U' = 0 is solved by Newton in the window variable on
    the window's partial integrals, which give U there as well
    (``RadialGrid.window_minima``), else past t_x: 2 sqrt(PQ) in-plane,
    ``RadialGrid.perp_minima`` (Newton in E = e^{-2(t - t_x)}) off-plane.
    Each is an array formula over the rows, and each Newton solve runs for
    all of its rows at once.
    """
    t_in, t_x, n = radial.t_in, radial.t_x, len(radial)
    # (U, U')(t_x) from U = cos t in the ball
    u, du = (radial.M @ np.stack((np.cos(t_in), -np.sin(t_in)), axis=-1)[..., None])[..., 0].T
    p, q = 0.5 * (u + du), 0.5 * (u - du)
    # U -> -inf if P < 0, else U is least at tau = log(Q/P) / 2 if Q > P, else at t_x
    with np.errstate(invalid="ignore"):
        tail = np.where(p < 0.0, -np.inf, np.where(q > p, 2.0 * np.sqrt(p * q), u))
    short, psi = t_x - t_in < math.pi, radial.psi
    # off-plane, U -> -inf when psi < 0, and U -> 0 with U > 0 at psi = 0
    out = np.stack((np.where(short, tail, np.nan), np.where(psi < 0.0, -np.inf, 0.0)), axis=1)
    rising = np.stack((short & (du > 0.0), np.zeros(n, dtype=bool)), axis=1)
    turns = np.flatnonzero(psi > 0.0)
    if turns.size:
        out[turns, 1], rising[turns, 1] = radial._take(turns).perp_minima(psi[turns])
    rows, kinds = np.nonzero(rising & (t_in < t_x)[:, None])
    if rows.size:
        inside = radial._take(rows).window_minima(kinds == 0)
        out[rows, kinds] = np.where(inside < out[rows, kinds], inside, out[rows, kinds])
    return out


def even_minimum(kernel: JacobiKernel) -> float:
    """The minimum over t >= 0 of the even solution U (U(0) = 1, U'(0) = 0)
    of the kernel's equation: ``even_minima`` on its geodesic, a grid of
    one."""
    return float(even_minima(kernel.radial)[0, KINDS.index(kernel.kind)])


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
