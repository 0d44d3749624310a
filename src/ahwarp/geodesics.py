"""Radial coordinate of the geodesic family, its angular coordinate, and
their closed forms.

A unit-speed geodesic at distance s from the origin has radial coordinate
rho(t) solving

    rho'' = (A'/A)(rho) (1 - rho'^2),    rho(0) = s, rho'(0) = 0   (s > 0),

while the radial geodesic is exactly rho(t) = t (integrating the singular
polar initial condition is deliberately bypassed).  For s < r the geodesic
starts inside the round ball, where rho(t) = arccos(cos s cos t) until it
meets rho = r at the entry time ell_r(s) = arccos(cos r / cos s).

The geodesic stays in a totally geodesic 2-plane, where its angular
coordinate theta (theta(0) = 0) obeys Clairaut's integral

    theta'(t) = A(s) / A(rho(t))^2.

Inside the ball theta(t) = atan2(sin t, sin s cos t) exactly.  After the
entry time (from t = 0 if s >= r) the angle is a composite Gauss-Legendre
sum of Clairaut's rate over the accepted steps of the radial solve, summed
tail-first as phi(t) = theta_inf - theta(t): the decaying off-plane Jacobi
field A(rho) sin(phi) is then resolved to full relative precision however
small phi is.  The tail of the rate past the solve horizon is dropped and
bounded (RadialSolution.angle_tail_bound).  At the critical parameters
(r, eps) = (pi/4, 0) everything is available in closed form, including the
angular coordinate; those formulas are the oracles for the numerical
pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .ode import Switch, Trajectory, integrate_ivp
from .warp import ProfileParams, WarpFunction, solve_warp

__all__ = [
    "GeodesicParams",
    "RadialSolution",
    "entry_time",
    "radial_exit_slope",
    "solve_radial",
    "closed_rho",
    "closed_theta",
    "growth_factor",
    "comparison_lower_bound",
]

_QUARTER_PI = math.pi / 4.0


@dataclass(frozen=True)
class GeodesicParams:
    """mu = (s, r, eps): closest-approach distance s >= 0 of the geodesic to
    the origin, plus the profile parameters of the metric."""

    s: float
    r: float
    eps: float = 0.0

    def __post_init__(self) -> None:
        if self.s < 0.0:
            raise ValueError(f"s must be nonnegative, got {self.s}")
        ProfileParams(self.r, self.eps)  # validates r, eps

    @property
    def profile(self) -> ProfileParams:
        return ProfileParams(self.r, self.eps)


# Gauss-Legendre rule for Clairaut's rate on the accepted steps of the radial
# solve.  The rate falls like e^{-2t} while late steps grow to about 5 time
# units, so steps are split into panels of at most _PANEL, on which 8 nodes
# integrate it to rounding error.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_PANEL = 1.0


@dataclass(frozen=True, eq=False)
class RadialSolution:
    """rho along one geodesic: dense trajectory on [0, T], the entry time at
    which rho crosses r (present iff s < r), the warp function A of the
    metric, and the angular coordinate theta."""

    params: GeodesicParams
    trajectory: Trajectory
    entry_time: float | None
    warp: WarpFunction

    @property
    def transition_exit_time(self) -> float | None:
        for t, label in self.trajectory.events:
            if label == "transition_exit":
                return t
        return None

    def state(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.trajectory.state(t)

    def state_scalar(self, t: float) -> tuple[float, float]:
        return self.trajectory.state_scalar(t)

    def rho(self, t: float | np.ndarray) -> float | np.ndarray:
        return self.trajectory.value(t)

    def drho(self, t: float | np.ndarray) -> float | np.ndarray:
        return self.trajectory.deriv(t)

    # -- angular coordinate ------------------------------------------------

    @cached_property
    def _a_s(self) -> float:
        return float(self.warp.value(self.params.s))

    def _rate_integral(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Integral of A(s)/A(rho)^2 over each [lo_i, hi_i] (each inside one
        panel), by the Gauss-Legendre rule."""
        half = 0.5 * (hi - lo)
        t = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_NODES
        rho, _ = self.trajectory.state(t.ravel())
        a = self.warp.value(rho).reshape(t.shape)
        return half * ((self._a_s / (a * a)) * _GL_WEIGHTS).sum(axis=1)

    def _theta_ball(self, t):
        """theta inside the ball, where the geodesic is a great circle."""
        return np.arctan2(np.sin(t), math.sin(self.params.s) * np.cos(t))

    @cached_property
    def _angle_table(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(knots, phi at the knots, theta_inf): the panel ends from the
        entry time (or 0) on, with phi summed tail-first."""
        if self.params.s == 0.0:
            raise ValueError("the angular coordinate is undefined along the radial geodesic")
        nodes = self.trajectory.grid.nodes
        start = self.entry_time if self.entry_time is not None else 0.0
        nodes = nodes[nodes >= start]
        steps = np.diff(nodes)
        k = np.maximum(1, np.ceil(steps / _PANEL)).astype(int)
        step = np.repeat(np.arange(len(k)), k)
        frac = (np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)) / k[step]
        knots = np.append(nodes[:-1][step] + steps[step] * frac, nodes[-1])
        pieces = self._rate_integral(knots[:-1], knots[1:])
        phi = np.append(np.cumsum(pieces[::-1])[::-1], 0.0)
        theta_start = 0.0 if self.entry_time is None else self._theta_ball(start)
        return knots, phi, theta_start + float(phi[0])

    @property
    def theta_infinity(self) -> float:
        """theta_inf = phi(0): the total angle swept by the geodesic, up to
        the dropped tail bounded by ``angle_tail_bound``."""
        return self._angle_table[2]

    def angles(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(theta(t), phi(t)) with phi = theta_inf - theta, for t in [0, T];
        exact inside the ball, Clairaut's rate integrated after it."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        knots, phi_k, theta_inf = self._angle_table
        if t_arr.min() < 0.0 or t_arr.max() > knots[-1]:
            raise ValueError(f"angle requested outside [0, {knots[-1]}]")
        theta = np.empty_like(t_arr)
        phi = np.empty_like(t_arr)
        ball = t_arr < knots[0]
        if np.any(ball):
            theta[ball] = self._theta_ball(t_arr[ball])
            phi[ball] = (self._theta_ball(knots[0]) - theta[ball]) + phi_k[0]
        out = ~ball
        if np.any(out):
            j = np.clip(np.searchsorted(knots, t_arr[out], side="right"), 1, len(knots) - 1)
            phi[out] = phi_k[j] + self._rate_integral(t_arr[out], knots[j])
            theta[out] = theta_inf - phi[out]
        return theta, phi

    def theta(self, t: float | np.ndarray) -> float | np.ndarray:
        """Angular coordinate theta(t), theta(0) = 0, increasing."""
        theta, _ = self.angles(t)
        return float(theta[0]) if np.ndim(t) == 0 else theta

    @property
    def angle_tail_bound(self) -> float:
        """Bound on the rate integral past the horizon T, dropped from phi.
        Past the transition rho' increases and (log A)' >= c = min(1,
        A'/A(rho(T))), so the tail is at most A(s) / (2 c rho'(T) A(rho(T))^2);
        the bound returned is twice that, a margin for the error of the
        radial solve in rho(T).  Infinite while the geodesic is still inside
        the transition at T."""
        p = self.params
        rho_T, drho_T = (float(v[0]) for v in self.trajectory.state(self.trajectory.grid.t1))
        if rho_T < p.r + p.eps or not drho_T > 0.0:
            return math.inf
        a, da = (float(v[0]) for v in self.warp.state(rho_T))
        c = min(1.0, da / a)
        if not c > 0.0:
            return math.inf
        return self._a_s / (c * drho_T * a * a)


def entry_time(s: float, r: float) -> float:
    """Time at which the geodesic at distance s < r from the origin reaches
    the ball boundary rho = r: arccos(cos r / cos s)."""
    if not 0.0 <= s < r:
        raise ValueError(f"entry time requires 0 <= s < r, got s={s}, r={r}")
    return math.acos(min(1.0, math.cos(r) / math.cos(s)))


def radial_exit_slope(s: float, r: float) -> float:
    """rho'(ell_r(s)) = sqrt(cos^2 s - cos^2 r)/sin r; equals
    sqrt(cos(2s)) at r = pi/4."""
    if not 0.0 <= s < r:
        raise ValueError(f"exit slope requires 0 <= s < r, got s={s}, r={r}")
    num = max(0.0, math.cos(s) ** 2 - math.cos(r) ** 2)
    return math.sqrt(num) / math.sin(r)


@lru_cache(maxsize=None)
def _solve_radial_cached(s: float, r: float, eps: float, T: float, tol: float) -> RadialSolution:
    params = GeodesicParams(s, r, eps)
    warp = solve_warp(params.profile, tol=min(tol, 1e-12))
    if s == 0.0:
        # rho(t) = t exactly; the polar-coordinate singularity at the origin
        # is not integrated.
        events = [(r, "entry")]
        if eps > 0.0 and r + eps < T:
            events.append((r + eps, "transition_exit"))
        traj = Trajectory.from_affine(0.0, T, 0.0, 1.0, events=events)
        return RadialSolution(params=params, trajectory=traj, entry_time=r, warp=warp)

    def rhs(t: float, x: float, v: float) -> float:
        return warp.log_slope_scalar(x) * (1.0 - v * v)

    switches = []
    if s < r:
        switches.append(Switch(lambda t, x, v: x - r, label="entry"))
    if eps > 0.0 and s < r + eps:
        switches.append(Switch(lambda t, x, v: x - (r + eps), label="transition_exit"))

    traj = integrate_ivp(rhs, 0.0, (s, 0.0), T, tol, switches=switches)
    t_entry = None
    for t, label in traj.events:
        if label == "entry":
            t_entry = t
    return RadialSolution(params=params, trajectory=traj, entry_time=t_entry, warp=warp)


def solve_radial(params: GeodesicParams, T: float = 30.0, tol: float = 1e-10) -> RadialSolution:
    """Integrate the radial geodesic equation on [0, T].

    The crossing of rho = r is located by the integrator and recorded as an
    event (and, for eps > 0, the crossing of rho = r + eps as well), so no
    step straddles the curvature transition.  Results are cached.
    """
    if not T > 0.0:
        raise ValueError("horizon T must be positive")
    return _solve_radial_cached(params.s, params.r, params.eps, T, tol)


def growth_factor(t: float | np.ndarray, s: float) -> float | np.ndarray:
    """F(t, s) = cosh(t - ell(s)) + sqrt(cos 2s) sinh(t - ell(s)) at
    (r, eps) = (pi/4, 0), for 0 <= s < pi/4.  Drives every closed form
    outside the ball."""
    ell = entry_time(s, _QUARTER_PI)
    c = math.sqrt(max(0.0, math.cos(2.0 * s)))
    x = np.asarray(t, dtype=float) - ell
    out = np.cosh(x) + c * np.sinh(x)
    return float(out) if np.ndim(t) == 0 else out


def closed_rho(s: float, t: float | np.ndarray) -> float | np.ndarray:
    """Closed-form rho_s(t) at (r, eps) = (pi/4, 0), valid for all real t."""
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    ta = np.abs(np.asarray(t, dtype=float))
    if s == 0.0:
        out = ta  # radial line, exactly
    elif s >= _QUARTER_PI:
        out = s + np.log(np.cosh(ta))
    else:
        ell = entry_time(s, _QUARTER_PI)
        inside = np.arccos(np.clip(math.cos(s) * np.cos(ta), -1.0, 1.0))
        with np.errstate(over="ignore"):
            outside = _QUARTER_PI + np.log(growth_factor(np.maximum(ta, ell), s))
        out = np.where(ta <= ell, inside, outside)
    return float(out) if np.ndim(t) == 0 else out


def closed_theta(s: float, t: float | np.ndarray) -> float | np.ndarray:
    """Closed-form angular coordinate theta_s(t) at (r, eps) = (pi/4, 0);
    odd in t and continuous across the entry time."""
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    t_arr = np.asarray(t, dtype=float)
    ta = np.abs(t_arr)
    sgn = np.sign(t_arr)
    if s >= _QUARTER_PI:
        out = math.sqrt(2.0) * np.tanh(t_arr) * math.exp(-s + _QUARTER_PI)
    else:
        ell = entry_time(s, _QUARTER_PI)
        denom = np.sqrt(np.maximum(1.0 - (math.cos(s) * np.cos(ta)) ** 2, 1e-300))
        inside = np.arcsin(np.clip(np.sin(ta) / denom, -1.0, 1.0))
        x = np.maximum(ta, ell)
        base = math.asin(math.sqrt(max(0.0, 1.0 - math.tan(s) ** 2)))
        outside = 2.0 * math.sin(s) * np.sinh(x - ell) / growth_factor(x, s) + base
        out = sgn * np.where(ta <= ell, inside, outside)
    return float(out) if np.ndim(t) == 0 else out


def comparison_lower_bound(
    a: float, s: float, v: float, t: float | np.ndarray
) -> float | np.ndarray:
    """Solution of the constant-drift comparison equation
    rho'' = a (1 - rho'^2) with rho(0) = s, rho'(0) = v:

        s + a^{-1} log( ((1+v) e^{at} + (1-v) e^{-at}) / 2 ).

    Every radial solution of the true equation dominates this bound when a
    is a lower bound for A'/A; that is the non-trapping certificate.
    """
    if a <= 0.0:
        raise ValueError("comparison rate a must be positive")
    if abs(v) > 1.0:
        raise ValueError("|v| must not exceed 1 (unit-speed geodesics)")
    at = a * np.asarray(t, dtype=float)
    if v == 1.0:
        out = s + np.asarray(t, dtype=float)
    elif v == -1.0:
        out = s - np.asarray(t, dtype=float)
    else:
        out = s + np.logaddexp(math.log1p(v) + at, math.log1p(-v) - at) / a - math.log(2.0) / a
    return float(out) if np.ndim(t) == 0 else out
