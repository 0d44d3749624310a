"""Curvature profile, mollifier, and the warp function of the metric family.

The rotationally invariant metric is ``d rho^2 + A(rho)^2 g_round`` on
(0, inf) x S^n.  The radial curvature profile ``K_par`` equals +1 inside the
ball rho < r and -1 outside rho > r + eps, with a mollified monotone
transition of width eps (a sharp Heaviside jump when eps = 0).  The warp
function A solves

    A'' + K_par(rho) A = 0,     A(0) = 0,  A'(0) = 1,

understood as the C^1 weak solution when eps = 0.  Hence A = sin(rho) inside
the ball and A = a_+ e^rho + a_- e^{-rho} outside the transition zone, with
the coefficients a_+- fixed by C^1 matching.  At r = pi/4 (eps = 0) the
decaying coefficient a_- vanishes, which is the critical configuration the
search module hunts for.

In x = rho - r the transition equation Y'' = -(1 - 2 mollifier(x/eps)) Y on
[0, eps] does not contain r.  So one DOP853 solve per eps, the transition
pair Y_+- from (Y, Y') = (1, +-1) at x = 0, with state (p, p', m, m'),
serves every r:

* the warp function: (sin r, cos r) = alpha (1, 1) + beta (1, -1) with
  alpha, beta = (sin r +- cos r)/2, so (A, A') = alpha (p, p') + beta (m, m')
  at x = rho - r on [r, r + eps], a linear projection of the pair's dense
  output;
* the exterior coefficients, one formula for every eps (at eps = 0 the end
  state is the start state (1, 1, 1, -1)):
  a_+- = e^{-+(r + eps)} (A +- A')(r + eps) / 2;
* w(eps) = (p + p' + m + m') / (m + m' - p - p') at x = eps: W = Y'/Y at
  the ball boundary of the solution equal to (1, -1) at x = eps, where the
  exterior decay e^{-x} takes over (``entry_slope``; the Wronskian of the
  pair is -2).  The search reads r* = -arctan w(eps) off it.

An eps below the resolution of r (r + eps == r) is the sharp metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .ode import Flow, Trajectory, integrate_ivp

__all__ = [
    "ETA",
    "EPS0",
    "ProfileParams",
    "WarpFunction",
    "mollifier",
    "k_parallel",
    "solve_warp",
    "entry_slope",
    "k_perp",
]

# Half-width of the r window and largest mollification width of the
# parameter grids in the tests; keeps r + eps < pi/2 with a comfortable
# margin.  The search does not read them (its window is its own
# bracket_halfwidth).
ETA = 0.15
EPS0 = 0.15


@dataclass(frozen=True)
class ProfileParams:
    """The pair (r, eps) identifying one metric of the family."""

    r: float
    eps: float = 0.0

    def __post_init__(self) -> None:
        if not self.r > 0.0:
            raise ValueError(f"r must be positive, got {self.r}")
        if self.eps < 0.0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
        if not self.r + self.eps < math.pi / 2:
            raise ValueError(
                f"r + eps = {self.r + self.eps} must stay below pi/2"
            )


def mollifier(x: float | np.ndarray) -> float | np.ndarray:
    """Smooth monotone step: 0 for x <= 0, 1 for x >= 1, symmetric about
    x = 1/2 so that mollifier(x) + mollifier(1 - x) = 1.

    A float goes through ``math.exp`` (the right-hand side of a single
    window solve calls it once per evaluation); anything else through numpy,
    with x clipped to [1e-300, 1 - 1e-16], where exp(-1/x) and
    exp(-1/(1 - x)) give the 0 and 1 of the ends exactly."""
    if isinstance(x, float):
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        f = math.exp(-1.0 / x)
        return f / (f + math.exp(-1.0 / (1.0 - x)))
    # np.clip costs twice this on short arrays
    x_arr = np.minimum(np.maximum(np.asarray(x, dtype=float), 1e-300), 1.0 - 1e-16)
    f = np.exp(-1.0 / x_arr)
    out = f / (f + np.exp(-1.0 / (1.0 - x_arr)))
    return float(out) if np.ndim(x) == 0 else out


def k_parallel(params: ProfileParams, rho: float | np.ndarray) -> float | np.ndarray:
    """Radial sectional curvature profile.

    1 - 2*mollifier((rho - r)/eps) for eps > 0; the sharp step
    1 - 2*H(rho - r) for eps = 0 with the convention H(0) = 0, so the value
    at rho = r is 1.
    """
    if isinstance(rho, float) and rho >= 0.0 and params.eps > 0.0:
        return 1.0 - 2.0 * mollifier((rho - params.r) / params.eps)
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    if rho_arr.min() < 0.0:
        raise ValueError("rho must be nonnegative")
    if params.eps > 0.0:
        out = 1.0 - 2.0 * np.asarray(mollifier((rho_arr - params.r) / params.eps))
    else:
        out = np.where(rho_arr > params.r, -1.0, 1.0)
    return float(out[0]) if np.isscalar(rho) or np.ndim(rho) == 0 else out


class WarpFunction:
    """The warp function A and its first derivative, evaluated piecewise:
    sin(rho) inside the ball, a projection of the transition pair on
    [r, r+eps] when eps > 0, and the exact exponential form outside.

    Immutable after construction; evaluators are pure.
    """

    def __init__(self, params: ProfileParams, a_plus: float, a_minus: float,
                 transition: Trajectory | None):
        self.params = params
        self.a_plus = a_plus
        self.a_minus = a_minus
        self._transition = transition

    def __repr__(self) -> str:
        p = self.params
        return (f"WarpFunction(r={p.r!r}, eps={p.eps!r}, "
                f"a_plus={self.a_plus!r}, a_minus={self.a_minus!r})")

    def state(self, rho: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A(rho), A'(rho)) as arrays."""
        rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
        r, eps = self.params.r, self.params.eps
        val = np.empty_like(rho_arr)
        der = np.empty_like(rho_arr)

        inner = rho_arr <= r
        val[inner] = np.sin(rho_arr[inner])
        der[inner] = np.cos(rho_arr[inner])

        outer = rho_arr >= r + eps
        ep = np.exp(rho_arr[outer])
        em = np.exp(-rho_arr[outer])
        val[outer] = self.a_plus * ep + self.a_minus * em
        der[outer] = self.a_plus * ep - self.a_minus * em

        mid = ~(inner | outer)
        if np.any(mid):
            # only reachable when eps > 0
            v, d = self._transition.state(rho_arr[mid])
            val[mid] = v
            der[mid] = d
        return val, der

    @cached_property
    def ball_edge(self) -> tuple[float, float]:
        """(A, A')(r), where the geodesics from inside the ball enter the
        transition: a constant of the metric, looked up once."""
        return tuple(float(v[0]) for v in self.state(self.params.r))

    @cached_property
    def exit_state(self) -> tuple[float, float]:
        """(A, A')(r + eps), where the transition ends: a constant of the
        metric, looked up once."""
        return tuple(float(v[0]) for v in self.state(self.params.r + self.params.eps))

    def value(self, rho: float | np.ndarray) -> float | np.ndarray:
        v, _ = self.state(rho)
        return float(v[0]) if np.isscalar(rho) or np.ndim(rho) == 0 else v

    def deriv(self, rho: float | np.ndarray) -> float | np.ndarray:
        _, d = self.state(rho)
        return float(d[0]) if np.isscalar(rho) or np.ndim(rho) == 0 else d

    def log_slope(self, rho: float | np.ndarray) -> float | np.ndarray:
        """A'(rho)/A(rho); the drift coefficient of the radial geodesic flow."""
        v, d = self.state(rho)
        out = d / v
        return float(out[0]) if np.isscalar(rho) or np.ndim(rho) == 0 else out

    def min_log_slope(self) -> float:
        """An a with A'/A >= a on (0, inf), up to the sampling of the
        transition.

        cot(rho) is decreasing on the ball, so the interior infimum is
        cot(r); outside the transition A'/A tends monotonically to 1, so the
        exterior infimum is min(1, A'(r+eps)/A(r+eps)); the transition zone
        is sampled at 257 points.  No verdict reads it: the search proves
        non-trapping from A'(r + eps/2) > 0 instead.
        """
        r, eps = self.params.r, self.params.eps
        a = min(1.0 / math.tan(r), self.exit_state[1] / self.exit_state[0], 1.0)
        if eps > 0.0:
            grid = np.linspace(r, r + eps, 257)
            a = min(a, float(np.min(self.log_slope(grid))))
        return a

    def negative_curvature_threshold(self) -> float:
        """Smallest rho0 with K_par < 0 and K_perp < 0 for all rho > rho0.

        K_par < 0 past the transition midpoint; K_perp < 0 exactly where
        A' > 1, and A' is increasing there, so the threshold solves
        A'(rho) = 1 on the exterior branch (a quadratic in e^rho).
        """
        r, eps = self.params.r, self.params.eps
        par_thr = r + eps / 2.0
        if self.exit_state[1] >= 1.0:
            perp_thr = r + eps
        else:
            # a_+ u^2 - u - a_- = 0 with u = e^rho
            disc = 1.0 + 4.0 * self.a_plus * self.a_minus
            if disc <= 0.0:
                raise ValueError("exterior slope never reaches 1; no threshold")
            u = (1.0 + math.sqrt(disc)) / (2.0 * self.a_plus)
            perp_thr = math.log(u)
        return max(par_thr, perp_thr)


# The transition pair (module docstring) starts from (p, p', m, m') =
# (1, 1, 1, -1) and is solved at one tolerance for every caller, in steps of
# at most eps/32.  Without the bound DOP853's error estimate misses the rise
# of exp(-1/x) in a long first step: the end state was 9.6e-9 off at
# eps = 1.1e-2; with it, at most 1.1e-13 over 800 draws of eps in
# [1e-12, 0.1], for a median 521 RHS calls instead of 479.
_PAIR_START = (1.0, 1.0, 1.0, -1.0)
_PAIR_TOL = 1e-12
_PAIR_MIN_STEPS = 32


@lru_cache(maxsize=8)
def _pair(eps: float) -> Flow:
    """The transition pair of width eps > 0 on [0, eps]; the 8 most recent
    are cached."""

    def rhs(x: float, y: np.ndarray) -> tuple[float, float, float, float]:
        p, dp, m, dm = y.tolist()
        k = 1.0 - 2.0 * mollifier(x / eps)
        return dp, -k * p, dm, -k * m

    return integrate_ivp(rhs, 0.0, _PAIR_START, eps, _PAIR_TOL, max_step=eps / _PAIR_MIN_STEPS)


def entry_slope(eps: float) -> float:
    """w(eps): W = Y'/Y at the ball boundary of the transition solution that
    equals (1, -1) at x = eps (module docstring); -1 at eps = 0."""
    p, dp, m, dm = _pair(eps).end.tolist() if eps > 0.0 else _PAIR_START
    return (p + dp + m + dm) / (m + dm - p - dp)


def solve_warp(params: ProfileParams) -> WarpFunction:
    """Construct the warp function for the given profile parameters.

    The interior branch is exact; the transition and the exterior
    coefficients are projections of the transition pair of width eps (module
    docstring), so nothing is solved per r.  An eps below the resolution of
    r is the sharp metric, with no transition.
    """
    r, eps = params.r, params.eps
    flow = None if r + eps == r else _pair(eps)
    p, dp, m, dm = _PAIR_START if flow is None else flow.end.tolist()
    alpha = (math.sin(r) + math.cos(r)) / 2.0
    beta = (math.sin(r) - math.cos(r)) / 2.0
    a_plus = math.exp(-(r + eps)) * (alpha * (p + dp) + beta * (m + dm)) / 2.0
    a_minus = math.exp(r + eps) * (alpha * (p - dp) + beta * (m - dm)) / 2.0
    transition = None
    if flow is not None:
        # x = rho - r is exact on [r, 2r] (Sterbenz); where r + eps rounds up
        # it passes eps by less than an ulp of r, and the last step may be
        # far shorter than that, so x is clipped to the solve's span
        proj = np.array(((alpha, 0.0, beta, 0.0), (0.0, alpha, 0.0, beta)))
        transition = Trajectory.from_function(
            lambda rho: proj @ flow.dense(np.minimum(rho - r, eps)), r, r + eps)
    return WarpFunction(params, a_plus, a_minus, transition)


def k_perp(warp: WarpFunction, rho: float | np.ndarray) -> float | np.ndarray:
    """Sectional curvature of 2-planes normal to the radial direction:
    A^{-2} (1 - (A')^2).  Equals 1 on the ball and tends to -1 at infinity."""
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    if rho_arr.min() <= 0.0:
        raise ValueError("k_perp requires rho > 0")
    v, d = warp.state(rho_arr)
    out = (1.0 - d * d) / (v * v)
    return float(out[0]) if np.isscalar(rho) or np.ndim(rho) == 0 else out
