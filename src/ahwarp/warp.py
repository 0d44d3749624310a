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

In x = rho - r = eps u the transition equation does not contain r, and in u
it reads Y_uu = -lam k(u) Y on [0, 1], k = 1 - 2 mollifier, with eps entering
only through lam = eps^2.  Its fundamental pair, C (C(0) = 1, C'(0) = 0) and
S (S(0) = 0, S'(0) = 1) in x, is an entire function of lam (Coddington and
Levinson, Theory of Ordinary Differential Equations, 1955, ch. 1).  So one
DOP853 solve, made on first use and kept for the life of the process
(``_series``), carries the pair at the 10 Chebyshev points of lam on
[0, (pi/2)^2], and every eps (ProfileParams keeps eps < pi/2) is a
barycentric interpolation in lam (Trefethen, Approximation Theory and
Approximation Practice, 2013).  What is interpolated are the remainders
(C - 1, C_u, S - u, S_u - 1) / lam, so eps -> 0 gives the sharp start
(C, C', S, S') = (1, 0, 0, 1) exactly.  The pair serves every r:

* the warp function: A(r + x) = sin r C + cos r S on [0, eps], and A' the
  same sum of C' and S', a projection of the interpolated dense output;
* the exterior coefficients, one formula for every eps:
  a_+- = e^{-+(r + eps)} (A +- A')(r + eps) / 2;
* w(eps) = -(C + C') / (S + S') at x = eps: W = Y'/Y at the ball boundary
  of the solution equal to (1, -1) at x = eps, where the exterior decay
  e^{-x} takes over (``entry_slope``).  The search reads r* = -arctan w(eps)
  off it.

An eps below the resolution of r (r + eps == r) is the sharp metric.
Nothing is solved at import, nor for a sharp metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .ode import Flow, Trajectory, _bisect, integrate_ivp

__all__ = [
    "ProfileParams",
    "WarpFunction",
    "mollifier",
    "k_parallel",
    "solve_warp",
    "entry_slope",
    "k_perp",
]

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
        """The infimum a of A'/A on (0, inf), so A'/A >= a there.

        cot(rho) decreases on the ball to w(r) = cot(r); past the transition
        A'/A tends monotonically to 1.  On the window w = A'/A obeys
        w' = -K_par - w^2, and at a zero of w', w'' = -K_par' >= 0: w' turns
        positive at most once.  So w falls from cot(r) to its least value,
        at r + eps when w' = 1 - w^2 <= 0 there (K_par = -1) and else at the
        one root of w^2 = -K_par, located by bisection on the transition
        pair's dense output.  No verdict reads it: the search proves
        non-trapping from A'(r + eps/2) > 0 instead.
        """
        r, eps = self.params.r, self.params.eps
        w = self.exit_state[1] / self.exit_state[0]
        if self._transition is not None and w * w < 1.0:
            # w' = -K_par - w^2 > 0 past the root
            rho = _bisect(lambda x: self.log_slope(x) ** 2 + k_parallel(self.params, x) < 0.0,
                          r, r + eps)
            w = self.log_slope(rho)
        return min(w, 1.0)

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


# The transition pair is solved at one tolerance for every caller, in steps
# of at most 1/32 in u (eps/32 in x).  Without the bound DOP853's error
# estimate misses the rise of exp(-1/x) in a long first step: a pair solved
# in x was 9.6e-9 off at eps = 1.1e-2.
_PAIR_TOL = 1e-12
_PAIR_MIN_STEPS = 32
# lam = eps^2 < (pi/2)^2, as ProfileParams keeps r + eps < pi/2
_LAM_MAX = (math.pi / 2.0) ** 2
_NODES = 10


def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Chebyshev points of the first kind on [0, (pi/2)^2] (lam = 0
    is not one of them) and their barycentric weights."""
    theta = (np.arange(n) + 0.5) * (math.pi / n)
    return 0.5 * _LAM_MAX * (1.0 - np.cos(theta)), np.sin(theta) * (-1.0) ** np.arange(n)


_LAM, _WEIGHTS = _chebyshev(_NODES)


def _solve_pair(lam: np.ndarray) -> Flow:
    """One DOP853 solve in u on [0, 1] of the remainders of the pair at each
    lam_j: with C = 1 + lam c, C_u = lam c', S = u + lam s, S_u = 1 + lam s',
    c'' = -k (1 + lam c) and s'' = -k (u + lam s) from 0, so nothing
    cancels.  The rows are (c, s, c', s'), each over the nodes."""
    n = len(lam)
    lam2 = np.concatenate((lam, lam))
    one, ramp = np.repeat([1.0, 0.0], n), np.repeat([0.0, 1.0], n)

    def rhs(u: float, y: np.ndarray) -> np.ndarray:
        m = 2.0 * mollifier(u) - 1.0  # -k
        return np.concatenate((y[2 * n:], m * (lam2 * y[:2 * n] + (one + u * ramp))))

    return integrate_ivp(rhs, 0.0, np.zeros(4 * n), 1.0, _PAIR_TOL,
                         max_step=1.0 / _PAIR_MIN_STEPS)


@cache
def _series() -> Flow:
    """The remainder rows at the 10 nodes ``_LAM``: the one solve of the
    transition pair in a process, made on first use."""
    return _solve_pair(_LAM)


def _interpolant(lam: float, nodes: np.ndarray = _LAM,
                 weights: np.ndarray = _WEIGHTS) -> np.ndarray:
    """The coefficients l_j(lam) of the barycentric interpolant, sum_j
    l_j f(lam_j); the unit vector where lam is a node."""
    d = lam - nodes
    if not np.all(d):
        return (d == 0.0).astype(float)
    q = weights / d
    return q / q.sum()


def _pair(eps: float, rem: np.ndarray, x: float | np.ndarray) -> tuple:
    """(C - 1, C', S, S' - 1) in x = eps u, the pair less the sharp one, from
    the remainders (c, s, c', s') at lam = eps^2 (rows of ``rem``): the
    small parts are summed before the 1 is added back, which rounds once."""
    lam = eps * eps
    c, s, dc, ds = rem
    return lam * c, eps * dc, x + eps * lam * s, lam * ds


def _pair_end(eps: float) -> tuple[float, float, float, float]:
    """(C - 1, C', S, S' - 1) at x = eps; zeros at eps = 0, with no solve."""
    if eps == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    rem = _series().end.reshape(4, _NODES) @ _interpolant(eps * eps)
    return tuple(float(v) for v in _pair(eps, rem, eps))


def entry_slope(eps: float) -> float:
    """w(eps) = -(C + C') / (S + S') at x = eps: W = Y'/Y at the ball
    boundary of the transition solution that equals (1, -1) at x = eps
    (module docstring); -1 at eps = 0."""
    if not 0.0 <= eps < math.pi / 2.0:
        raise ValueError(f"eps must lie in [0, pi/2), got {eps}")
    c1, dc, s, ds1 = _pair_end(eps)
    return -(1.0 + (c1 + dc)) / (1.0 + (s + ds1))


def solve_warp(params: ProfileParams) -> WarpFunction:
    """Construct the warp function for the given profile parameters.

    The interior branch is exact; the transition and the exterior
    coefficients are projections of the transition pair of width eps (module
    docstring), so nothing is solved per r or per eps.  An eps below the
    resolution of r is the sharp metric, with no transition.
    """
    r, eps = params.r, params.eps
    sharp = r + eps == r
    sin_r, cos_r = math.sin(r), math.cos(r)

    def project(c1, dc, s, ds1):
        """(A, A')(r + x) = sin r (C, C') + cos r (S, S')."""
        return sin_r + (sin_r * c1 + cos_r * s), cos_r + (sin_r * dc + cos_r * ds1)

    a, da = project(*_pair_end(0.0 if sharp else eps))
    a_plus = math.exp(-(r + eps)) * (a + da) / 2.0
    a_minus = math.exp(r + eps) * (a - da) / 2.0
    transition = None
    if not sharp:
        flow, coeffs = _series(), _interpolant(eps * eps)

        def state(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # x = rho - r is exact on [r, 2r] (Sterbenz); where r + eps rounds
            # up it passes eps by less than an ulp of r, so it is clipped
            x = np.minimum(rho - r, eps)
            return project(*_pair(eps, coeffs @ flow.dense(x / eps).reshape(4, _NODES, -1), x))

        transition = Trajectory.from_function(state, r, r + eps)
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
