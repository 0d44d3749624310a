"""Scalar solutions (x, x') of one variable, evaluated piece by piece.

Nothing in the package integrates an ODE.  The ball and the exterior are
closed forms, the transition pair is its Taylor series in eps^2 (``warp``),
and every geodesic's transition window is a quadrature on that pair
(``geodesics``).  A solution is a ``Trajectory``: a function on [t0, t1]
made of pieces, each a closed form or a quadrature wrapped by
``Trajectory.from_function`` (not evaluated until asked).  Pieces built on
their natural spans (the last may run to inf) are joined as
``Trajectory(t0, t1, pieces)``, whose [t0, t1] is the domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["Trajectory"]


@dataclass(frozen=True, eq=False)
class _Piece:
    """One piece on [t_lo, t_hi]: ``sol`` maps an array of times to the rows
    (x, x')."""

    t_lo: float
    t_hi: float
    sol: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A C^1 solution (x, x') on the domain [t0, t1], made of consecutive
    pieces (the last may reach past t1) that ``value``/``deriv``/``state``
    evaluate anywhere in that range."""

    t0: float
    t1: float
    pieces: tuple[_Piece, ...] = field(repr=False)

    def state_scalar(self, t: float) -> tuple[float, float]:
        """(x, x') at one time, as floats; like ``state``, refuses times
        outside the time range."""
        x, v = self.state(t)
        return float(x[0]), float(v[0])

    def clip(self, t: float | np.ndarray) -> np.ndarray:
        """The times t as an array clipped to [t0, t1]; ValueError for a
        time outside it by more than a slack of 1e-9 of its length (at least
        1e-9)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.t0, self.t1
        slack = 1e-9 * max(1.0, abs(hi - lo))
        if t_arr.min() < lo - slack or t_arr.max() > hi + slack:
            raise ValueError(
                f"evaluation time outside [{lo}, {hi}]: "
                f"[{t_arr.min()}, {t_arr.max()}]"
            )
        return np.clip(t_arr, lo, hi)

    def state(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t_arr = self.clip(t)
        xs = np.empty_like(t_arr)
        vs = np.empty_like(t_arr)
        uppers = np.array([p.t_hi for p in self.pieces])
        idx = np.clip(np.searchsorted(uppers, t_arr, side="left"), 0, len(self.pieces) - 1)
        for i, piece in enumerate(self.pieces):
            mask = idx == i
            if mask.any():
                xs[mask], vs[mask] = piece.sol(t_arr[mask])
        return xs, vs

    def value(self, t: float | np.ndarray) -> float | np.ndarray:
        x, _ = self.state(t)
        return float(x[0]) if np.isscalar(t) else x

    def deriv(self, t: float | np.ndarray) -> float | np.ndarray:
        _, v = self.state(t)
        return float(v[0]) if np.isscalar(t) else v

    @classmethod
    def from_function(
        cls,
        fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
        t0: float,
        t1: float,
    ) -> "Trajectory":
        """The solution ``(x, x') = fn(t)`` on [t0, t1], a closed form or a
        quadrature.  ``fn`` is vectorized over t and only called when the
        trajectory is evaluated."""

        def sol(t: np.ndarray) -> np.ndarray:
            return np.vstack(fn(np.atleast_1d(np.asarray(t, dtype=float))))

        t0, t1 = float(t0), float(t1)
        return cls(t0=t0, t1=t1, pieces=(_Piece(t0, t1, sol),))
