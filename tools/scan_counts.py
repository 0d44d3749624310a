"""Count the work of one scan per eps.

Wraps, at run time, the places where a scan does its work and runs
``ahwarp.assemble_report`` once per eps:

* ``geodesics._solve``: the grids solved, each one block of rows;
* ``WarpFunction.state``: lookups of the warp function, and their points;
* ``geodesics._far_integrals`` and ``geodesics._sigma_integrals``: the
  windows built, far (on the metric's node table) and sigma (on looked-up
  values), as rows;
* ``RadialGrid._turn`` and ``RadialGrid._partial``: Newton steps, each one
  call for all the rows still turning (off-plane past the transition, and
  in the window, where ``_partial`` evaluates points of a panel from its
  node data, with no lookup; the first call of each ``window_minima`` takes
  U' at the panel's nodes);
* ``RadialGrid.window_minima``: the in-window minima, as rows, and the
  lookups (``WarpFunction.state`` calls) made inside it;
* ``Trajectory.from_function``: the trajectory pieces made.

Stdlib and ``ahwarp`` only.  Usage::

    python tools/scan_counts.py [EPS ...]

(default 0 and 0.05).  Prints one JSON object, the counts of each eps by its
``repr``, sorted by key; identical runs print identical output.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import ahwarp
from ahwarp import geodesics, ode, warp

_COUNTS: Counter = Counter()
_INSIDE: list = []  # the window_minima calls under way


def _counting(owner, name: str, count) -> None:
    """Make ``owner.name`` add ``count(*args)`` to the tallies per call."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        for key, value in count(*args).items():
            _COUNTS[key] += value
        return real(*args, **kwargs)

    setattr(owner, name, wrapper)


def _install() -> None:
    _counting(warp.WarpFunction, "state", lambda self, rho: {
        "state_calls": 1, "state_points": int(getattr(rho, "size", 1)),
        "window_lookups": int(bool(_INSIDE))})
    _counting(geodesics, "_solve", lambda ss, w, *rest: {"grids_solved": 1})
    _counting(geodesics, "_far_integrals", lambda w, s, c: {"windows_far": len(s)})
    _counting(geodesics, "_sigma_integrals", lambda w, s, c, sigma: {"windows_sigma": len(s)})
    _counting(geodesics.RadialGrid, "_turn", lambda self, e, psi: {"newton_steps_perp": 1})
    _counting(geodesics.RadialGrid, "_partial", lambda self, nodes, xi: {"newton_steps_window": 1})
    _counting(geodesics.RadialGrid, "window_minima", lambda self, in_plane: {
        "window_minima": len(in_plane)})
    minima = geodesics.RadialGrid.window_minima

    def window_minima(self, in_plane):
        _INSIDE.append(None)
        try:
            return minima(self, in_plane)
        finally:
            _INSIDE.pop()

    geodesics.RadialGrid.window_minima = window_minima
    pieces = ode.Trajectory.from_function.__func__

    def from_function(cls, fn, t0, t1):
        _COUNTS["trajectory_pieces"] += 1
        return pieces(cls, fn, t0, t1)

    ode.Trajectory.from_function = classmethod(from_function)


def scan_counts(eps: float) -> dict[str, int]:
    """The counts of one ``assemble_report(eps)``, in a process where the
    counters are installed."""
    _COUNTS.clear()
    ahwarp.assemble_report(eps)
    keys = ("grids_solved", "state_calls", "state_points", "windows_far", "windows_sigma",
            "newton_steps_perp", "newton_steps_window", "window_minima", "window_lookups",
            "trajectory_pieces")
    return {key: _COUNTS[key] for key in keys}


def main(argv: list[str] | None = None) -> int:
    eps_list = [float(a) for a in (sys.argv[1:] if argv is None else argv)] or [0.0, 0.05]
    _install()
    print(json.dumps({repr(eps): scan_counts(eps) for eps in eps_list}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
