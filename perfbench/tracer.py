"""Spans and work counters around the layers of ahwarp, installed from outside.

The package is not modified.  ``Tracer.install`` replaces each public
function of the layer modules (``ode``, ``warp``, ``geodesics``, ``jacobi``,
``stable``, ``search``) at every module binding that holds it:
``from .ode import integrate_ivp`` copies the name into the importing module,
so patching only the defining module would miss its callers.  scipy's
``solve_ivp`` and ``brentq`` are wrapped at the ahwarp bindings that call them,
which is where the solver's own work counts (``nfev``, accepted steps) and the
Brent iterates are read.

Spans (name, start, end, parent, operation) are kept in memory and written
out by the caller at exit.  Functions called once per right-hand-side
evaluation get no spans: ``Trajectory.state_scalar`` (a dense-output lookup
made from inside the Jacobi right-hand side) is only counted, ``mollifier`` is
counted and timed, since its numpy body costs far more than two clock reads,
and ``k_parallel`` is left alone: in the transition it is a thin shell around
``mollifier`` and would otherwise make up most of the spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

import scipy.integrate
import scipy.optimize

LAYERS = ("ode", "warp", "geodesics", "jacobi", "stable", "search")

_UNSPANNED = {"warp.k_parallel"}

# Position of the grid records in the results of the two sampled regimes.
_GRID_RECORDS = {"search.verify_small_s": 0, "search.verify_large_s": 2}

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self._stack: list[int] = []
        self.active = False
        self.op = -1
        self.counts: Counter = Counter()
        self.mollifier_s = 0.0

    # -- wrappers ------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, _clock(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = _clock()
        self._stack.pop()

    def _spanned(self, name: str, fn):
        records_at = _GRID_RECORDS.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if records_at is not None:
                self.counts["grid_points"] += len(result[records_at])
            return result

        return wrapper

    def _solver(self, fn):
        def solve_ivp(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open("ode.solve_ivp")
            try:
                sol = fn(*args, **kwargs)
            except BaseException:
                self.counts["solver_failures"] += 1
                raise
            finally:
                self._close(rec)
            self.counts["solver_calls"] += 1
            self.counts["rhs_evals"] += int(sol.nfev)
            self.counts["steps"] += len(sol.t) - 1
            if sol.status < 0:
                self.counts["solver_failures"] += 1
            return sol

        return solve_ivp

    def _brent(self, fn):
        def brentq(f, *args, **kwargs):
            def counted(x, *fargs):
                if self.active:
                    self.counts["brent_evals"] += 1
                return f(x, *fargs)

            return fn(counted, *args, **kwargs)

        return brentq

    def _mollifier(self, fn):
        def mollifier(x):
            if not self.active:
                return fn(x)
            t0 = _clock()
            try:
                return fn(x)
            finally:
                self.mollifier_s += _clock() - t0
                self.counts["mollifier_calls"] += 1

        return mollifier

    def _dense_lookup(self, fn):
        def state_scalar(traj, t):
            if self.active:
                self.counts["dense_lookups"] += 1
            return fn(traj, t)

        return state_scalar

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers of the already imported ``ahwarp`` package."""
        pkg = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "ahwarp" or n.startswith("ahwarp."))]
        if len(pkg) < len(LAYERS) + 1:
            raise RuntimeError("import ahwarp before installing the tracer")
        wrappers = {
            scipy.integrate.solve_ivp: self._solver(scipy.integrate.solve_ivp),
            scipy.optimize.brentq: self._brent(scipy.optimize.brentq),
        }
        for layer in LAYERS:
            mod = sys.modules[f"ahwarp.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                if key == "warp.mollifier":
                    wrappers[fn] = self._mollifier(fn)
                elif key not in _UNSPANNED:
                    wrappers[fn] = self._spanned(key, fn)
        for mod in pkg:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
        traj = sys.modules["ahwarp.ode"].Trajectory
        traj.state_scalar = self._dense_lookup(traj.state_scalar)

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span and count recorded so far."""
        n = len(self.spans)
        child_s = [0.0] * n
        children: list[list[int]] = [[] for _ in range(n)]
        for i, (_, t0, t1, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_s[parent] += t1 - t0
                children[parent].append(i)

        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        layer_self: Counter = Counter()
        ode_busy = 0.0
        hits = 0
        backward_passes = 0
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            dur = t1 - t0
            own = dur - child_s[i]
            calls[name] += 1
            total[name] += dur
            self_s[name] += own
            layer = name.split(".", 1)[0]
            layer_self[layer] += own
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            if layer == "ode" and not parent_name.startswith("ode."):
                ode_busy += dur
            if name == "stable.stable_for" and not any(
                    self.spans[c][0] == "stable.stable_solution" for c in children[i]):
                hits += 1
            if name == "ode.integrate_backward" and parent_name.startswith("stable."):
                backward_passes += 1

        c = self.counts
        solutions = calls["stable.stable_solution"]
        return {
            "ode.solve_calls": c["solver_calls"],
            "ode.rhs_evals": c["rhs_evals"],
            "ode.steps": c["steps"],
            "ode.rhs_evals_per_step": c["rhs_evals"] / c["steps"] if c["steps"] else 0.0,
            "ode.busy_s": ode_busy,
            "ode.failures": c["solver_failures"],
            "ode.dense_lookups": c["dense_lookups"],
            "warp.mollifier.calls": c["mollifier_calls"],
            "warp.mollifier.busy_s": self.mollifier_s,
            "warp.solve_warp.calls": calls["warp.solve_warp"],
            "warp.solve_warp.busy_s": total["warp.solve_warp"],
            "geodesics.solve_radial.calls": calls["geodesics.solve_radial"],
            "geodesics.solve_radial.self_s": self_s["geodesics.solve_radial"],
            "jacobi.make_kernel.calls": calls["jacobi.make_kernel"],
            "jacobi.make_kernel.self_s": self_s["jacobi.make_kernel"],
            "jacobi.fundamental_pair.calls": calls["jacobi.fundamental_pair"],
            "jacobi.fundamental_pair.self_s": self_s["jacobi.fundamental_pair"],
            "stable.stable_for.calls": calls["stable.stable_for"],
            "stable.stable_solution.calls": solutions,
            "stable.cache_hit_ratio": (hits / calls["stable.stable_for"]
                                       if calls["stable.stable_for"] else 0.0),
            "stable.backward_passes": backward_passes,
            "stable.passes_per_solution": backward_passes / solutions if solutions else 0.0,
            "stable.self_s": layer_self["stable"],
            "search.find_r_star.s": total["search.find_r_star"],
            "search.brent_evals": c["brent_evals"],
            "search.verify_small_s.s": total["search.verify_small_s"],
            "search.verify_large_s.s": total["search.verify_large_s"],
            "search.assemble_report.self_s": self_s["search.assemble_report"],
            "search.grid_points": c["grid_points"],
        }
