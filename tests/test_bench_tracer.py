"""The benchmark's tracer (``perfbench/tracer.py``) still sees the package.

A traced benchmark run ends with an error when the tracer cannot install
itself (all six layer modules imported, ``Trajectory.state_scalar`` present)
or when ``run._check_counters`` finds time in the ode layer but no solver
work counted.  This runs the traced operations of the three workloads in a
fresh interpreter, so that such a break shows here and not only in the
benchmark.  ``perfbench`` is only imported, never changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CODE = f"""
import json, sys
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import ahwarp as aw
import run
from tracer import Tracer

tracer = Tracer()
tracer.install()
tracer.active = True
mu = aw.GeodesicParams(0.2, 0.76, 0.05)
ops = [lambda: aw.assemble_report(0.0), lambda: aw.assemble_report(0.05),
       lambda: aw.stable_for("perpendicular", mu, tol=1e-10),
       lambda: aw.fundamental_pair(aw.make_kernel("parallel", mu, tol=1e-10), T=20.0, tol=1e-10)]
for op in ops:
    op()
    layers = tracer.layer_metrics()
    run._check_counters(layers)
print(json.dumps(layers))
"""


def test_traced_operations_pass_the_counter_check():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout.splitlines()[-1])
    # the package integrates nothing, so the solver counters read 0 and the
    # check passes on every operation; the scans' grids were seen through
    # their spans
    assert layers["ode.solve_calls"] == 0 and layers["ode.rhs_evals"] == 0
    assert layers["search.grid_points"] > 0 and layers["stable.stable_for.calls"] == 1
