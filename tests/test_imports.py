"""scipy stays off every path that solves no hull linear program.

The check runs in a fresh interpreter, because other test modules import
scipy themselves and would fill this process's ``sys.modules``.
"""

import json
import os
import subprocess
import sys

import syncrate

CHILD = """
import json
import sys

from syncrate import (
    EstimatorConfig, cli, estimate_entropy_rate, iid_stream, lz78_curve, simulate,
    two_state_nonsynchronizable,
)

def scipy_loaded():
    return sorted(m for m in sys.modules if m.startswith(("scipy.sparse", "scipy.optimize")))

stream = simulate(two_state_nonsynchronizable(), 100_000, seed=0)
estimate_entropy_rate(stream, EstimatorConfig(epsilon=0.05))
lz78_curve(stream, [10_000, 100_000])
status = cli.main(["bounds", "--alphabet-size", "2", "--lengths", "1e6"])
binary = scipy_loaded()

# three symbols with more than one distinct derivative: the hull test solves
# linear programs, so the import must still happen on demand
three = iid_stream([0.5, 0.3, 0.2], 20_000, seed=0)
report = estimate_entropy_rate(three, EstimatorConfig(epsilon=0.1, min_count=50))
print(json.dumps({"status": status, "binary": binary, "after_lp": scipy_loaded(),
                  "h": report.entropy_rate}))
"""


def run_child():
    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(syncrate.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_binary_paths_load_no_sparse_or_optimize_module():
    out = run_child()
    assert out["status"] == 0
    assert out["binary"] == []
    assert "scipy.optimize" in out["after_lp"]
    assert 0.0 < out["h"] <= 1.6
