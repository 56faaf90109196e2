"""No path of the package imports scipy, the hull vertex test included.

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
import tempfile

import syncrate.sync
from syncrate import (
    EstimatorConfig, cli, estimate_entropy_rate, iid_stream, lz78_curve, simulate,
    two_state_nonsynchronizable,
)

solved = []
is_vertex = syncrate.sync._is_vertex
syncrate.sync._is_vertex = lambda points, index: solved.append(index) or is_vertex(points, index)

stream = simulate(two_state_nonsynchronizable(), 100_000, seed=0)
estimate_entropy_rate(stream, EstimatorConfig(epsilon=0.05))
lz78_curve(stream, [10_000, 100_000])
status = [cli.main(["bounds", "--alphabet-size", "2", "--lengths", "1e6"])]

# three symbols with more than one distinct derivative: the hull test runs
# its least-squares solves, in the library and through `syncrate sync`
three = iid_stream([0.5, 0.3, 0.2], 20_000, seed=0)
report = estimate_entropy_rate(three, EstimatorConfig(epsilon=0.1, min_count=50))
solved_by = [len(solved)]
with tempfile.TemporaryDirectory() as tmp:
    path = tmp + "/three.bin"
    with open(path, "wb") as f:
        f.write(three.data.tobytes())
    status.append(cli.main(["sync", "--input", path, "--epsilon", "0.1", "--collect-min", "50"]))
solved_by.append(len(solved) - solved_by[0])
print(json.dumps({"status": status, "solved": solved_by, "h": report.entropy_rate,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
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


def test_no_path_loads_scipy():
    out = run_child()
    assert out["status"] == [0, 0]
    # the estimate and `sync` each ran the hull test's solves
    assert min(out["solved"]) > 0
    assert out["scipy"] == []
    assert 0.0 < out["h"] <= 1.6
