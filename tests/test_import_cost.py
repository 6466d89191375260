"""A deployment loads no graph library (a count, not a clock).

The peer overlay is a port of the one networkx generator the program
used; importing networkx cost every process ~120 ms and 14 MB of RSS.
This builds the §V overlay and a default deployment in a fresh
interpreter and checks which modules came with them.  scipy is checked
too: no code imports it and it is not a dependency.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import sys
import repro.bench.scenarios
import repro.sim.calibration
from repro.core.deployment import Deployment
from repro.net.topology import global_topology

assert len(global_topology(200, degree=25).peers) == 200
Deployment()
print(sorted({"networkx", "scipy"} & set(sys.modules)))
"""


def test_a_deployment_imports_no_graph_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
