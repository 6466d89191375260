"""Every message-level deployment under ``src/`` is built by one function.

``repro.diablo.runner.deploy`` turns committee size, topology, weak seat,
fault schedule and protocol knobs into a ``Deployment``; a second
hand-built ``Deployment(...)`` call would carry its own copy of that
wiring.  ``ALLOWED`` names each top-level function that may call the
constructor, with the reason.  The found call sites must equal the list
exactly, so a new call fails here, and so does an entry whose call was
removed: the list can only shrink.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ALLOWED = {
    "repro.diablo.runner.deploy": "the one builder",
    "repro.sim.calibration.measure_round_time": "island module, ROADMAP item 8",
}


def _call_sites() -> "list[str]":
    """``module.top_level_def`` of every ``Deployment(...)`` call, once per call."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join(parts)
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name == "Deployment":
                    sites.append(f"{module}.{owner}")
    return sorted(sites)


def test_deployments_are_built_only_by_the_allowlisted_functions():
    assert _call_sites() == sorted(ALLOWED)
