"""No module under ``src/`` that nothing under ``src/`` imports.

ROADMAP's definition of an island: a module no other ``src/`` module
imports is reachable only from tests and examples, so nothing a scenario
or benchmark runs exercises it.  Each island either gets wired in or goes;
until then it sits in ``ALLOWED`` with the reason it is still here.  The
computed set must equal the allowlist exactly, so a new unimported module
fails here, and so does an entry whose module was wired in or deleted —
the list can only shrink.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: entry points: run, not imported
ENTRY_POINTS = {"repro.__main__", "repro.cli"}

ALLOWED = {
    "repro.core.loadbalancer": "§VI mitigation, leaf; ABL-CENSOR's subject",
    "repro.core.audit": "ROADMAP: becomes the one post-run invariant oracle",
    "repro.analysis.crossfidelity": "ROADMAP: becomes a gated two-engine scenario",
    "repro.sim.calibration": "ROADMAP: wired together with crossfidelity",
}


def _modules() -> "dict[str, Path]":
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imports(name: str, path: Path) -> "set[str]":
    """Every dotted name ``path`` imports, relative imports resolved."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # "from . import x" is level 1: the package itself
                parents = package.split(".")
                parents = parents[: len(parents) - node.level + 1]
                base = ".".join(parents + ([node.module] if node.module else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_every_unimported_module_is_an_allowlisted_island():
    modules = _modules()
    imported = set()
    for name, path in modules.items():
        imported |= _imports(name, path) - {name}
    islands = {
        name
        for name, path in modules.items()
        if name not in imported
        and name not in ENTRY_POINTS
        and path.name != "__init__.py"
    }
    assert islands == set(ALLOWED)
