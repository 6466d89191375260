"""No module, and no public function or class, under ``src/`` that only
tests reach.

ROADMAP's definition of an island: a module no other ``src/`` module
imports is reachable only from tests and examples, so nothing a scenario
or benchmark runs exercises it.  Each island either gets wired in or goes;
until then it sits in ``ALLOWED`` with the reason it is still here.  The
computed set must equal the allowlist exactly, so a new unimported module
fails here, and so does an entry whose module was wired in or deleted —
the list can only shrink.  ``ALLOWED_DEFS`` applies the same rule one
level down, to the top-level public functions and classes of a module.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

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


#: top-level public functions and classes nothing outside their own
#: definition names in ``src/``, ``benchmarks/``, ``examples/`` or CI
ALLOWED_DEFS = {
    "repro.analysis.crossfidelity.compare_fidelity": "island module, ROADMAP item 8",
    "repro.sim.calibration.model_consistency": "island module, ROADMAP item 8",
    "repro.sim.calibration.calibration_table": "island module, ROADMAP item 8",
    "repro.core.rewards.best_response": "ROADMAP item 5: the RPM client moves out",
    "repro.core.rewards.theorem1_holds": "ROADMAP item 5: the RPM client moves out",
    "repro.workloads.synthetic.burst_trace": "input of the engine tests",
    "repro.diablo.client.SingleNodeSubmitter": "input of the engine tests",
}


def _names(node: ast.AST) -> "set[str]":
    """Every identifier ``node`` uses: names, attributes, imported names."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            found.update(alias.name for alias in child.names)
    return found


def test_every_unreferenced_public_def_is_allowlisted():
    defs = {}  # qualified name -> (defining file, name)
    for name, path in _modules().items():
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs[f"{name}.{node.name}"] = (path, node.name)
    # (file, enclosing top-level def or None) of every use of a name;
    # re-exports in ``__init__`` modules are not uses
    users: "dict[str, set]" = {}
    files = [p for p in SRC.rglob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "benchmarks").rglob("*.py"), *(ROOT / "examples").rglob("*.py")]
    for path in files:
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for used in _names(top):
                users.setdefault(used, set()).add((path, owner))
    ci = set(re.findall(r"\w+", (ROOT / ".github/workflows/ci.yml").read_text()))
    islands = {
        qualified
        for qualified, (path, name) in defs.items()
        if name not in ci and not users.get(name, set()) - {(path, name)}
    }
    assert islands == set(ALLOWED_DEFS)
