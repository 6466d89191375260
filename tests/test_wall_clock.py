"""No ``src/`` module reads the host's clock, except the two that measure it.

Everything the engines and their telemetry record is on the simulated
clock, so a seeded run is reproducible byte for byte.  Host time is
measured from outside: the stack sampler in ``repro.telemetry.profiling``
(and its peak-RSS line), and the ``repro.bench`` harness that times
scenarios for their artifacts.  This scan walks every module's AST and
fails on any reference to a host clock or resource-usage function
elsewhere — a call, or a function handed on to be called later — however
the module imported it (``import time as _t``, ``from time import
perf_counter``).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: host clocks and resource meters, by module
CLOCKS = {
    "time": {
        "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
        "time", "time_ns", "process_time", "process_time_ns",
    },
    "resource": {"getrusage"},
}

#: the only modules allowed to read them (``repro.bench`` and its children)
ALLOWED = ("repro.telemetry.profiling", "repro.bench")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _allowed(name: str) -> bool:
    return any(name == a or name.startswith(a + ".") for a in ALLOWED)


def _clock_reads(tree: ast.AST) -> "list[tuple[int, str]]":
    """(line, dotted name) of every host-clock reference in ``tree``."""
    modules: "dict[str, str]" = {}  # local name -> clock module
    functions: "dict[str, str]" = {}  # local name -> "module.function"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in CLOCKS:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module in CLOCKS:
            for alias in node.names:
                if alias.name in CLOCKS[node.module]:
                    functions[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr in CLOCKS[modules[node.value.id]]
        ):
            found.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
        elif isinstance(node, ast.Name) and node.id in functions:
            found.append((node.lineno, functions[node.id]))
    return sorted(found)


def test_only_the_profiler_and_bench_harness_read_the_host_clock():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        name = _module_name(path)
        if _allowed(name):
            continue
        for line, func in _clock_reads(ast.parse(path.read_text())):
            offenders.append(f"{name}:{line} {func}")
    assert offenders == []


def test_allowlist_names_modules_that_read_the_host_clock():
    # The allowlist can only shrink: each entry must still exist and still
    # read a host clock, or it is stale.
    readers = {
        _module_name(path)
        for path in SRC.rglob("*.py")
        if _clock_reads(ast.parse(path.read_text()))
    }
    for allowed in ALLOWED:
        assert any(
            r == allowed or r.startswith(allowed + ".") for r in readers
        ), allowed


def test_scan_sees_every_import_form():
    source = (
        "import time as _t\n"
        "from time import perf_counter as pc\n"
        "import resource\n"
        "def f(clock=_t.monotonic):\n"
        "    return pc() + resource.getrusage(0).ru_maxrss + len('time')\n"
    )
    assert _clock_reads(ast.parse(source)) == [
        (4, "time.monotonic"),
        (5, "resource.getrusage"),
        (5, "time.perf_counter"),
    ]
