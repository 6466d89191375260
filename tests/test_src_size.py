"""``src/`` stays under its line budget.

ROADMAP aim 2 counts code as a cost, and its subtraction item sets the
budget: the ``wc -l`` total of every ``.py`` file under ``src/``.  The
budget is a ratchet: each subtraction lowers it to the new count rounded
up to the next 100.  A change that needs more must delete something
first, or raise the budget in ROADMAP.md and here together, saying why.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``find src -name '*.py' | xargs wc -l`` total may not exceed this
SRC_LINE_BUDGET = 15_500


def test_src_lines_within_budget():
    lines = sum(
        path.read_bytes().count(b"\n") for path in SRC.rglob("*.py")
    )
    assert lines <= SRC_LINE_BUDGET, f"src/ has {lines} lines"
