"""Smoke-run the fast example scripts as subprocesses.

Keeps the examples' public-API usage honest — if a refactor breaks an
example, the suite catches it.  The slow, full-scale examples
(blockchain_comparison, nasdaq_dapp, flooding_attack) are exercised by
the benchmark suite instead.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "chain_audit.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "OK" in result.stdout


def test_all_examples_present():
    expected = {
        "quickstart.py", "nasdaq_dapp.py", "flooding_attack.py",
        "censorship_mitigation.py",
        "blockchain_comparison.py", "chain_audit.py",
    }
    assert expected <= {p.name for p in EXAMPLES.glob("*.py")}
