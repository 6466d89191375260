"""Self-test of the benchmark, at smoke sizes.

Run with ``python -m pytest benchmarks/perf -q``.  Tier-1 does not collect
it (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import micro  # noqa: E402
import repeat  # noqa: E402
import run  # noqa: E402
from trace import TARGETS, Tracer, rebind  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_smoke_run_prints_every_metric_with_a_unit(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "17", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    assert done.returncode == 0, done.stdout
    result = json.loads(out.read_text())
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for kind in ("end_to_end", "per_layer"):
        for metric in SPEC[kind]:
            assert NAME.fullmatch(metric["name"]), metric["name"]
            assert metric["name"] in done.stdout, f"{metric['name']} not printed"
            for workload, row in result["workloads"].items():
                assert row[kind][metric["name"]]["unit"] == metric["unit"], (workload, metric)
    for row in result["workloads"].values():
        assert row["failed"] == 0
        assert row["end_to_end"]["tx_committed_share"]["median"] == 1.0
        assert row["unresolved_layers"] == []


def _simulated(rep: dict) -> dict:
    counts = {k: v for k, v in rep["counts"].items() if k not in run.HOST_COUNTS}
    return {**rep["sim"], **counts}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_same_seed_repeats_exactly_and_another_seed_does_not(workload):
    first = run.repeat(workload, 17, run.SMOKE_SCALE)
    again = run.repeat(workload, 17, run.SMOKE_SCALE)
    other = run.repeat(workload, 18, run.SMOKE_SCALE)
    assert _simulated(first) == _simulated(again)
    assert first["sim"] != other["sim"]
    run.check_outputs([first, again])


def test_unresolvable_target_yields_null_not_a_crash():
    targets = dict(TARGETS, ghost=("core.node.ValidatorNode.no_such_method",),
                   gone=("no_such_module.function",))
    tracer = Tracer(targets)
    tracer.install()
    try:
        rep = repeat.run_repeat("uber_steady", 17, run.SMOKE_SCALE)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert tracer.unresolved_layers == ["ghost", "gone"]
    assert summary["layers"]["ghost"] is None and summary["layers"]["gone"] is None
    assert summary["layers"]["vm.executor"]["calls"] > 0
    assert rep["failed"] == 0 and all(rep["checks"].values())


#: 2x verify raises ``crypto.self_s`` by 3 % (verify is a small part of
#: the layer), which an in-process smoke repeat cannot resolve; 10x can.
SLOWDOWN = 10


def _slowed(fn):
    def slowed(*args, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        until = start + SLOWDOWN * (perf_counter() - start)
        while perf_counter() < until:
            pass
        return out

    return slowed


def _best_traced(repeats: int = 3) -> dict:
    """The traced smoke repeat with the least crypto self time of a few
    (in-process repeats are noisy; the minimum is what the code costs)."""
    reps = [
        repeat.run_repeat("nasdaq_burst", 17, run.SMOKE_SCALE, trace=True)
        for _ in range(repeats)
    ]
    assert all(rep["sim"] == reps[0]["sim"] for rep in reps)
    best = dict(reps[0])
    best["self_s"] = {
        layer: min(rep["trace"]["layers"][layer]["self_s"] for rep in reps)
        for layer in TARGETS
    }
    return best


def test_a_slowed_layer_moves_its_own_rows_only(monkeypatch):
    """ROADMAP's gate: a slowed verify raises ``crypto.self_s`` and
    ``crypto.verify_us`` and leaves ``consensus.dbft.self_s`` and every
    simulated metric alone."""
    from repro.crypto import keys

    inputs = micro.Inputs(17)
    before = _best_traced()
    before_us = micro.crypto(inputs)["crypto.verify_us"]

    slowed = _slowed(keys.verify)
    undo = rebind(keys.verify, slowed)
    monkeypatch.setattr(micro, "verify", slowed)
    try:
        after = _best_traced()
        after_us = micro.crypto(inputs)["crypto.verify_us"]
    finally:
        for module, name, original in undo:
            setattr(module, name, original)

    assert after_us > 0.5 * SLOWDOWN * before_us
    assert after["self_s"]["crypto"] > 1.10 * before["self_s"]["crypto"]
    assert after["self_s"]["consensus.dbft"] < 1.25 * before["self_s"]["consensus.dbft"]
    assert after["sim"] == before["sim"]
    assert _simulated(after) == _simulated(before)
