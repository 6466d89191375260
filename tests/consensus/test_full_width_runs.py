"""A full-width vote run is counted once: a count, not a clock.

A BVAL/AUX run that covers every column of its field, and an RBC
ECHO/READY run that covers every slot, moves every counter of its kind
by one; unless one of its columns can wake, it is counted with one
uniform add and no per-column counter moves.  Counted on the
``committee_n32`` smoke build (n = 8), built from the benchmark's own
workload file and run to its horizon: at most 15 % of the full-width
runs may move per-column counters (every one did when each run walked
its columns).
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

from repro.consensus.broadcast import ReliableBroadcast
from repro.consensus.dbft import MAX_ROUNDS, VoteTable

WORKLOADS = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "workloads.py"


def _vote_counters(table, r):
    """A round's per-column counters (the four fields), zeros if none."""
    counts = table._counts.get(r)
    width = 4 * table.columns
    return counts[:width] if counts else [0] * width


def _watch_votes(method, kind, shapes):
    def counted(table, r, value, sender, columns, mask):
        shift = value * table.columns if kind == "BVAL" else 2 * table.columns
        full = (
            type(sender) is int and 0 <= sender < table.n and r <= MAX_ROUNDS
            and mask & table._all & ~(table._seen.get((r, sender), 0) >> shift)
            == table._all
        )
        before = _vote_counters(table, r)
        method(table, r, value, sender, columns, mask)
        if full:
            shapes[kind, "full"] += 1
            shapes[kind, "moved"] += _vote_counters(table, r) != before
    return counted


def _watch_rbc(on_run, shapes):
    def counted(rbc, run):
        kind = run.kind.name
        seen = rbc._echoed_by if kind == "RBC_ECHO" else rbc._readied_by
        full = (
            0 <= run.sender < rbc.n and run.mask == rbc._all
            and not run.mask & rbc._unpaid
            and tuple(rbc._digests[i] for i in run.instances) == run.digests
            and not (seen[run.sender] | rbc._delivered) & rbc._all
        )
        before = rbc._echoes + rbc._readies
        on_run(rbc, run)
        if full:
            shapes[kind, "full"] += 1
            shapes[kind, "moved"] += rbc._echoes + rbc._readies != before
    return counted


def test_full_width_runs_move_no_per_column_counter(monkeypatch):
    shapes = Counter()
    monkeypatch.setattr(VoteTable, "bval", _watch_votes(VoteTable.bval, "BVAL", shapes))
    monkeypatch.setattr(VoteTable, "aux", _watch_votes(VoteTable.aux, "AUX", shapes))
    monkeypatch.setattr(
        ReliableBroadcast, "on_run", _watch_rbc(ReliableBroadcast.on_run, shapes)
    )
    spec = importlib.util.spec_from_file_location("perf_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    prepared = workloads.committee_n32(17, 0.05)
    deployment = prepared.deployment
    deployment.start()
    prepared.submitter.submit_all(deployment, prepared.schedule)
    deployment.run_until(prepared.horizon_s)
    assert deployment.safety_holds()

    kinds = ("BVAL", "AUX", "RBC_ECHO", "RBC_READY")
    for kind in kinds:
        print(f"{kind}: {shapes[kind, 'moved']} of {shapes[kind, 'full']} "
              "full-width runs moved per-column counters")
    full = sum(shapes[kind, "full"] for kind in kinds)
    moved = sum(shapes[kind, "moved"] for kind in kinds)
    assert all(shapes[kind, "full"] for kind in kinds)
    assert moved <= 0.15 * full, (moved, full)
