"""The benchmark's one command.

Two ways to call it, both driven by ``BENCHMARK.json`` at the repository
root (the list of workloads, metric names, units and bounds):

``python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload.  ``--trace 0`` runs fresh-process repeats (at least 3,
    more until their run time adds up to S seconds) and reports the median
    of every end-to-end metric; ``--trace 1`` runs one untraced repeat, one
    traced repeat and the isolated µs/op pass and reports every per-layer
    metric.  The last line of standard output is one JSON object:
    ``{"correct", "attempted", "failed", "metrics"}``.

``python3 benchmarks/perf/run.py [--seed 17] [--smoke] [--out FILE]``
    Every workload: 3 untraced repeats + 1 traced repeat each, then the
    µs/op pass; prints every metric by name with its unit and writes the
    result file ``compare.py`` reads.

Either way the exit code is non-zero when an output check fails: correct
chains byte-identical, state roots equal, ``safety_holds()``, and every
simulated-clock metric and count identical across the repeats.  Valid
transactions not committed by the horizon are counted as ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

MIN_REPEATS = 3
#: a repeat is discarded and re-run when its wall time exceeds its CPU
#: time, or its calibration the invocation's fastest, by more than this
DISCARD_SHARE = 0.10
MAX_DISCARDS = 2
SMOKE_SCALE = 0.05
#: counts that are host time, not simulated state: exempt from the
#: identical-across-repeats check
HOST_COUNTS = ("net.simulator.us_per_event",)


class CheckFailed(Exception):
    """An output check failed; the message says which."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child(script: str, *args: str) -> dict:
    """Run one of the benchmark's scripts in a fresh interpreter and
    return the JSON object on its last line of output."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        env=env, stdout=subprocess.PIPE, text=True, check=False,
    )
    if done.returncode != 0:
        raise CheckFailed(f"{script} {' '.join(args)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def repeat(workload: str, seed: int, scale: float, *, trace: bool = False) -> dict:
    return _child(
        "repeat.py", "--workload", workload, "--seed", str(seed),
        "--scale", repr(scale), "--trace", str(int(trace)),
        "--spawned-at", repr(time.time()),
    )


def disturbed(rep: dict, fastest_calib_s: float) -> bool:
    """Was the host busy with something else during this repeat?  Its
    process was descheduled (wall beyond CPU time), or its calibration
    slices ran slower than those of the invocation's fastest repeat: under
    heavy interference the run slows down more than the calibration does,
    so rescaling cannot be trusted there."""
    host = rep["host"]
    return (
        host["wall_raw_s"] > (1.0 + DISCARD_SHARE) * host["cpu_raw_s"]
        or host["calib_s"] > (1.0 + DISCARD_SHARE) * fastest_calib_s
    )


def untraced_repeats(workload: str, seed: int, scale: float, seconds: float) -> "tuple[list[dict], int]":
    """Fresh-process repeats until there are ``MIN_REPEATS`` undisturbed
    ones whose run time adds up to ``seconds``; returns them and the number
    discarded.  After ``MAX_DISCARDS`` disturbed repeats are kept."""
    kept: "list[dict]" = []
    discarded = 0
    while True:
        while len(kept) < MIN_REPEATS or sum(r["host"]["wall_raw_s"] for r in kept) < seconds:
            kept.append(repeat(workload, seed, scale))
        fastest = min(r["host"]["calib_s"] for r in kept)
        bad = [r for r in kept if disturbed(r, fastest)][: MAX_DISCARDS - discarded]
        if not bad:
            return kept, discarded
        for rep in bad:
            kept.remove(rep)
        discarded += len(bad)


def check_outputs(reps: "list[dict]") -> None:
    for rep in reps:
        failed = [name for name, ok in rep["checks"].items() if not ok]
        if failed:
            raise CheckFailed(f"{rep['workload']}: failed {', '.join(failed)}")
    first = reps[0]
    for rep in reps[1:]:
        if rep["sim"] != first["sim"]:
            raise CheckFailed(f"{first['workload']}: simulated metrics differ between repeats")
        for name, value in first["counts"].items():
            if name not in HOST_COUNTS and rep["counts"][name] != value:
                raise CheckFailed(f"{first['workload']}: count {name} differs between repeats")


def end_to_end_values(reps: "list[dict]") -> "dict[str, list[float]]":
    return {
        name: [{**rep["host"], **rep["sim"]}[name] for rep in reps]
        for name in {**reps[0]["host"], **reps[0]["sim"]}
    }


def per_layer_values(untraced_wall_s: float, traced: dict, micro: dict) -> "dict[str, float | None]":
    values: "dict[str, float | None]" = {**traced["sim"], **traced["counts"]}
    trace = traced["trace"]
    for layer, summary in trace["layers"].items():
        for field in ("calls", "self_s"):
            values[f"{layer}.{field}"] = None if summary is None else summary[field]
    values["untraced.self_s"] = trace["untraced_self_s"]
    values["trace.overhead_ratio"] = traced["host"]["wall_s"] / untraced_wall_s
    values.update(micro)
    return values


def named(values: dict, metrics: "list[dict]") -> dict:
    """The metrics ``BENCHMARK.json`` lists, as ``{name: {value, unit}}``;
    a listed metric the run did not produce is an error."""
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise CheckFailed(f"metrics not produced: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def spread(values: "list[float]") -> float:
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


# -- one workload, the driver's contract ---------------------------------------


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    if trace:
        plain = repeat(workload, seed, scale)
        traced = repeat(workload, seed, scale, trace=True)
        micro = _child("micro.py", "--seed", str(seed))["micro"]
        check_outputs([plain, traced])
        values = per_layer_values(plain["host"]["wall_s"], traced, micro)
        metrics = named(values, spec["per_layer"])
        unresolved = traced["trace"]["unresolved_layers"]
        if unresolved:
            print(f"unresolved_layers: {', '.join(unresolved)}")
        reps = [plain]
    else:
        reps, discarded = untraced_repeats(workload, seed, scale, seconds)
        check_outputs(reps)
        medians = {k: statistics.median(v) for k, v in end_to_end_values(reps).items()}
        metrics = named(medians, spec["end_to_end"])
        print(f"{workload}: {len(reps)} repeats kept, {discarded} discarded, "
              f"host.calib_s {statistics.median(r['host']['calib_s'] for r in reps):.4f}")
    return {
        "correct": True,
        "attempted": reps[0]["attempted"],
        "failed": reps[0]["failed"],
        "metrics": metrics,
    }


# -- every workload, the full report ----------------------------------------------


def commit_id() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_all(spec: dict, seed: int, scale: float) -> dict:
    result = {
        "schema": "benchmarks/perf/v1",
        "commit": commit_id(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "scale": scale,
        "workloads": {},
    }
    micro = _child("micro.py", "--seed", str(seed))["micro"]
    calib: "list[float]" = []
    for entry in spec["workloads"]:
        workload = entry["name"]
        reps, discarded = untraced_repeats(workload, seed, scale, 0.0)
        traced = repeat(workload, seed, scale, trace=True)
        check_outputs(reps + [traced])
        values = end_to_end_values(reps)
        wall = statistics.median(values["wall_s"])
        layers = named(per_layer_values(wall, traced, micro), spec["per_layer"])
        calib += [rep["host"]["calib_s"] for rep in reps]
        result["workloads"][workload] = {
            "end_to_end": {
                m["name"]: {
                    "median": statistics.median(values[m["name"]]),
                    "spread": spread(values[m["name"]]),
                    "unit": m["unit"],
                    "values": values[m["name"]],
                }
                for m in spec["end_to_end"]
            },
            "per_layer": layers,
            "unresolved_layers": traced["trace"]["unresolved_layers"],
            "repeats": len(reps),
            "discarded": discarded,
            "attempted": reps[0]["attempted"],
            "failed": reps[0]["failed"],
            "latency_samples": reps[0]["latency_samples"],
            "host.calib_s": [rep["host"]["calib_s"] for rep in reps],
        }
        print_workload(workload, result["workloads"][workload], skip=micro)
    print("\n== isolated us/op (workload-independent; filed under every workload in the result file)")
    for name, value in micro.items():
        print(f"  {name:<42} {value:>18.6f} us")
    result["host.calib_s"] = statistics.median(calib)
    print(f"\nhost.calib_s {result['host.calib_s']:.4f} s (median of {len(calib)} repeats; "
          f"python {result['python']}, nproc {result['nproc']}, commit {result['commit'][:12]})")
    return result


def print_workload(workload: str, row: dict, skip: dict) -> None:
    print(f"\n== {workload}: {row['repeats']} repeats, {row['discarded']} discarded, "
          f"{row['attempted']} valid sent, {row['failed']} failed, "
          f"{row['latency_samples']} latency samples")
    for name, m in row["end_to_end"].items():
        print(f"  {name:<34} {m['median']:>16.6f} {m['unit']:<10} spread {m['spread']:.4f}")
    for name, m in row["per_layer"].items():
        if name in skip:
            continue
        value = "null" if m["value"] is None else f"{m['value']:.6f}"
        print(f"  {name:<42} {value:>18} {m['unit']}")
    if row["unresolved_layers"]:
        print(f"  unresolved_layers: {', '.join(row['unresolved_layers'])}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default=None, help="run this one workload (driver contract)")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="with --workload: keep repeating until this much run time is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload ~20x smaller")
    parser.add_argument("--out", default=None, help="full report: write the result file here")
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else 1.0
    try:
        spec = load_spec()
        if args.workload is not None:
            if args.workload not in {w["name"] for w in spec["workloads"]}:
                parser.error(f"unknown workload {args.workload!r}")
            line = run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace), scale)
            print(json.dumps(line))
        else:
            result = run_all(spec, args.seed, scale)
            if args.out:
                Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    except CheckFailed as failure:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
