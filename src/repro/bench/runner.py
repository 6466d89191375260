"""Execute bench scenarios and write ``BENCH_<scenario>.json`` artifacts.

Each scenario runs against a *fresh, scoped* metrics registry (enabled
for the duration, restored afterwards), so:

* artifacts never mix counts from unrelated work in the same process;
* two runs of the same scenario produce identical registries — the
  determinism the regression gate relies on.

The harness times each scenario on the host's clock for the artifact's
environment fingerprint; nothing inside the engines reads that clock.
"""

from __future__ import annotations

import os
import time

from repro import telemetry
from repro.bench.artifact import (
    BenchArtifact,
    artifact_filename,
    environment_fingerprint,
)
from repro.bench.scenarios import Scenario, get_scenario

__all__ = ["run_scenario", "run_scenarios"]


def run_scenario(name: "str | Scenario") -> BenchArtifact:
    """Run one scenario with scoped telemetry; returns the artifact."""
    scenario = name if isinstance(name, Scenario) else get_scenario(name)
    registry = telemetry.MetricsRegistry(enabled=True)
    t0 = time.perf_counter()
    with telemetry.use_registry(registry):
        headline = scenario.run(registry)
    wall = time.perf_counter() - t0
    return BenchArtifact(
        scenario=scenario.name,
        description=scenario.description,
        seed=scenario.seed,
        headline=headline,
        metrics=telemetry.to_json(registry),
        env=environment_fingerprint(wall_time_s=wall),
    )


def run_scenarios(
    names: "list[str]",
    *,
    out_dir: "str | None" = None,
    log=None,
) -> "list[tuple[BenchArtifact, str | None]]":
    """Run several scenarios; write artifacts when ``out_dir`` is given.

    Unknown names fail fast (before any scenario runs) so a typo cannot
    burn minutes of benchmarking first.
    """
    scenarios = [get_scenario(n) for n in names]
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    results: "list[tuple[BenchArtifact, str | None]]" = []
    for scenario in scenarios:
        if log:
            log(f"bench: running {scenario.name} ...")
        artifact = run_scenario(scenario)
        path = None
        if out_dir:
            path = os.path.join(out_dir, artifact_filename(scenario.name))
            artifact.save(path)
        if log:
            log(
                f"bench: {scenario.name} done in "
                f"{artifact.env['wall_time_s']:.2f}s"
                + (f" -> {path}" if path else "")
            )
        results.append((artifact, path))
    return results
