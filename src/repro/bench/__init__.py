"""``repro.bench`` — scenario benchmark harness and regression gating.

Three pieces, mirroring how the paper argues (DIABLO curves, Table I):

* :mod:`repro.bench.scenarios` — one table of named, deterministic
  canonical runs (TVPR ablation, Table-I dapp mix, saturation sweep,
  weak validator, chaos soak, …), each a seeded config over the existing
  engines;
* :mod:`repro.bench.runner` — executes scenarios with telemetry enabled
  and writes schema-versioned ``BENCH_<scenario>.json`` artifacts
  (headline stats + full metrics snapshot + environment fingerprint);
* :mod:`repro.bench.compare` — diffs two artifacts (or raw Prometheus
  dumps) under direction-aware per-metric thresholds and renders a
  terminal table, exiting non-zero on regression so CI can gate on it.

CLI: ``repro bench run|list`` and ``repro metrics-diff``.
"""

from repro.bench.artifact import (
    ARTIFACT_SCHEMA,
    BenchArtifact,
    artifact_filename,
    environment_fingerprint,
    validate_artifact,
)
from repro.bench.compare import (
    DEFAULT_THRESHOLDS,
    WALL_CLOCK_HEADLINE_MARKERS,
    ComparisonResult,
    MetricDelta,
    Threshold,
    compare_files,
    diff_docs,
    flatten_doc,
    is_wall_clock_key,
    render_comparison,
)
from repro.bench.runner import run_scenario, run_scenarios
from repro.bench.scenarios import (
    Scenario,
    get_scenario,
    run_byzantine_campaign,
    run_byzantine_chaos,
    run_chaos_soak,
    run_engine_scaling,
    run_table1_scale,
    run_trace_replay,
    scenario_names,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "BenchArtifact",
    "ComparisonResult",
    "DEFAULT_THRESHOLDS",
    "MetricDelta",
    "Scenario",
    "Threshold",
    "WALL_CLOCK_HEADLINE_MARKERS",
    "artifact_filename",
    "compare_files",
    "diff_docs",
    "environment_fingerprint",
    "flatten_doc",
    "get_scenario",
    "is_wall_clock_key",
    "render_comparison",
    "run_byzantine_campaign",
    "run_byzantine_chaos",
    "run_chaos_soak",
    "run_engine_scaling",
    "run_scenario",
    "run_scenarios",
    "run_table1_scale",
    "run_trace_replay",
    "scenario_names",
    "validate_artifact",
]
