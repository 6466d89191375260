"""Scenario registry API and (cheap) end-to-end determinism."""

import dataclasses
import re
from pathlib import Path

import pytest

from repro import params
from repro.bench import (
    get_scenario,
    run_scenario,
    scenario_names,
    validate_artifact,
)


class TestRegistry:
    def test_expected_scenarios_registered(self):
        names = scenario_names()
        for expected in (
            "tvpr_ablation", "table1_dapp", "saturation_sweep",
            "weak_validator", "vote_batching_ablation", "chaos_soak",
            "engine_scaling", "byzantine_campaign",
            "trace_replay_nasdaq", "trace_replay_uber", "trace_replay_fifa",
            "table1_scale_200",
        ):
            assert expected in names
        assert len(names) == 12
        # renamed in the crash-recovery PR: a slow node is a delay fault
        assert "fault_injection" not in names

    def test_every_boolean_knob_is_set_by_a_scenario_or_workload(self):
        """A bool on ProtocolParams/NetParams that no gated scenario and no
        benchmark workload ever assigns is a code path nothing measures."""
        root = Path(__file__).resolve().parents[2]
        text = "".join(
            (root / rel).read_text()
            for rel in ("src/repro/bench/scenarios.py", "benchmarks/perf/workloads.py")
        )
        unset = [
            f"{cls.__name__}.{f.name}"
            for cls in (params.ProtocolParams, params.NetParams)
            for f in dataclasses.fields(cls)
            if f.type == "bool"  # params.py postpones annotations
            and not re.search(rf"\b{f.name}\s*=[^=]", text)
        ]
        assert unset == []

    def test_every_knob_is_read_outside_params(self):
        """A ProtocolParams/NetParams field no ``src/`` module reads is a
        knob that silently changes nothing when set.  Readers hold the
        bundles as ``protocol`` / ``net`` (``self.protocol.tvpr``,
        ``self.net.reliable_delivery``); a same-named attribute of another class
        (``RPMContract.block_reward``) is not a read of the knob."""
        src = Path(__file__).resolve().parents[2] / "src"
        text = "".join(
            path.read_text()
            for path in sorted(src.rglob("*.py"))
            if path.name != "params.py"
        )
        unread = [
            f"{cls.__name__}.{f.name}"
            for cls, holder in (
                (params.ProtocolParams, "protocol"), (params.NetParams, "net")
            )
            for f in dataclasses.fields(cls)
            if not re.search(rf"\b{holder}\.{f.name}\b", text)
        ]
        assert unread == []

    def test_unknown_scenario_raises_with_candidates(self):
        with pytest.raises(KeyError, match="tvpr_ablation"):
            get_scenario("no_such_scenario")

    def test_scenarios_have_descriptions_and_seeds(self):
        for name in scenario_names():
            s = get_scenario(name)
            assert s.description
            assert isinstance(s.seed, int)


class TestRunCheapScenario:
    """End-to-end run of the cheapest scenario (tick engine, ~0.1s)."""

    def test_tvpr_ablation_deterministic_and_valid(self):
        a = run_scenario("tvpr_ablation")
        b = run_scenario("tvpr_ablation")
        # identical headline dicts: the property the regression gate needs
        assert a.headline == b.headline
        assert validate_artifact(a.to_dict()) == []
        assert a.headline["srbb_throughput_tps"] > 0
        assert a.headline["throughput_ratio"] > 1.0  # SRBB beats EVM baseline


class TestTable1Scale:
    """Reduced-n exercise of the 200-validator scenario's runner (the
    full n=200 run only happens when (re)generating its baseline)."""

    def test_reduced_n_commits_everything(self):
        from repro.bench import run_table1_scale

        h = run_table1_scale(
            n=8, valid_count=24, invalid_count=12, degree=4, horizon_s=8.0
        )
        assert h["commit_rate_valid"] == 1.0
        assert h["chains_identical"] == 1.0
        assert h["safety_holds"] == 1.0
        assert h["states_agree"] == 1.0
        assert 0.0 < h["commit_done_s"] <= 8.0
        assert h["sent_invalid"] == 12.0
        assert h["events_n8"] > 0
