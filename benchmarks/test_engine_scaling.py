"""engine_scaling scenario — the engine's wall-clock regression gate.

Asserts the structural properties the checked-in
``BENCH_engine_scaling.json`` baseline relies on:

* every per-size deterministic key (event/committed/height counts) is
  present and reproducible across two same-seed runs;
* the wall-clock keys are present, positive, and correctly flagged by
  ``is_wall_clock_key`` so the diff never gates on them;
* the event-count scaling fit is superlinear (consensus fans out with
  the committee) but bounded by the all-to-all ceiling.
"""

from repro.bench import is_wall_clock_key, run_engine_scaling


def test_engine_scaling_headline_shape_and_determinism(run_once, benchmark):
    sizes = (4, 8)
    first = run_once(benchmark, run_engine_scaling, sizes=sizes)
    second = run_engine_scaling(sizes=sizes)

    for n in sizes:
        for key in (f"events_n{n}", f"committed_n{n}", f"height_n{n}"):
            assert first[key] == second[key], key
        assert first[f"wall_s_n{n}"] > 0
        assert first[f"events_per_sec_n{n}"] > 0
        assert first[f"committed_n{n}"] > 0

    assert first["events_per_sec"] > 0
    assert first["peak_rss_mb"] > 0
    # nothing is attached to the event loop: the headline is counts,
    # timings and fits, with no per-subsystem attribution
    assert set(first) == {
        f"{key}_n{n}"
        for n in sizes
        for key in ("events", "committed", "height", "wall_s", "events_per_sec")
    } | {"event_scaling_exponent", "wall_scaling_exponent", "events_per_sec",
         "peak_rss_mb"}

    # more validators -> strictly more events; the fit sits between
    # linear growth and the n^3 worst case
    assert first["events_n8"] > first["events_n4"]
    assert 1.0 < first["event_scaling_exponent"] < 3.0

    # the gate's split: deterministic keys enforce, wall keys inform
    for n in sizes:
        assert not is_wall_clock_key(f"headline:events_n{n}")
        assert is_wall_clock_key(f"headline:wall_s_n{n}")
        assert is_wall_clock_key(f"headline:events_per_sec_n{n}")
    assert is_wall_clock_key("headline:peak_rss_mb")
    assert is_wall_clock_key("headline:wall_scaling_exponent")
    # ...but the wall exponent stays *gated* (generously) while the
    # event exponent is gated tight — both must not be marker-excluded
    from repro.bench.compare import DEFAULT_THRESHOLDS, _match_threshold

    assert _match_threshold(
        "headline:event_scaling_exponent", DEFAULT_THRESHOLDS
    ) is not None
    assert _match_threshold(
        "headline:wall_scaling_exponent", DEFAULT_THRESHOLDS
    ) is not None
    assert _match_threshold(
        "headline:wall_s_n4", DEFAULT_THRESHOLDS
    ) is None
