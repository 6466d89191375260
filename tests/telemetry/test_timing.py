"""@timed decorator."""

from repro.telemetry import timed, use_registry


class TestTimed:
    def test_records_into_current_registry(self):
        @timed("my_func_seconds")
        def work(x):
            return x * 2

        with use_registry() as reg:
            assert work(21) == 42
            hist = reg.get("my_func_seconds")
            assert hist.count == 1
            assert hist.sum >= 0

    def test_noop_when_disabled(self):
        @timed("other_func_seconds")
        def work():
            return "ok"

        with use_registry() as reg:
            reg.disable()
            assert work() == "ok"
            assert reg.get("other_func_seconds") is None

    def test_default_name_derivation(self):
        @timed()
        def helper():
            pass

        name = helper.__timed_metric__
        assert name.startswith("repro_") and name.endswith("_seconds")
        assert "helper" in name

    def test_records_on_exception(self):
        @timed("boom_seconds")
        def boom():
            raise ValueError()

        with use_registry() as reg:
            try:
                boom()
            except ValueError:
                pass
            assert reg.get("boom_seconds").count == 1

