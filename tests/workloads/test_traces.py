"""Workload traces: envelope exactness, tick spreading, factories."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import params
from repro.workloads import (
    burst_trace,
    constant_trace,
    fifa_trace,
    nasdaq_trace,
    uber_trace,
)
from repro.workloads.fifa import fifa_request_factory
from repro.workloads.nasdaq import nasdaq_request_factory
from repro.workloads.trace import Trace, shape_to_envelope
from repro.workloads.uber import uber_request_factory


class TestEnvelopes:
    """The three DApp traces must match the paper's published envelopes."""

    @pytest.mark.parametrize(
        "trace_fn,envelope",
        [
            (nasdaq_trace, params.NASDAQ_ENVELOPE),
            (uber_trace, params.UBER_ENVELOPE),
            (fifa_trace, params.FIFA_ENVELOPE),
        ],
    )
    def test_envelope_exact(self, trace_fn, envelope):
        trace = trace_fn()
        assert trace.duration_s == envelope.duration_s
        assert trace.peak_tps == int(envelope.peak_tps)
        assert trace.avg_tps == pytest.approx(envelope.avg_tps, rel=0.01)

    def test_traces_deterministic(self):
        assert np.array_equal(
            nasdaq_trace().counts_per_second, nasdaq_trace().counts_per_second
        )

    def test_nasdaq_is_bursty(self):
        trace = nasdaq_trace()
        assert trace.peak_tps > 50 * trace.avg_tps

    def test_uber_is_flat(self):
        trace = uber_trace()
        assert trace.peak_tps < 1.1 * trace.avg_tps

    def test_fifa_is_sustained_heavy(self):
        trace = fifa_trace()
        assert trace.avg_tps > 3000
        assert trace.peak_tps < 2 * trace.avg_tps


class TestTraceMechanics:
    def test_arrivals_per_tick_conserves_total(self):
        trace = constant_trace(37, 10)
        arrivals = trace.arrivals_per_tick(0.1)
        assert arrivals.sum() == trace.total
        assert len(arrivals) == 100

    def test_arrivals_spread_within_second(self):
        trace = constant_trace(10, 1)
        arrivals = trace.arrivals_per_tick(0.1)
        assert arrivals.max() == 1  # 10 txs over 10 ticks

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            constant_trace(1, 1).arrivals_per_tick(0.3)

    def test_send_times_sorted_and_counted(self):
        trace = burst_trace(2, 10, 5, burst_at=2)
        times = trace.send_times()
        assert len(times) == trace.total
        assert np.all(np.diff(times) >= 0) or len(times) == trace.total

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Trace(name="bad", counts_per_second=np.array([-1]))

    def test_scaled(self):
        trace = constant_trace(100, 10)
        half = trace.scaled(0.5)
        assert half.avg_tps == pytest.approx(50, rel=0.01)

    @given(
        st.floats(min_value=10, max_value=500),
        st.floats(min_value=500, max_value=5000),
    )
    def test_property_shape_to_envelope(self, avg, peak):
        from hypothesis import assume

        assume(peak <= avg * 60)  # feasible envelope only
        rng = np.random.default_rng(4)
        trace = shape_to_envelope(
            rng.random(60) + 0.1, avg_tps=avg, peak_tps=peak, name="t"
        )
        assert trace.peak_tps == int(round(peak))
        assert trace.avg_tps == pytest.approx(avg, rel=0.05)

    def test_infeasible_envelope_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            shape_to_envelope(np.ones(10), avg_tps=1, peak_tps=100, name="t")


class TestFactories:
    def test_nasdaq_factory_produces_trades(self):
        factory = nasdaq_request_factory(clients=4)
        tx = factory(0, 1.5)
        assert tx.payload["function"] == "trade"
        assert tx.created_at == 1.5
        assert tx.signature is not None

    def test_factory_nonces_advance_per_client(self):
        factory = uber_request_factory(clients=2)
        txs = [factory(i, 0.0) for i in range(6)]
        by_sender = {}
        for tx in txs:
            by_sender.setdefault(tx.sender, []).append(tx.nonce)
        for nonces in by_sender.values():
            assert nonces == list(range(len(nonces)))

    def test_fifa_factory_buys_tickets(self):
        factory = fifa_request_factory(clients=4)
        tx = factory(0, 0.0)
        assert tx.payload["function"] == "buy_ticket"
        assert tx.amount >= 1  # pays for seats

    def test_factories_expose_keypairs(self):
        factory = nasdaq_request_factory(clients=3)
        assert len(factory.keypairs) == 3


class TestSendTimesVectorized:
    """The vectorized expansion must be bitwise-identical to the
    per-second reference construction."""

    @staticmethod
    def _reference(trace: Trace) -> np.ndarray:
        times = []
        for second, count in enumerate(trace.counts_per_second):
            if count:
                times.append(second + np.arange(count) / count)
        return np.concatenate(times) if times else np.zeros(0)

    @pytest.mark.parametrize("trace_fn", [nasdaq_trace, uber_trace, fifa_trace])
    def test_bitwise_identical_on_published_traces(self, trace_fn):
        trace = trace_fn()
        for t in (trace, trace.scaled(0.002), trace.scaled(0.1)):
            got = t.send_times()
            want = self._reference(t)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=40), max_size=25)
    )
    def test_bitwise_identical_on_arbitrary_counts(self, counts):
        trace = Trace(
            name="fuzz", counts_per_second=np.asarray(counts, dtype=np.int64)
        )
        assert trace.send_times().tobytes() == self._reference(trace).tobytes()

    def test_empty_trace(self):
        trace = Trace(name="empty", counts_per_second=np.zeros(4, dtype=np.int64))
        assert trace.send_times().shape == (0,)
