"""Sweep utilities: saturation bisection and latency curves."""

from repro.sim.chains import ChainModel, EVM_DBFT, SRBB
from repro.sim.sweep import latency_curve, saturation_throughput

#: cheap toy model so bisection runs fast in unit tests
TOY = ChainModel(
    name="toy", n=4, tx_gossip=False, pool_partitioned=True,
    mempool_capacity=100_000, block_interval=1.0, block_txs=500,
    proposers_per_round=1, consensus_latency=1.0, exec_rate=10_000.0,
)


class TestSaturation:
    def test_saturation_near_round_capacity(self):
        rate = saturation_throughput(TOY, duration_s=30, hi=2_000, tolerance=25)
        # commit ceiling is 500 tx / 1 s round (+ the 2 s drain window)
        assert 400 <= rate <= 600

    def test_srbb_sustains_more_than_baseline(self):
        srbb = saturation_throughput(SRBB, duration_s=30, hi=4_000, tolerance=100)
        base = saturation_throughput(EVM_DBFT, duration_s=30, hi=4_000, tolerance=100)
        assert srbb > 10 * base


class TestCurves:
    def test_latency_monotone_under_load(self):
        points = latency_curve(TOY, [100, 300, 450], duration_s=30)
        latencies = [p.avg_latency_s for p in points]
        assert latencies[0] <= latencies[-1]

