"""Stack sampler: it sees the code that runs, exports valid collapsed
stacks, and leaves the simulation untouched."""

import collections
import re
import time

from repro.telemetry import profiling


def _small_deployment(*, seed=3, txs=8, horizon_s=5.0):
    from repro import params
    from repro.core.deployment import Deployment, fund_clients
    from repro.core.transaction import make_transfer

    clients, balances = fund_clients(2)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4),
        extra_balances=balances,
        seed=seed,
    )
    deployment.start()
    for i in range(txs):
        keypair = clients[i % 2]
        tx = make_transfer(
            keypair, clients[(i + 1) % 2].address, 1,
            nonce=i // 2, created_at=0.05 * i,
        )
        deployment.submit(tx, i % 4, at=0.05 * i)
    deployment.run_until(horizon_s)
    return deployment


def _spin(cpu_s):
    start = time.process_time()
    while time.process_time() - start < cpu_s:
        pass


class TestSampler:
    def test_samples_the_running_code(self):
        with profiling.sample() as stacks:
            _spin(0.2)
        assert sum(stacks.values()) > 0
        assert any(_spin.__code__ in stack for stack in stacks)
        # root-first: the spinning frame sits below this test's frame
        stack = next(s for s in stacks if _spin.__code__ in s)
        me = self.test_samples_the_running_code.__code__
        assert stack.index(me) < stack.index(_spin.__code__)

    def test_render_table_shares_per_module_and_leaf(self):
        code = _spin.__code__
        stacks = collections.Counter({(code,): 3, (code, code): 1})
        text = profiling.render_table(stacks, top=5)
        assert "4 samples" in text
        assert "(outside repro/)" in text  # this file is not under repro/
        assert "test_profiling.py:_spin" in text
        assert "100.0%" in text


class TestEngineIntegration:
    def test_profiling_does_not_change_the_chain(self):
        plain = _small_deployment()
        with profiling.sample():
            sampled = _small_deployment()
        assert (
            tuple(plain.validators[0].blockchain.block_hashes())
            == tuple(sampled.validators[0].blockchain.block_hashes())
        )
        assert plain.sim.events_processed == sampled.sim.events_processed


class TestExporters:
    def test_collapsed_format(self):
        inner = _spin.__code__
        outer = _small_deployment.__code__
        stacks = collections.Counter({(outer, inner): 3, (outer,): 2})
        # a distinct code object with the same file and name shares a line
        twin = inner.replace(co_firstlineno=inner.co_firstlineno + 1)
        assert twin != inner
        stacks[(outer, twin)] += 1
        lines = profiling.to_collapsed(stacks).splitlines()
        assert lines == [
            "test_profiling.py:_small_deployment 2",
            "test_profiling.py:_small_deployment;test_profiling.py:_spin 4",
        ]
        for line in lines:
            assert re.fullmatch(r"\S+ \d+", line)
