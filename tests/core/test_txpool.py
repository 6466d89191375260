"""Transaction pool: dedup, TTL, capacity, batching."""

from hypothesis import given, strategies as st

from repro.core.transaction import make_transfer
from repro.core.txpool import TxPool
from repro.crypto.keys import generate_keypair
from repro.telemetry import use_registry


def _tx(nonce, seed=1, **kw):
    return make_transfer(generate_keypair(seed), "aa" * 20, 1, nonce=nonce, **kw)


def _count(reg, name):
    return reg.get(f"srbb_txpool_{name}_total").value


class TestAdmission:
    def test_add_and_contains(self):
        pool = TxPool()
        tx = _tx(0)
        assert pool.add(tx)
        assert tx in pool
        assert len(pool) == 1

    def test_duplicate_rejected(self):
        with use_registry() as reg:
            pool = TxPool()
            tx = _tx(0)
            pool.add(tx)
            assert not pool.add(tx)
        assert _count(reg, "duplicates") == 1
        assert len(pool) == 1

    def test_capacity_evicts_oldest(self):
        with use_registry() as reg:
            pool = TxPool(capacity=2)
            txs = [_tx(i) for i in range(3)]
            for tx in txs:
                pool.add(tx)
        assert len(pool) == 2
        assert txs[0] not in pool  # FIFO eviction
        assert txs[2] in pool
        assert _count(reg, "evicted") == 1


class TestExpiry:
    def test_ttl_expiry(self):
        with use_registry() as reg:
            pool = TxPool(ttl=10.0)
            a, b = _tx(0), _tx(1)
            pool.add(a, now=0.0)
            pool.add(b, now=8.0)
            dropped = pool.expire(now=11.0)
        assert dropped == [a]
        assert b in pool
        assert _count(reg, "expired") == 1

    def test_no_expiry_before_ttl(self):
        pool = TxPool(ttl=10.0)
        pool.add(_tx(0), now=0.0)
        assert pool.expire(now=9.9) == []


class TestBatching:
    def test_fifo_order(self):
        pool = TxPool()
        txs = [_tx(i) for i in range(5)]
        for tx in txs:
            pool.add(tx)
        assert pool.take_batch(3) == txs[:3]
        assert len(pool) == 2

    def test_gas_limit_bound(self):
        pool = TxPool()
        for i in range(5):
            pool.add(_tx(i))
        batch = pool.take_batch(10, gas_limit=2 * 21_000)
        assert len(batch) == 2

    def test_nonce_aware_skips_gaps(self):
        pool = TxPool()
        t0, t2 = _tx(0), _tx(2)
        pool.add(t2)  # arrives first, out of order
        pool.add(t0)
        batch = pool.take_batch(10, next_nonce=lambda s: 0)
        assert batch == [t0]  # nonce 2 is gapped, left queued
        assert t2 in pool

    def test_nonce_aware_takes_contiguous_run(self):
        pool = TxPool()
        txs = [_tx(i) for i in range(4)]
        for tx in txs:
            pool.add(tx)
        batch = pool.take_batch(10, next_nonce=lambda s: 0)
        assert batch == txs

    def test_nonce_aware_multi_sender(self):
        pool = TxPool()
        a1 = _tx(5, seed=1)
        b0 = _tx(0, seed=2)
        pool.add(a1)
        pool.add(b0)
        nonces = {a1.sender: 5, b0.sender: 0}
        batch = pool.take_batch(10, next_nonce=nonces.__getitem__)
        assert set(batch) >= {a1, b0}

    def test_remove_hashes(self):
        pool = TxPool()
        txs = [_tx(i) for i in range(3)]
        for tx in txs:
            pool.add(tx)
        removed = pool.remove_hashes({txs[0].tx_hash, txs[2].tx_hash})
        assert removed == 2
        assert pool.take_batch(5) == [txs[1]]

    def test_clear(self):
        pool = TxPool()
        pool.add(_tx(0))
        pool.clear()
        assert len(pool) == 0

    def test_gapped_nonce_left_pending_across_takes(self):
        pool = TxPool()
        n2 = _tx(2)  # first in, but gapped
        n0 = _tx(0)
        pool.add(n2)
        pool.add(n0)
        assert pool.take_batch(1, next_nonce=lambda s: 0) == [n0]
        assert n2 in pool
        # still gapped (nonce 1 never arrives): later takes keep skipping it
        assert pool.take_batch(1, next_nonce=lambda s: 1) == []
        assert n2 in pool

    def test_multi_sweep_unlocks_same_sender_chain(self):
        pool = TxPool()
        # nonce 1 is admitted before nonce 0, so only a second sweep can
        # take it once nonce 0 unlocks it
        n1, n0 = _tx(1), _tx(0)
        pool.add(n1)
        pool.add(n0)
        assert pool.take_batch(10, next_nonce=lambda s: 0) == [n0, n1]

    def test_readmission_uses_fresh_position(self):
        pool = TxPool()
        a, b = _tx(0, seed=1), _tx(0, seed=2)
        pool.add(a)
        pool.add(b)
        pool.remove_hashes({a.tx_hash})
        pool.add(a)  # re-admitted: now behind b
        assert pool.take_batch(10) == [b, a]

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=10))
    def test_property_batch_never_exceeds_request(self, n_txs, batch_size):
        pool = TxPool()
        for i in range(n_txs):
            pool.add(_tx(i))
        batch = pool.take_batch(batch_size)
        assert len(batch) == min(n_txs, batch_size)
        assert len(pool) == n_txs - len(batch)
