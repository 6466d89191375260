"""The receipt index: one entry per committed transaction, one row per run
of equal receipts in a block, and the same answers as a store that kept
one full row per transaction."""

import gc

from hypothesis import example, given, settings, strategies as st

from repro import params
from repro.core.block import make_block
from repro.core.deployment import Deployment, fund_clients
from repro.core.receipts import CommitRecord, ReceiptStore
from repro.core.transaction import make_invoke, make_transfer
from repro.crypto.keys import generate_keypair
from repro.net.topology import single_region_topology
from repro.vm.contracts.base import NativeContract, method
from repro.vm.executor import Receipt, install_native, native_address_for


class ReferenceStore:
    """The per-transaction layout: one 8-field row per receipt."""

    def __init__(self):
        self.rows = {}

    def record_block(self, block, receipts, *, commit_time):
        for position, receipt in enumerate(receipts):
            self.rows[receipt[0]] = receipt[1:] + (
                block.index, block.block_hash, position, commit_time,
            )

    def get(self, tx_hash):
        row = self.rows.get(tx_hash)
        if row is None:
            return None
        height, block_hash, position, commit_time = row[4:]
        return CommitRecord(
            Receipt(tx_hash, *row[:4]), height, block_hash, position, commit_time
        )


def same(record, reference):
    """Equal, and equal in type too: ``repr`` tells ``1`` from ``True``."""
    return record == reference and repr(record) == repr(reference)


class Echo(NativeContract):
    """Returns what the test asks for; equal-length method names keep the
    gas of every call equal, so only the return value tells calls apart."""

    name = "echo"

    @method
    def value(self, storage, info, k):
        return k

    @method
    def boxed(self, storage, info, k):
        return [k]

    @method
    def true_(self, storage, info, k):
        return True

    @method
    def one__(self, storage, info, k):
        return 1


def mixed_run():
    """n = 4 with RPM: transfers, echo calls (distinct, unhashable, and
    ``True`` next to ``1``), reverted calls, an overdraft, and seat 3
    crashed and restarted so it replays the chain through catch-up."""
    clients, balances = fund_clients(4)
    poor = generate_keypair(b"poor")
    balances[poor.address] = 30_000  # one transfer's gas, not two
    # a reverted call is discarded and leaves its nonce unused, so each
    # comes from a sender of its own
    reverters = [generate_keypair(b"revert%d" % i) for i in range(4)]
    balances.update(dict.fromkeys((kp.address for kp in reverters), 10**9))
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4, rpm=True),
        topology=single_region_topology(4),
        extra_balances=balances,
        genesis_setup=lambda state: install_native(state, Echo.name),
    )
    deployment.registry.register(Echo())
    echo = native_address_for(Echo.name)
    nonces = dict.fromkeys(range(4), 0)
    txs = []

    def submit(tx, at):
        txs.append(tx)
        deployment.submit(tx, validator_id=len(txs) % 3, at=at)

    for k in range(48):
        c = k % 4
        if k % 6 == 5:
            function, arg = ("value", "boxed", "true_", "one__")[k // 6 % 4], k // 24
            tx = make_invoke(clients[c], echo, function, (arg,), nonces[c])
        else:
            tx = make_transfer(clients[c], clients[(c + 1) % 4].address, 1, nonces[c])
        nonces[c] += 1
        submit(tx, 0.1 + 0.15 * k)
    for i, kp in enumerate(reverters):
        submit(make_invoke(kp, echo, "value", (), 0), 1.0 + 1.5 * i)  # wrong arity
    for nonce in range(2):
        submit(make_transfer(poor, clients[0].address, 1, nonce), 0.2)
    deployment.start()
    deployment.sim.schedule_at(3.0, deployment.crash, 3)
    deployment.sim.schedule_at(8.0, deployment.restart, 3)
    return deployment, txs


class TestAgainstThePerTransactionLayout:
    def test_every_lookup_equals_the_reference(self, monkeypatch):
        references, heights = {}, {}
        record_block = ReceiptStore.record_block

        def both(self, block, receipts, *, commit_time):
            references.setdefault(self, ReferenceStore()).record_block(
                block, receipts, commit_time=commit_time
            )
            heights.setdefault(self, []).append(block.index)
            record_block(self, block, receipts, commit_time=commit_time)

        monkeypatch.setattr(ReceiptStore, "record_block", both)
        deployment, txs = mixed_run()
        deployment.run_until(30.0)
        assert deployment.safety_holds()
        assert not deployment.validators[3]._recovering

        looked_up = {tx.tx_hash for tx in txs}
        values = []
        for node in deployment.validators:
            store, reference = node.receipts, references[node.receipts]
            assert len(store) == len(reference.rows)
            for tx_hash in looked_up | set(reference.rows):
                assert same(store.get(tx_hash), reference.get(tx_hash))
            # each appended chain block is indexed once, under its height
            chain = [block.index for block in node.blockchain.chain[1:]]
            assert heights[store] == chain == sorted(set(chain))
            values += [
                store.get(tx.tx_hash).receipt.return_value
                for tx in txs if store.get(tx.tx_hash) is not None
            ]
        # the mix reached the store: distinct, unhashable, True and 1
        assert {0, 1} <= {v for v in values if type(v) is int}
        assert [0] in values and [1] in values
        assert any(v is True for v in values)
        # the reverted calls and the overdraft committed nowhere
        for node in deployment.validators:
            missing = [tx for tx in txs if node.receipts.get(tx.tx_hash) is None]
            assert len(missing) == 5  # four reverted calls, one overdraft

    CONFUSABLE = [None, 1, True, 1.0, 0, False, 0.0, -0.0, "a", b"a", (1,), (True,), [1]]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from([21_000, 21_000, 21_001]),
                    st.sampled_from(CONFUSABLE),
                ),
                max_size=12,
            ),
            max_size=6,
        )
    )
    @example([[(21_000, value) for value in CONFUSABLE + CONFUSABLE[::-1]]])
    def test_any_receipt_sequence(self, blocks):
        kp = generate_keypair(77)
        store, reference = ReceiptStore(), ReferenceStore()
        nonce = 0
        for height, bodies in enumerate(blocks, start=1):
            txs = []
            for _ in bodies:
                txs.append(make_transfer(kp, "aa" * 20, 1, nonce))
                nonce += 1
            block = make_block(kp, 0, height, txs)
            receipts = [
                Receipt(tx.tx_hash, True, gas, None, value)
                for tx, (gas, value) in zip(txs, bodies)
            ]
            for target in (store, reference):
                target.record_block(block, receipts, commit_time=height / 4)
        assert len(store) == len(reference.rows) == nonce
        for tx_hash in reference.rows:
            assert same(store.get(tx_hash), reference.get(tx_hash))


class TestOneEntryPerTransaction:
    """What CI's perf-smoke step "A committed transaction costs a node one
    index entry" counts, on a run small enough for tier-1."""

    @staticmethod
    def rows(store):
        return list({id(row): row for row in store._records.values()}.values())

    def test_transfers_share_one_row_per_block(self):
        clients, balances = fund_clients(8)
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4, rpm=False),
            topology=single_region_topology(4),
            extra_balances=balances,
        )
        deployment.start()
        for k in range(96):
            tx = make_transfer(clients[k % 8], clients[(k + 1) % 8].address, 1, k // 8)
            deployment.submit(tx, validator_id=k % 4, at=0.05 + 0.02 * k)
        deployment.run_until(10.0)
        gc.collect()
        for node in deployment.validators:
            rows = self.rows(node.receipts)
            assert len(node.receipts) == 96
            assert len(rows) <= len(node.blockchain.chain) - 1 < 96
            assert not any(gc.is_tracked(row) for row in rows)

    def test_transfer_rows_are_bounded_by_blocks_and_calls(self):
        deployment, _ = mixed_run()
        deployment.run_until(30.0)
        for node in deployment.validators:
            rows = self.rows(node.receipts)
            calls = sum(row[3] is not None for row in rows)
            transfers = len(rows) - calls
            assert 0 < transfers <= len(node.blockchain.chain) - 1 + calls
