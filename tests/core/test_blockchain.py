"""Chain commit loop: execution, discard of invalid txs, safety relations."""

import pytest

from repro import params
from repro.core.block import SuperBlock, make_block
from repro.core.blockchain import Blockchain
from repro.core.transaction import make_invoke, make_transfer
from repro.crypto.keys import generate_keypair
from repro.vm.executor import Executor
from repro.vm.state import WorldState

FUNDS = 10**9


@pytest.fixture
def kp():
    return generate_keypair(1)


def fresh_chain(kp):
    state = WorldState()
    state.create_account(kp.address, FUNDS)
    state.commit()
    return Blockchain(protocol=params.ProtocolParams(n=4), state=state)


class TestCommit:
    def test_commit_valid_superblock(self, kp):
        chain = fresh_chain(kp)
        txs = [make_transfer(kp, "aa" * 20, 1, nonce=i) for i in range(3)]
        block = make_block(kp, 0, 1, txs)
        result = chain.commit_superblock(SuperBlock(index=1, blocks=(block,)), now=5.0)
        assert len(result.committed) == 3
        assert chain.height == 1
        assert all(chain.contains_tx(tx) for tx in txs)
        assert all(chain.commit_times[tx.tx_hash] >= 5.0 for tx in txs)

    def test_invalid_tx_discarded_from_block(self, kp):
        chain = fresh_chain(kp)
        broke = generate_keypair(99)
        good = make_transfer(kp, "aa" * 20, 1, nonce=0)
        bad = make_transfer(broke, "aa" * 20, 1, nonce=0)
        block = make_block(kp, 0, 1, [good, bad])
        result = chain.commit_superblock(SuperBlock(index=1, blocks=(block,)))
        assert result.committed == [good]
        assert result.discarded[0][0] is bad
        # the filtered chain block holds only the valid transaction
        assert len(chain.head()) == 1
        # attribution for RPM
        assert result.invalid_by_proposer[0][0] == 0
        assert result.invalid_by_proposer[0][2] in (
            "insufficient-gas", "insufficient-balance",
        )

    def test_all_invalid_block_not_appended(self, kp):
        chain = fresh_chain(kp)
        broke = generate_keypair(99)
        bad = make_transfer(broke, "aa" * 20, 1, nonce=0)
        block = make_block(kp, 0, 1, [bad])
        chain.commit_superblock(SuperBlock(index=1, blocks=(block,)))
        assert chain.height == 0  # Alg. 1 line 24: empty b_i not appended

    def test_duplicate_across_blocks_committed_once(self, kp):
        chain = fresh_chain(kp)
        kp2 = generate_keypair(2)
        tx = make_transfer(kp, "aa" * 20, 7, nonce=0)
        b1 = make_block(kp, 0, 1, [tx])
        b2 = make_block(kp2, 1, 1, [tx])
        result = chain.commit_superblock(SuperBlock(index=1, blocks=(b1, b2)))
        assert len(result.committed) == 1
        assert ("duplicate" in [reason for _, reason in result.discarded])
        assert chain.state.balance_of("aa" * 20) == 7  # applied exactly once

    def test_exec_rate_staggers_commit_times(self, kp):
        chain = fresh_chain(kp)
        txs = [make_transfer(kp, "aa" * 20, 1, nonce=i) for i in range(4)]
        block = make_block(kp, 0, 1, txs)
        chain.commit_superblock(
            SuperBlock(index=1, blocks=(block,)), now=10.0, exec_rate=100.0
        )
        times = [chain.commit_times[tx.tx_hash] for tx in txs]
        assert times == sorted(times)
        assert times[-1] - times[0] == pytest.approx(3 / 100.0)

    def test_coinbase_routing(self, kp):
        chain = fresh_chain(kp)
        tx = make_transfer(kp, "aa" * 20, 1, nonce=0, gas_price=2)
        block = make_block(kp, 0, 1, [tx])
        chain.commit_superblock(
            SuperBlock(index=1, blocks=(block,)),
            coinbase_of=lambda pid: "fee" + "0" * 37,
        )
        assert chain.state.balance_of("fee" + "0" * 37) == 42_000

    def test_multiple_blocks_append_in_proposer_order(self, kp):
        chain = fresh_chain(kp)
        kp2 = generate_keypair(2)
        t1 = make_transfer(kp, "aa" * 20, 1, nonce=0)
        b1 = make_block(kp, 0, 1, [t1])
        b2 = make_block(kp2, 1, 1, [])
        result = chain.commit_superblock(SuperBlock(index=1, blocks=(b1, b2)))
        assert [b.proposer_id for b in result.appended_blocks] == [0]
        assert chain.head().parent_hash == chain.chain[0].block_hash


class TestJournalLifetime:
    """Nothing reverts across transactions, so the commit loop drops each
    transaction's undo entries once it has run."""

    def test_journal_is_empty_when_each_transaction_starts(self, kp, monkeypatch):
        chain = fresh_chain(kp)
        seen = []
        execute = Executor.execute

        def spy(self, tx, **kwargs):
            seen.append(self.state.snapshot())  # the journal's length
            return execute(self, tx, **kwargs)

        monkeypatch.setattr(Executor, "execute", spy)
        kp2 = generate_keypair(2)
        b1 = make_block(kp, 0, 1, [make_transfer(kp, "aa" * 20, 1, nonce=i) for i in range(3)])
        b2 = make_block(kp2, 1, 1, [make_transfer(kp, "bb" * 20, 1, nonce=3)])
        result = chain.commit_superblock(SuperBlock(index=1, blocks=(b1, b2)))
        assert len(result.committed) == 4
        assert seen == [0, 0, 0, 0]
        assert chain.state.snapshot() == 0

    def test_failed_transaction_after_successful_ones_changes_nothing(self, kp):
        good = [make_transfer(kp, "aa" * 20, 1, nonce=i) for i in range(3)]
        # Passes lazy validation, then writes (fee, nonce, value to a new
        # account) before failing: the call target is not a contract.
        bad = make_invoke(kp, "bb" * 20, "f", (), nonce=3, amount=5)
        mixed, clean = fresh_chain(kp), fresh_chain(kp)
        result = mixed.commit_superblock(
            SuperBlock(index=1, blocks=(make_block(kp, 0, 1, good + [bad]),))
        )
        clean.commit_superblock(SuperBlock(index=1, blocks=(make_block(kp, 0, 1, good),)))
        assert result.committed == good
        assert result.discarded == [(bad, "vm-error")]
        assert not mixed.state.account_exists("bb" * 20)
        assert mixed.state.state_root() == clean.state.state_root()


class TestSafetyRelations:
    def test_identical_chains_are_prefix_consistent(self, kp):
        a, b = fresh_chain(kp), fresh_chain(kp)
        tx = make_transfer(kp, "aa" * 20, 1, nonce=0)
        sb = SuperBlock(index=1, blocks=(make_block(kp, 0, 1, [tx]),))
        a.commit_superblock(sb)
        b.commit_superblock(sb)
        assert a.prefix_consistent_with(b)
        assert a.state.state_root() == b.state.state_root()

    def test_lagging_chain_is_prefix(self, kp):
        a, b = fresh_chain(kp), fresh_chain(kp)
        tx0 = make_transfer(kp, "aa" * 20, 1, nonce=0)
        tx1 = make_transfer(kp, "aa" * 20, 1, nonce=1)
        sb1 = SuperBlock(index=1, blocks=(make_block(kp, 0, 1, [tx0]),))
        sb2 = SuperBlock(index=2, blocks=(make_block(kp, 0, 2, [tx1]),))
        a.commit_superblock(sb1)
        a.commit_superblock(sb2)
        b.commit_superblock(sb1)
        assert b.is_prefix_of(a)
        assert not a.is_prefix_of(b)
        assert a.prefix_consistent_with(b)

    def test_divergent_chains_fail_relation(self, kp):
        a, b = fresh_chain(kp), fresh_chain(kp)
        kp2 = generate_keypair(2)
        ta = make_transfer(kp, "aa" * 20, 1, nonce=0)
        a.commit_superblock(SuperBlock(index=1, blocks=(make_block(kp, 0, 1, [ta]),)))
        tb = make_transfer(kp, "bb" * 20, 1, nonce=0)
        b.commit_superblock(SuperBlock(index=1, blocks=(make_block(kp2, 1, 1, [tb]),)))
        assert not a.prefix_consistent_with(b)
