"""State snapshots."""

import pytest

from repro.vm.state import WorldState
from repro.vm.sync import SyncError, restore_snapshot, take_snapshot


def populated_state() -> WorldState:
    state = WorldState()
    state.create_account("aa" * 20, 1_000)
    state.create_account("bb" * 20, 2_000, code=b"\x60\x00")
    state.create_account("cc" * 20, 0, native="exchange")
    state.storage_set("cc" * 20, "last_price:AAPL", 15_000)
    state.storage_set("cc" * 20, "volume:AAPL", 77)
    acct = state.get_account("aa" * 20)
    acct.nonce = 5
    state.commit()
    return state


class TestSnapshot:
    def test_roundtrip_preserves_root(self):
        state = populated_state()
        restored = restore_snapshot(take_snapshot(state))
        assert restored.state_root() == state.state_root()
        assert restored.balance_of("aa" * 20) == 1_000
        assert restored.nonce_of("aa" * 20) == 5
        assert restored.get_account("bb" * 20).code == b"\x60\x00"
        assert restored.get_account("cc" * 20).native == "exchange"
        assert restored.storage_get("cc" * 20, "volume:AAPL") == 77

    def test_restored_state_is_independent(self):
        state = populated_state()
        restored = restore_snapshot(take_snapshot(state))
        restored.set_balance("aa" * 20, 9)
        assert state.balance_of("aa" * 20) == 1_000

    def test_expected_root_verification(self):
        state = populated_state()
        snapshot = take_snapshot(state)
        restore_snapshot(snapshot, expected_root=state.state_root())  # ok
        with pytest.raises(SyncError):
            restore_snapshot(snapshot, expected_root=b"\x00" * 32)

    def test_tampered_snapshot_detected(self):
        state = populated_state()
        snapshot = take_snapshot(state)
        tampered = type(snapshot)(
            accounts=tuple(
                (a, b + 1, n, c, nat) for a, b, n, c, nat in snapshot.accounts
            ),
            storage=snapshot.storage,
            root=snapshot.root,
        )
        with pytest.raises(SyncError):
            restore_snapshot(tampered)

    def test_empty_state(self):
        state = WorldState()
        restored = restore_snapshot(take_snapshot(state))
        assert restored.state_root() == state.state_root()

    def test_sync_from_live_validator(self):
        """A snapshot of a running validator restores onto the same root
        the committee agrees on."""
        from repro import params
        from repro.core.deployment import Deployment, fund_clients
        from repro.core.transaction import make_transfer
        from repro.net.topology import single_region_topology

        clients, balances = fund_clients(2)
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4),
            topology=single_region_topology(4),
            extra_balances=balances,
        )
        deployment.start()
        tx = make_transfer(clients[0], clients[1].address, 5, nonce=0)
        deployment.submit(tx, validator_id=0, at=0.05)
        deployment.run_until(3.0)
        peer = deployment.validators[1]
        synced = restore_snapshot(
            take_snapshot(peer.blockchain.state, height=peer.blockchain.height),
            expected_root=peer.blockchain.state.state_root(),
        )
        assert synced.state_root() == deployment.validators[0].blockchain.state.state_root()


class TestSnapshotCatchup:
    """The crash-recovery properties the catch-up protocol leans on."""

    def test_tampered_storage_detected(self):
        state = populated_state()
        snapshot = take_snapshot(state)
        tampered = type(snapshot)(
            accounts=snapshot.accounts,
            storage=tuple(
                (a, k, v if k != "volume:AAPL" else v + 1)
                for a, k, v in snapshot.storage
            ),
            root=snapshot.root,
        )
        with pytest.raises(SyncError):
            restore_snapshot(tampered)

    def test_snapshot_preserves_height_stamp(self):
        state = populated_state()
        snapshot = take_snapshot(state, height=42)
        assert snapshot.height == 42
        # restoring does not need the stamp but must not choke on it
        assert restore_snapshot(snapshot).state_root() == state.state_root()

    def test_snapshot_at_height_replay_onto_live_chain(self):
        """Restore a mid-run snapshot and replay the decided superblocks
        past it (a restarted node's catch-up): the replayed state must
        land on the exact root the live committee reached."""
        from repro import params
        from repro.core.blockchain import Blockchain
        from repro.core.deployment import Deployment, fund_clients
        from repro.core.transaction import make_transfer
        from repro.net.topology import single_region_topology

        clients, balances = fund_clients(4)
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4, rpm=False),
            topology=single_region_topology(4),
            extra_balances=balances,
        )
        deployment.start()
        for k in range(12):
            tx = make_transfer(
                clients[k % 4], clients[(k + 1) % 4].address, 1,
                nonce=k // 4, created_at=0.0,
            )
            deployment.submit(tx, validator_id=k % 4, at=0.1 + k * 0.3)

        deployment.run_until(2.0)
        node = deployment.validators[0]
        boundary = node._next_commit_index
        snapshot = take_snapshot(
            node.blockchain.state, height=node.blockchain.height
        )
        snapshot_root = node.blockchain.state.state_root()

        deployment.run_until(8.0)
        assert node._next_commit_index > boundary  # chain moved on

        restored = restore_snapshot(snapshot, expected_root=snapshot_root)
        replica = Blockchain(protocol=deployment.protocol, state=restored)
        for superblock in node.journal.range(boundary, node._next_commit_index):
            replica.commit_superblock(superblock, coinbase_of=node.coinbase_of)
        assert (
            replica.state.state_root() == node.blockchain.state.state_root()
        )
