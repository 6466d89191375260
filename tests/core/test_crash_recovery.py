"""Crash–recovery: volatile/durable split, catch-up, RPM survival."""

import pytest

from repro import params
from repro.consensus.messages import ConsensusMessage, MsgKind, VoteRun
from repro.core import node as node_module
from repro.core.block import Block, SuperBlock
from repro.core.catchup import CatchupRequest, CatchupResponse, DecidedJournal
from repro.core.deployment import Deployment, fund_clients
from repro.core.rpm import RPMContract
from repro.core.transaction import make_transfer
from repro.net.topology import single_region_topology
from repro.net.transport import Message
from repro.vm.executor import native_address_for
from repro.vm.state import WorldState
from tests.core.test_vote_authenticity import _batch, _wire


def make_deployment(*, rpm=False, clients=4, **kwargs):
    keypairs, balances = fund_clients(clients)
    kwargs.setdefault("protocol", params.ProtocolParams(n=4, rpm=rpm))
    deployment = Deployment(
        topology=single_region_topology(4), extra_balances=balances, **kwargs
    )
    return deployment, keypairs


def submit_transfers(deployment, clients, *, count, start=0.1, spacing=0.3):
    txs = []
    for k in range(count):
        client = clients[k % len(clients)]
        tx = make_transfer(
            client, clients[(k + 1) % len(clients)].address, 1,
            nonce=k // len(clients), created_at=0.0,
        )
        txs.append(tx)
        deployment.submit(tx, validator_id=k % 3, at=start + k * spacing)
    return txs


class TestCrashSemantics:
    def test_crash_drops_volatile_state_keeps_durable(self):
        deployment, clients = make_deployment()
        deployment.start()
        submit_transfers(deployment, clients, count=6)
        deployment.run_until(4.0)
        node = deployment.validators[3]
        height_before = node.blockchain.height
        journal_before = len(node.journal)
        assert height_before > 0 and journal_before > 0

        # park something in the pool so the crash has volatile state to drop
        late = make_transfer(clients[0], clients[1].address, 1, nonce=2)
        assert node.submit_transaction(late)
        assert len(node.pool) > 0

        deployment.crash(3)
        assert node.crashed
        # volatile: gone
        assert len(node.pool) == 0
        assert not node._consensus and not node._pending_superblocks
        # durable: intact
        assert node.blockchain.height == height_before
        assert len(node.journal) == journal_before

    def test_crashed_node_refuses_work(self):
        deployment, clients = make_deployment()
        deployment.start()
        deployment.run_until(1.0)
        deployment.crash(3)
        node = deployment.validators[3]
        tx = make_transfer(clients[0], clients[1].address, 1, nonce=0)
        assert not node.submit_transaction(tx)
        assert len(node.pool) == 0

    def test_crashed_node_schedules_nothing(self):
        deployment, _ = make_deployment()
        deployment.start()
        deployment.run_until(2.0)
        deployment.crash(3)
        node = deployment.validators[3]
        height = node.blockchain.height
        deployment.run_until(10.0)
        # the pre-crash incarnation's timers were neutralized: no commits
        assert node.blockchain.height == height
        assert node.crashed


class TestRecovery:
    def test_restart_catches_up_to_identical_chain(self):
        deployment, clients = make_deployment()
        deployment.start()
        txs = submit_transfers(deployment, clients, count=12)
        deployment.sim.schedule_at(3.0, deployment.crash, 3)
        deployment.sim.schedule_at(8.0, deployment.restart, 3)
        deployment.run_until(25.0)

        node = deployment.validators[3]
        assert not node.crashed and not node._recovering
        hashes = {tuple(v.blockchain.block_hashes()) for v in deployment.validators}
        roots = {v.blockchain.state.state_root() for v in deployment.validators}
        assert len(hashes) == 1, "restarted chain must match peers byte-for-byte"
        assert len(roots) == 1
        assert deployment.safety_holds()
        for tx in txs:
            assert deployment.committed_everywhere(tx)

    def test_restarted_node_resumes_proposing(self):
        deployment, clients = make_deployment()
        deployment.start()
        deployment.sim.schedule_at(2.0, deployment.crash, 3)
        deployment.sim.schedule_at(5.0, deployment.restart, 3)
        deployment.run_until(12.0)
        node = deployment.validators[3]
        frontier = node._next_commit_index
        deployment.run_until(20.0)
        assert node._next_commit_index > frontier  # still committing
        assert node._next_propose_index >= frontier

    def test_rpm_deposit_and_nonce_survive_restart(self):
        deployment, clients = make_deployment(rpm=True)
        deployment.start()
        submit_transfers(deployment, clients, count=10)
        deployment.sim.schedule_at(3.0, deployment.crash, 3)
        deployment.sim.schedule_at(8.0, deployment.restart, 3)
        deployment.run_until(30.0)

        node = deployment.validators[3]
        assert not node._recovering
        rpm_addr = native_address_for(RPMContract.name)
        state = node.blockchain.state
        # the deposit is contract storage: durable, restored by replay
        # (rewards may have accrued on top — it must not be slashed/lost)
        deposit = state.storage_get(rpm_addr, f"deposit:{node.address}")
        assert deposit >= deployment.protocol.validator_deposit
        # attestation nonces continue from the committed state nonce
        # rather than colliding with (or skipping past) pre-crash ones
        assert node.journal.rpm_nonce is not None
        committed_nonce = state.nonce_of(node.address)
        assert committed_nonce > 0
        assert node._rpm_nonce is None or node._rpm_nonce >= committed_nonce
        assert deployment.states_agree()


class TestCatchupHardening:
    def _recovering_node(self, deployment):
        deployment.crash(3)
        deployment.restart(3)
        node = deployment.validators[3]
        assert node._recovering
        return node

    def test_wrong_state_root_keeps_node_recovering(self):
        """A genuine journal tail that comes with a root the replay does not
        reach leaves the node recovering; the next genuine response, now
        an empty tail at the new frontier, finishes recovery."""
        deployment, clients = make_deployment()
        deployment.start()
        submit_transfers(deployment, clients, count=6)
        deployment.run_until(5.0)
        deployment.crash(3)
        deployment.run_until(8.0)  # seat 3 misses what the others commit
        deployment.restart(3)
        node, peer = deployment.validators[3], deployment.validators[0]
        assert node._recovering

        genuine = _genuine_response(node, peer)
        assert genuine.superblocks
        wrong = CatchupResponse(
            superblocks=genuine.superblocks,
            state_root=b"\x00" * 32,
            next_index=genuine.next_index,
            responder=genuine.responder,
        )
        node._absorb_catchup(wrong)
        assert node._recovering
        assert node._next_commit_index == genuine.next_index

        retry = _genuine_response(node, peer)
        assert retry.superblocks == ()
        node._absorb_catchup(retry)
        assert not node._recovering
        assert node.blockchain.state.state_root() == retry.state_root

    def test_genuine_response_finishes_recovery(self):
        deployment, clients = make_deployment()
        deployment.start()
        submit_transfers(deployment, clients, count=6)
        deployment.run_until(5.0)
        node = self._recovering_node(deployment)
        peer = deployment.validators[0]

        resp = _genuine_response(node, peer)
        node._absorb_catchup(resp)
        assert not node._recovering
        assert node.blockchain.state.state_root() == resp.state_root
        assert list(node.blockchain.block_hashes()) == list(
            peer.blockchain.block_hashes()
        )

    @pytest.mark.xfail(
        strict=True,
        reason="a never-crashed node applies an unsolicited CATCHUP_RESP "
        "without checking it against anyone but its sender (ROADMAP item 1(a))",
    )
    def test_unsolicited_forged_response_is_not_applied(self):
        deployment, clients = make_deployment(clients=2)
        deployment.start()
        seat = deployment.validators[3]
        # seat 3's own transfer, as the only block of node 0's next index
        forged_tx = make_transfer(
            deployment.keypairs[3], clients[1].address, 1, nonce=0
        )
        forged = SuperBlock(
            index=1,
            blocks=(Block(proposer_id=3, index=1, transactions=(forged_tx,)),),
        )
        resp = CatchupResponse(
            superblocks=(forged,),
            state_root=seat.blockchain.state.state_root(),
            next_index=2,
            responder=3,
        )
        deployment.network.send(3, 0, Message(
            kind=node_module.CATCHUP_RESP_KIND, payload=resp, sender=3,
            size_bytes=resp.approx_size(),
        ))
        real = make_transfer(clients[0], clients[1].address, 1, nonce=0)
        deployment.submit(real, validator_id=1, at=0.1)
        deployment.run_until(5.0)
        assert deployment.safety_holds()
        assert not deployment.validators[0].blockchain.contains_tx(forged_tx)
        assert deployment.committed_everywhere(real)

    def test_serving_hashes_the_state_once(self, monkeypatch):
        """Serving one request hashes the state once: the answer carries
        its root and no state image."""
        deployment, clients = make_deployment()
        deployment.start()
        submit_transfers(deployment, clients, count=6)
        deployment.run_until(5.0)
        peer = deployment.validators[0]
        roots, sent = [], []
        state_root = WorldState.state_root

        def counting(self):
            roots.append(self)
            return state_root(self)

        monkeypatch.setattr(WorldState, "state_root", counting)
        monkeypatch.setattr(
            peer.network, "send", lambda src, dst, msg: sent.append(msg.payload)
        )
        peer._serve_catchup(CatchupRequest(next_index=1, requester=3))
        (resp,) = sent
        assert roots == [peer.blockchain.state]
        assert resp.state_root == state_root(peer.blockchain.state)

    def test_consensus_traffic_buffered_while_recovering(self):
        deployment, clients = make_deployment()
        deployment.start()
        submit_transfers(deployment, clients, count=6)
        deployment.run_until(5.0)
        node = self._recovering_node(deployment)
        peer = deployment.validators[0]
        floor = node._catchup_floor
        fresh = peer._next_commit_index + 1

        node.on_message(_wire(_bval(floor - 1), 0))
        node.on_message(_wire(_bval(fresh), 0))
        # pre-floor traffic is covered by the journal replay and dropped;
        # at/past the frontier it is buffered for post-recovery replay
        assert [item.index for item, _ in node._catchup_buffer] == [fresh]
        assert not node._consensus  # nothing opened mid-recovery

        node._absorb_catchup(_genuine_response(node, peer))
        assert not node._recovering
        assert node._catchup_buffer == [] and node._catchup_buffered_votes == 0
        assert node._consensus[fresh].votes.bval_count(1, 1, 0) == 1
        # restarted for good: the floor still drops what the journal covers
        node.on_message(_wire(_bval(floor - 1), 0))
        assert floor - 1 not in node._consensus

    def test_recovery_buffer_is_bounded_in_votes(self, monkeypatch):
        monkeypatch.setattr(node_module, "CATCHUP_BUFFER_LIMIT", 5)
        deployment, _ = make_deployment()
        node = self._recovering_node(deployment)
        index = node._catchup_floor

        def run_of_four(sender):
            votes = [_bval(index, instance=i, sender=sender) for i in range(4)]
            return _batch(votes, wire_sender=sender)

        node.on_message(run_of_four(0))  # one run, four votes
        node.on_message(run_of_four(1))  # would make eight: dropped whole
        node.on_message(_wire(_bval(index, sender=2), 2))  # the fifth vote
        node.on_message(_wire(_bval(index, sender=1), 1))  # full
        assert node._catchup_buffered_votes == 5
        assert [
            (item.sender, type(item) is VoteRun) for item, _ in node._catchup_buffer
        ] == [(0, True), (2, False)]


def _bval(index, *, instance=0, sender=0):
    return ConsensusMessage(
        kind=MsgKind.BVAL, index=index, instance=instance, round=1, value=1,
        sender=sender,
    )


def _genuine_response(node, peer):
    return CatchupResponse(
        superblocks=peer.journal.range(
            node._next_commit_index, peer._next_commit_index
        ),
        state_root=peer.blockchain.state.state_root(),
        next_index=peer._next_commit_index,
        responder=peer.node_id,
    )


class TestDecidedJournal:
    def test_record_and_range(self):
        class FakeSB:
            def __init__(self, index):
                self.index = index

        journal = DecidedJournal()
        for i in (1, 2, 3):
            journal.record(FakeSB(i))
        assert len(journal) == 3
        assert 2 in journal and 7 not in journal
        assert [sb.index for sb in journal.range(2, 4)] == [2, 3]
        assert journal.range(5, 9) == ()
