"""Bounded consensus state: a node holds consensus state for a window of
chain indices around its commit frontier, not for every index it has
heard of.

* An index past ``frontier + AHEAD_WINDOW`` opens nothing: one Byzantine
  seat naming 2,000 far indices (each used to open a full
  ``SuperBlockConsensus``) moves only a counter.
* A node that fell more than ``AHEAD_WINDOW`` behind sees f+1 seats
  speak past its window and asks for catch-up, with the watchdog off.
* Spray, crash/restart and late-delivery links interleaved: safety,
  every submitted transaction committed everywhere, and at every grid
  point no node holds more than ``RETIRE_WINDOW + AHEAD_WINDOW + 1``
  indices.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import params
from repro.consensus.messages import ConsensusBatch, ConsensusMessage, MsgKind
from repro.core.deployment import Deployment, fund_clients
from repro.core.node import AHEAD_WINDOW, CONSENSUS_KIND, RETIRE_WINDOW
from repro.core.transaction import make_transfer
from repro.faults import FaultSchedule
from repro.net.topology import single_region_topology
from repro.net.transport import Message
from tests.core.test_vote_authenticity import _wire

BOUND = RETIRE_WINDOW + AHEAD_WINDOW + 1


def _bval(index, sender):
    return ConsensusMessage(
        kind=MsgKind.BVAL, index=index, instance=0, round=1, value=1, sender=sender
    )


def _deployment(*, seed, faults=None, clients=4):
    keypairs, balances = fund_clients(clients)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4),
        topology=single_region_topology(4),
        extra_balances=balances,
        fault_schedule=faults,
        seed=seed,
    )
    return deployment, keypairs


def _transfers(deployment, clients, *, count, seats, start=0.2, spacing=0.3):
    txs = []
    for k in range(count):
        client = clients[k % len(clients)]
        tx = make_transfer(
            client, clients[(k + 1) % len(clients)].address, 1,
            nonce=k // len(clients), created_at=0.0,
        )
        txs.append(tx)
        deployment.submit(tx, validator_id=seats[k % len(seats)], at=start + k * spacing)
    return txs


def _count_catchup_requests(node):
    sent = []
    original = node._send_catchup_request

    def counted():
        sent.append(node.sim.now)
        original()

    node._send_catchup_request = counted
    return sent


def test_spray_of_far_indices_opens_nothing():
    deployment, _ = _deployment(seed=11)
    deployment.start()
    deployment.run_until(5.0)
    node = deployment.validators[0]
    requests = _count_catchup_requests(node)
    before = set(node._consensus)

    for i in range(2_000):
        node.on_message(_wire(_bval(10**9 + i, 1), wire_sender=1))

    assert set(node._consensus) == before  # 2,000 more before the window
    assert node.stats.votes_dropped_ahead == 2_000
    assert requests == []  # one seat is not f+1: it cannot force a catch-up
    deployment.run_until(15.0)
    assert deployment.safety_holds()
    assert node._next_commit_index > 20  # the spray stopped nothing
    assert all(len(v._consensus) <= BOUND for v in deployment.validators)


def test_window_edges():
    deployment, _ = _deployment(seed=11)
    deployment.start()
    deployment.run_until(3.0)
    node = deployment.validators[0]
    frontier = node._next_commit_index
    edge = frontier + AHEAD_WINDOW
    node.on_message(_wire(_bval(edge, 1), wire_sender=1))
    node.on_message(_wire(_bval(edge + 1, 1), wire_sender=1))
    assert edge in node._consensus and edge + 1 not in node._consensus
    assert node.stats.votes_dropped_ahead == 1
    # below the floor: nothing reopens, nothing is counted
    deployment.run_until(12.0)
    floor = node._catchup_floor
    assert floor == node._next_commit_index - RETIRE_WINDOW
    node.on_message(_wire(_bval(floor - 1, 1), wire_sender=1))
    assert floor - 1 not in node._consensus
    assert node.stats.votes_dropped_ahead == 1


def _just_after_a_commit(deployment, horizon):
    """Run to ``horizon``, then to 10 ms past seat 0's next commit: every
    sample is taken at the same phase of a round."""
    deployment.run_until(horizon)
    node = deployment.validators[0]
    start, now = node._next_commit_index, horizon
    while node._next_commit_index == start:
        now += 0.001
        deployment.run_until(now)
    deployment.run_until(now + 0.01)


def test_finished_rounds_leave_the_window():
    deployment, clients = _deployment(seed=11)
    txs = _transfers(deployment, clients, count=8, seats=(0, 1, 2, 3))
    deployment.start()
    counts = []
    for horizon in (20.0, 40.0):
        _just_after_a_commit(deployment, horizon)
        counts.append([len(v._consensus) for v in deployment.validators])
        for node in deployment.validators:
            frontier = node._next_commit_index
            assert min(node._consensus) >= frontier - RETIRE_WINDOW
            # committed and quiescent: the binary instances are gone
            held = [node._consensus[i] for i in node._consensus if i < frontier - 1]
            assert held and all(not c.instances for c in held)
            # a pending superblock is popped when its index commits
            assert not node._pending_superblocks
            assert min(node._proposed) >= node._catchup_floor
    assert counts[0] == counts[1] == [RETIRE_WINDOW] * 4
    assert all(deployment.committed_everywhere(tx) for tx in txs)


def test_a_node_far_behind_converges_without_the_watchdog():
    # Seat 3 is cut off (no reliable delivery: what it misses is gone)
    # while the others commit well past its ahead window.
    faults = FaultSchedule(seed=1).hard_partition([[0, 1, 2], [3]], at=1.0, heal_at=12.0)
    deployment, clients = _deployment(seed=3, faults=faults)
    assert deployment.validators[3].watchdog is None
    txs = _transfers(deployment, clients, count=12, seats=(0, 1, 2))
    deployment.start()
    deployment.run_until(12.0)
    lagging, peer = deployment.validators[3], deployment.validators[0]
    assert peer._next_commit_index - lagging._next_commit_index > AHEAD_WINDOW
    deployment.run_until(25.0)
    assert lagging.stats.votes_dropped_ahead > 0
    assert all(deployment.committed_everywhere(tx) for tx in txs)
    assert deployment.safety_holds() and deployment.states_agree()


SEATS = st.integers(0, 3)


@st.composite
def stressors(draw):
    """A spray window, one crash/restart and one late-delivery window, each
    at a drawn seat and time."""
    spray_seat = draw(SEATS)
    spray_at = draw(st.floats(0.5, 10.0))
    spray_offset = draw(st.sampled_from((-RETIRE_WINDOW - 1, AHEAD_WINDOW + 1, 50, 10**9)))
    crash_seat = draw(SEATS)
    crash_at = draw(st.floats(0.5, 8.0))
    down_s = draw(st.floats(0.5, 6.0))
    slow_seat = draw(SEATS)
    slow_at = draw(st.floats(0.0, 8.0))
    slow_s = draw(st.floats(0.5, 5.0))
    delay_s = draw(st.floats(0.1, 3.0))
    seed = draw(st.integers(0, 2**16))
    return (
        spray_seat, spray_at, spray_offset, crash_seat, crash_at, down_s,
        slow_seat, slow_at, slow_s, delay_s, seed,
    )


@settings(
    max_examples=8, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(stressors())
def test_spray_crash_and_late_links_keep_the_bound(case):
    (spray_seat, spray_at, spray_offset, crash_seat, crash_at, down_s,
     slow_seat, slow_at, slow_s, delay_s, seed) = case
    faults = (
        FaultSchedule(seed=seed)
        .crash(crash_seat, at=crash_at)
        .restart(crash_seat, at=crash_at + down_s)
    )
    deployment, clients = _deployment(seed=seed, faults=faults)
    live = [s for s in range(4) if s != crash_seat]
    txs = _transfers(deployment, clients, count=12, seats=live)

    def late(src, dst, now):
        touched = slow_seat in (src, dst)
        return delay_s if touched and slow_at <= now < slow_at + slow_s else 0.0

    deployment.network.adversarial_delay = late

    def spray():
        sprayer = deployment.validators[spray_seat]
        base = sprayer._next_commit_index + spray_offset
        votes = tuple(_bval(base + i, spray_seat) for i in range(200))
        batch = ConsensusMessage(
            kind=MsgKind.BATCH, index=-1, instance=-1, round=0,
            value=ConsensusBatch(messages=votes, sender=spray_seat), sender=spray_seat,
        )
        deployment.network.broadcast(
            spray_seat,
            Message(kind=CONSENSUS_KIND, payload=batch, sender=spray_seat,
                    size_bytes=batch.approx_size(), count=len(votes)),
            include_self=False,
        )

    for k in range(3):
        deployment.sim.schedule_at(spray_at + 0.7 * k, spray)
    deployment.start()
    for second in range(1, 31):
        deployment.run_until(float(second))
        for node in deployment.validators:
            assert len(node._consensus) <= BOUND, (second, node.node_id)
    assert deployment.safety_holds() and deployment.states_agree()
    assert all(deployment.committed_everywhere(tx) for tx in txs)
