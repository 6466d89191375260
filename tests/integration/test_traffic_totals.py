"""``NetStats`` keeps one traffic book: the totals and their per-kind
split.  On a run that retransmits, duplicates and loses traffic across
regions, the totals must stay the sums over kinds, and the registry's
per-region children (the per-region book) must partition the same total."""

from repro import params, telemetry
from repro.core.deployment import Deployment, fund_clients
from repro.core.transaction import make_transfer
from repro.faults import FaultSchedule
from repro.net.topology import global_topology


def test_totals_are_the_sums_over_kinds():
    clients, balances = fund_clients(2)
    with telemetry.use_registry() as reg:
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4, watchdog_stall_rounds=8),
            topology=global_topology(4),
            extra_balances=balances,
            net_params=params.NetParams(reliable_delivery=True),
            fault_schedule=(
                FaultSchedule(seed=5)
                .drop_rate(0.05, until=3.0)
                .duplicate(0.05, until=3.0)
                .crash(3, at=1.0)
                .restart(3, at=2.5)
            ),
            seed=5,
        )
        deployment.start()
        for nonce in range(3):
            tx = make_transfer(clients[0], clients[1].address, 1, nonce=nonce)
            deployment.submit(tx, validator_id=nonce % 3, at=0.1 + 0.2 * nonce)
        deployment.run_until(6.0)
        samples = telemetry.to_json(reg)["srbb_net_messages_total"]["samples"]
    stats = deployment.network.stats
    assert stats.retransmissions and stats.duplicates_dropped and stats.dropped
    assert {"ack", "catchup-req", "consensus"} <= set(stats.by_kind)
    assert stats.messages == sum(m for m, _ in stats.by_kind.values())
    assert stats.bytes == sum(b for _, b in stats.by_kind.values())
    children = [s for s in samples if s["labels"]]
    assert len({s["labels"]["src_region"] for s in children}) == 4
    assert sum(s["value"] for s in children) == stats.messages
