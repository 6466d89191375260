"""The one Byzantine validator: a :class:`ValidatorNode` whose misbehaviour
``byzantine_*`` schedule windows toggle at runtime."""

from __future__ import annotations

from typing import Sequence

from repro.core.block import Block, make_block
from repro.core.node import ValidatorNode
from repro.core.transaction import Transaction, make_transfer
from repro.crypto.keys import generate_keypair
from repro.net.transport import Message


def make_invalid_transactions(
    count: int,
    *,
    seed: int = 99,
    created_at: float = 0.0,
    amount: int = 1,
) -> list[Transaction]:
    """Invalid transactions per §V-B: senders whose balance is 0 ETH.

    The signatures are genuine, so only the balance checks (iv)/(v) fail —
    exactly the class of junk a flooding validator injects to waste peer
    resources without being trivially filterable by signature checks.
    """
    return invalid_transactions_at([created_at] * count, seed=seed, amount=amount)


def invalid_transactions_at(
    times: Sequence[float], *, seed: int = 99, amount: int = 1
) -> list[Transaction]:
    """:func:`make_invalid_transactions`, the ``i``-th sent at ``times[i]``."""
    receiver = generate_keypair(seed + 1).address
    return [
        make_transfer(
            generate_keypair(seed * 1_000_003 + i), receiver=receiver,
            amount=amount, nonce=0, created_at=t,
        )
        for i, t in enumerate(times)
    ]


#: behaviours a campaign can toggle, mirroring the ``byzantine_*``
#: schedule kinds (``byzantine_flood`` toggles ``"flood"``, etc.)
CAMPAIGN_BEHAVIOURS = ("flood", "equivocate", "withhold", "censor")


class CampaignValidator(ValidatorNode):
    """A validator whose misbehaviour is toggled at runtime.

    The chaos engine's ``byzantine_*`` schedule windows flip behaviour
    flags here through :meth:`set_misbehaviour` (see
    :class:`~repro.faults.controller.FaultController`).  With every flag
    off the node is byte-identical to a correct :class:`ValidatorNode`;
    a window opened at ``at=0.0`` and never closed is the always-on
    adversary, and a campaign can sequence several behaviours on one node
    while staying inside the ≤ f fault budget.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: flood intensity; a ``byzantine_flood`` window's knobs set these
        self.flood_per_block = 100
        #: total invalid transactions the attacker sends (None = unbounded);
        #: Table I fixes this at 10 000
        self.flood_total: int | None = None
        self._flood_seed = 99
        self._flood_batch = 0
        self.invalid_txs_proposed = 0
        self.censored = 0
        self.withheld_msgs = 0
        self.flood_active = False
        self.censor_active = False
        self.withhold_active = False
        self.equivocate_active = False
        #: (behaviour, active, sim_time) toggle history, for tests/telemetry
        self.misbehaviour_log: list[tuple[str, bool, float]] = []

    # -- campaign control ----------------------------------------------------------

    def set_misbehaviour(self, behaviour: str, active: bool, **knobs) -> None:
        """Toggle one behaviour; intensity ``knobs`` apply to flooding
        (``per_block``, ``total``, ``seed``)."""
        if behaviour not in CAMPAIGN_BEHAVIOURS:
            raise ValueError(f"unknown misbehaviour {behaviour!r}")
        if behaviour == "flood":
            if knobs.get("per_block") is not None:
                self.flood_per_block = int(knobs["per_block"])
            if "total" in knobs:
                self.flood_total = knobs["total"]
            if knobs.get("seed") is not None:
                self._flood_seed = int(knobs["seed"])
        setattr(self, f"{behaviour}_active", bool(active))
        self.misbehaviour_log.append((behaviour, bool(active), self.sim.now))

    # -- behaviours ----------------------------------------------------------------

    def _receive(self, tx: Transaction, *, from_peer: bool) -> bool:
        if not self.flood_active:
            return super()._receive(tx, from_peer=from_peer)
        # A Byzantine flooder skips eager validation entirely (saving C)
        # and pools whatever arrives.
        if self.blockchain.contains_tx(tx) or tx in self.pool:
            return False
        self.pool.add(tx, now=self.sim.now)
        return True

    def _create_block(self, index: int) -> Block:
        if self.censor_active:
            self.pool.expire(self.sim.now)
            dropped = self.pool.take_batch(
                self.protocol.max_block_txs,
                gas_limit=self.protocol.block_gas_limit,
            )
            self.censored += len(dropped)
            return make_block(self.keypair, self.node_id, index, (), round=index)
        if not self.flood_active:
            return super()._create_block(index)
        self.pool.expire(self.sim.now)
        batch = self.pool.take_batch(
            self.protocol.max_block_txs, gas_limit=self.protocol.block_gas_limit
        )
        budget = self.flood_per_block
        if self.flood_total is not None:
            budget = min(budget, self.flood_total - self.invalid_txs_proposed)
        flood = make_invalid_transactions(
            max(0, budget),
            seed=self._flood_seed + self._flood_batch,
            created_at=self.sim.now,
        )
        self._flood_batch += 1
        self.invalid_txs_proposed += len(flood)
        return make_block(
            self.keypair, self.node_id, index, batch + flood, round=index
        )

    def _send_consensus_wire(self, cmsg) -> None:
        if self.withhold_active:
            from repro.consensus.messages import MsgKind

            self.withheld_msgs += (
                len(cmsg.value) if cmsg.kind is MsgKind.BATCH else 1
            )
            return
        super()._send_consensus_wire(cmsg)

    def _start_round(self, index: int) -> None:
        if not self.equivocate_active:
            return super()._start_round(index)
        if index in self._proposed:
            return
        self._proposed.add(index)
        consensus = self._consensus_for(index)
        block_a = self._create_block(index)
        block_b = make_block(
            self.keypair,
            self.node_id,
            index,
            make_invalid_transactions(1, seed=index, created_at=self.sim.now),
            round=index,
        )
        # Bypass the uniform RBC broadcast: hand-deliver conflicting SENDs.
        from repro.consensus.messages import ConsensusMessage, MsgKind
        from repro.core.node import CONSENSUS_KIND

        for dst in self.network.node_ids:
            block = block_a if dst % 2 == 0 else block_b
            cmsg = ConsensusMessage(
                kind=MsgKind.RBC_SEND,
                index=index,
                instance=self.node_id,
                round=0,
                value=block,
                sender=self.node_id,
            )
            msg = Message(
                kind=CONSENSUS_KIND,
                payload=cmsg,
                sender=self.node_id,
                size_bytes=cmsg.approx_size(),
            )
            if dst == self.node_id:
                consensus.on_message(cmsg)
            else:
                self.network.send(self.node_id, dst, msg)
        self._schedule(self.proposer_timeout, self._round_timeout, index)
