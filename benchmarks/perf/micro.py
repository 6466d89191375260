"""Isolated µs/op pass: each layer's public function timed alone.

Inputs come from the generated workloads (the first 2,000 transactions of
``nasdaq_burst`` and ``uber_steady``, a FIFA ``buy_ticket`` factory and
plain transfers, all from ``--seed``).  Each figure is the minimum over 5
batches of ≥ 2,000 calls, in µs per call (or per leaf / tx / vote where
the name says so).  The figures do not depend on the workload; they say
what one call costs with nothing else in the way, the traced repeat says
how often it is called.

Run alone with ``python benchmarks/perf/micro.py --seed 17``; prints one
JSON object on its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

from repro.adversary.byzantine import make_invalid_transactions  # noqa: E402
from repro.consensus.batching import VoteBatcher  # noqa: E402
from repro.consensus.broadcast import ReliableBroadcast  # noqa: E402
from repro.consensus.dbft import BinaryConsensus  # noqa: E402
from repro.consensus.messages import ConsensusMessage, MsgKind  # noqa: E402
from repro.core.deployment import Deployment  # noqa: E402
from repro.core.node import CONSENSUS_KIND  # noqa: E402
from repro.core.txpool import TxPool  # noqa: E402
from repro.core.validation import clear_signature_cache, eager_validate  # noqa: E402
from repro.crypto.keys import sign, verify  # noqa: E402
from repro.crypto.merkle import merkle_root  # noqa: E402
from repro.net.simulator import Simulator  # noqa: E402
from repro.net.topology import single_region_topology  # noqa: E402
from repro.net.transport import Message, Network  # noqa: E402
from repro.params import ProtocolParams  # noqa: E402
from repro.workloads import (  # noqa: E402
    fifa_request_factory,
    nasdaq_request_factory,
    uber_request_factory,
)
from repro.workloads.fifa import fifa_genesis_setup  # noqa: E402
from repro.workloads.synthetic import factory_balances, transfer_request_factory  # noqa: E402

from workloads import sub_seed  # noqa: E402

CALLS = 2_000
BATCHES = 5


def best_us(batch, *, per: int = CALLS, prepare=None, after=None) -> float:
    """Minimum over ``BATCHES`` timed runs of ``batch(state)``, in µs per
    ``per`` operations.  ``prepare()`` builds fresh state and ``after(state)``
    disposes of it, both outside the timing."""
    best = float("inf")
    for _ in range(BATCHES):
        state = prepare() if prepare is not None else None
        start = perf_counter()
        batch(state)
        best = min(best, perf_counter() - start)
        if after is not None:
            after(state)
    return 1e6 * best / per


def _noop(*_args, **_kwargs) -> None:
    return None


class _Sink:
    """Minimal network endpoint: counts what it is handed."""

    def __init__(self) -> None:
        self.received = 0

    def on_message(self, msg) -> None:
        self.received += 1


def _vote(kind, index, instance, sender, value=1):
    return ConsensusMessage(
        kind=kind, index=index, instance=instance, round=1, value=value, sender=sender
    )


class Inputs:
    """What every section measures on: 2,000 pre-signed transactions of
    each kind from the workloads' own factories, and an n = 4 deployment
    whose genesis funds their senders."""

    def __init__(self, seed: int):
        self.seed = seed
        self.factories = {
            "exchange": nasdaq_request_factory(clients=64, seed=sub_seed(seed, "nasdaq_burst.factory")),
            "mobility": uber_request_factory(clients=64, seed=sub_seed(seed, "uber_steady.factory")),
            "ticketing": fifa_request_factory(clients=64, seed=sub_seed(seed, "micro.fifa")),
            "transfer": transfer_request_factory(clients=64, seed=sub_seed(seed, "micro.transfer")),
        }
        self.txs = {
            kind: [factory(i, 0.0) for i in range(CALLS)]
            for kind, factory in self.factories.items()
        }
        self.trades = self.txs["exchange"]
        balances: dict = {}
        for factory in self.factories.values():
            balances.update(factory_balances(factory))
        self.protocol = ProtocolParams(n=4, tvpr=True, rpm=False)
        self.node = self.fresh_deployment(balances).validators[0]
        self.state = self.node.blockchain.state

    def fresh_deployment(self, balances=None) -> Deployment:
        return Deployment(
            protocol=self.protocol,
            topology=single_region_topology(4),
            extra_balances=balances,
            genesis_setup=fifa_genesis_setup,
            seed=sub_seed(self.seed, "micro.deployment"),
        )


def crypto(inputs: Inputs) -> "dict[str, float]":
    trades = inputs.trades
    keypair_of = {kp.address: kp for kp in inputs.factories["exchange"].keypairs}
    signing = [(keypair_of[tx.sender].private, tx.signing_payload()) for tx in trades]
    signed = [(tx.public_key, tx.signing_payload(), tx.signature) for tx in trades]

    def verify_all(_):
        for public, payload, signature in signed:
            if not verify(public, payload, signature):
                raise AssertionError("generated signature does not verify")

    leaves = [tx.tx_hash for tx in trades]
    blocks = [leaves[i : i + 250] for i in range(0, CALLS, 250)]  # one full block each
    return {
        "crypto.sign_us": best_us(
            lambda _: [sign(private, payload) for private, payload in signing]
        ),
        "crypto.verify_us": best_us(verify_all),
        "crypto.merkle_root_us_per_leaf": best_us(
            lambda _: [merkle_root(block) for block in blocks]
        ),
    }


def validation(inputs: Inputs) -> "dict[str, float]":
    def validate_all(batch, expect: bool):
        def run(_):
            for tx in batch:
                if bool(eager_validate(tx, inputs.state, inputs.protocol)) is not expect:
                    raise AssertionError("eager validation verdict changed")
        return run

    junk = make_invalid_transactions(CALLS, seed=sub_seed(inputs.seed, "micro.junk"))
    # a run eagerly validates every transaction once: cold signature cache
    return {
        "core.validation.eager_accept_us": best_us(
            validate_all(inputs.trades, True), prepare=clear_signature_cache
        ),
        "core.validation.eager_reject_us": best_us(
            validate_all(junk, False), prepare=clear_signature_cache
        ),
    }


def txpool(inputs: Inputs) -> "dict[str, float]":
    protocol = inputs.protocol

    def filled(_=None):
        pool = TxPool(capacity=protocol.txpool_capacity, ttl=protocol.tx_ttl)
        for tx in inputs.trades:
            pool.add(tx, 0.0)
        return pool

    # Eight pools 2,000 deep, one proposer's take from each: the block gas
    # limit releases 250 exchange calls per take.
    def take(pools):
        taken = sum(
            len(pool.take_batch(
                protocol.max_block_txs,
                gas_limit=protocol.block_gas_limit,
                next_nonce=inputs.state.nonce_of,
            ))
            for pool in pools
        )
        if taken != CALLS:
            raise AssertionError(f"take_batch released {taken} txs, expected {CALLS}")

    return {
        "core.txpool.add_us": best_us(filled),
        "core.txpool.take_batch_us_per_tx": best_us(
            take, prepare=lambda: [filled() for _ in range(8)]
        ),
    }


def consensus(inputs: Inputs) -> "dict[str, float]":
    payload = b"block-payload"
    digest = hashlib.sha256(payload).digest()
    rbc_msgs = [
        _vote(kind, index, instance, sender, (digest, payload))
        for index in range(1, CALLS // 32 + 2)
        for kind in (MsgKind.RBC_ECHO, MsgKind.RBC_READY)
        for instance in range(4)
        for sender in range(4)
    ]

    def fresh_rbcs():
        return {
            index: ReliableBroadcast(
                n=4, f=1, my_id=0, index=index, broadcast=_noop, on_deliver=_noop
            )
            for index in {m.index for m in rbc_msgs}
        }

    def rbc_steps(rbcs):
        for msg in rbc_msgs:
            rbcs[msg.index].on_message(msg)

    dbft_msgs = [
        _vote(kind, index, 0, sender)
        for index in range(1, CALLS // 8 + 1)
        for kind in (MsgKind.BVAL, MsgKind.AUX)
        for sender in range(4)
    ]

    def fresh_instances():
        instances = {}
        for index in {m.index for m in dbft_msgs}:
            instance = BinaryConsensus(
                n=4, f=1, my_id=0, index=index, instance=0,
                broadcast=_noop, on_decide=_noop,
            )
            instance.propose(1)
            instances[index] = instance
        return instances

    def dbft_steps(instances):
        for msg in dbft_msgs:
            instances[msg.index].on_message(msg)

    # What one validator emits over 125 rounds at n = 4 (per round and
    # slot: a BVAL, an AUX, an RBC ECHO and an RBC READY), packed into one
    # BATCH; then that batch arriving at a validator that has not seen it:
    # per vote, the receiver's unpack + dispatch + the vote's consensus step.
    votes = [
        _vote(kind, index, instance, 1, value)
        for index in range(1, CALLS // 16 + 1)
        for kind, value in (
            (MsgKind.BVAL, 1), (MsgKind.AUX, 1),
            (MsgKind.RBC_ECHO, (digest, payload)), (MsgKind.RBC_READY, (digest, payload)),
        )
        for instance in range(4)
    ]
    packed: list = []

    def pack(batcher):
        for vote in votes:
            batcher.submit(vote)
        batcher.flush()

    out = {
        "consensus.broadcast.msg_step_us": best_us(
            rbc_steps, per=len(rbc_msgs), prepare=fresh_rbcs
        ),
        "consensus.dbft.msg_step_us": best_us(
            dbft_steps, per=len(dbft_msgs), prepare=fresh_instances
        ),
        "consensus.batching.pack_us_per_vote": best_us(
            pack, per=len(votes),
            prepare=lambda: VoteBatcher(node_id=1, sink=packed.append, sim=None, tick=0.1),
        ),
    }
    batch = packed[0]
    wire = Message(
        kind=CONSENSUS_KIND, payload=batch, sender=1,
        size_bytes=batch.approx_size(), count=len(batch.value),
    )
    out["consensus.batching.unpack_us_per_vote"] = best_us(
        lambda receiver: receiver.on_message(wire), per=len(votes),
        prepare=lambda: inputs.fresh_deployment().validators[0],
    )
    return out


def net(inputs: Inputs) -> "dict[str, float]":
    def fresh_network():
        sim = Simulator()
        network = Network(
            sim, single_region_topology(2), seed=sub_seed(inputs.seed, "micro.net")
        )
        sinks = (_Sink(), _Sink())
        network.register(0, sinks[0])
        network.register(1, sinks[1])
        return sim, network, sinks

    message = Message(kind="micro", payload=None, sender=0, size_bytes=256)

    def send_deliver(ctx):
        sim, network, sinks = ctx
        for _ in range(CALLS):
            network.send(0, 1, message)
        sim.run()
        if sinks[1].received != CALLS:
            raise AssertionError("transport lost messages on a fault-free link")

    def schedule_step(sim):
        for i in range(CALLS):
            sim.schedule(i * 1e-3, _noop)
        sim.run()
        if sim.events_processed != CALLS:
            raise AssertionError("simulator did not fire every event")

    return {
        "net.transport.send_deliver_us": best_us(send_deliver, prepare=fresh_network),
        "net.simulator.schedule_step_us": best_us(schedule_step, prepare=Simulator),
    }


def vm(inputs: Inputs) -> "dict[str, float]":
    state = inputs.state
    executor = inputs.node.blockchain.executor
    coinbase = inputs.node.address
    out = {}
    for kind in ("transfer", "exchange", "mobility", "ticketing"):
        batch = inputs.txs[kind]
        for tx in batch:  # warm the signature cache: time the VM, not crypto
            eager_validate(tx, state, inputs.protocol)

        def execute(_snapshot, batch=batch, kind=kind):
            for tx in batch:
                if not executor.apply_transaction(tx, coinbase=coinbase).success:
                    raise AssertionError(f"{kind} transaction failed to execute")

        out[f"vm.executor.{kind}_us"] = best_us(
            execute, prepare=state.snapshot, after=state.revert
        )
    return out


SECTIONS = (crypto, validation, txpool, consensus, net, vm)


def measure(seed: int) -> "dict[str, float]":
    inputs = Inputs(seed)
    out: "dict[str, float]" = {}
    for section in SECTIONS:
        out.update(section(inputs))
    return out


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args(argv)
    print(json.dumps({"micro": measure(args.seed)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
