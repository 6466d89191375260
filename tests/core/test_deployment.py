"""Deployment plumbing: genesis, probes, wiring."""

import pytest

from repro import params
from repro.core.deployment import Deployment, GenesisSpec, fund_clients
from repro.core.rpm import RPM_ADDRESS, VALIDATORS, read_deposit
from repro.core.transaction import Transaction, TxType, make_invoke, make_transfer
from repro.net.topology import single_region_topology
from repro.vm.executor import native_address_for
from repro.vm.state import WorldState
from tests.core.test_transaction import signed_by


class TestGenesisSpec:
    def test_build_installs_natives_and_balances(self):
        spec = GenesisSpec(
            balances={"aa" * 20: 123},
            validator_addresses=("v1" * 20, "v2" * 20),
            validator_deposit=777,
        )
        state = WorldState()
        spec.build(state)
        assert state.balance_of("aa" * 20) == 123
        for name in spec.natives:
            assert state.accounts[native_address_for(name)].native == name
        assert state.storage_get(RPM_ADDRESS, VALIDATORS) == ("v1" * 20, "v2" * 20)
        assert read_deposit(state, "v1" * 20) == 777

    def test_identical_builds_identical_roots(self):
        spec = GenesisSpec(balances={"aa" * 20: 5}, validator_addresses=("bb" * 20,))
        a, b = WorldState(), WorldState()
        spec.build(a)
        spec.build(b)
        assert a.state_root() == b.state_root()


class TestDeploymentWiring:
    def test_topology_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="topology"):
            Deployment(
                protocol=params.ProtocolParams(n=4),
                topology=single_region_topology(7),
            )

    def test_validators_funded_and_registered(self):
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4),
            topology=single_region_topology(4),
        )
        assert len(deployment.validators) == 4
        for i, validator in enumerate(deployment.validators):
            assert validator.node_id == i
            assert validator.blockchain.state.balance_of(validator.address) > 0

    def test_all_replicas_share_genesis_root(self):
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4),
            topology=single_region_topology(4),
        )
        roots = {
            v.blockchain.state.state_root() for v in deployment.validators
        }
        assert len(roots) == 1

    def test_fund_clients_deterministic(self):
        a, balances_a = fund_clients(3, seed=77)
        b, balances_b = fund_clients(3, seed=77)
        assert [kp.address for kp in a] == [kp.address for kp in b]
        assert balances_a == balances_b

    def test_correct_validators_excludes_byzantine(self):
        from repro.faults import FaultSchedule

        def correct_ids(schedule):
            deployment = Deployment(
                protocol=params.ProtocolParams(n=4),
                topology=single_region_topology(4),
                fault_schedule=schedule,
            )
            return {v.node_id for v in deployment.correct_validators}

        # a crash-stop seat is faulty, a crashed seat that restarts is not
        assert correct_ids(FaultSchedule().crash(2, at=0.0)) == {0, 1, 3}
        assert correct_ids(
            FaultSchedule().crash(2, at=1.0).restart(2, at=2.0)
        ) == {0, 1, 2, 3}
        assert correct_ids(FaultSchedule().byzantine_withhold(1, at=0.0)) == {
            0, 2, 3,
        }


class TestProbes:
    def test_safety_probe_detects_forged_divergence(self):
        """Manually diverge one replica's chain: the probe must notice."""
        clients, balances = fund_clients(2)
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4),
            topology=single_region_topology(4),
            extra_balances=balances,
        )
        deployment.start()
        tx = make_transfer(clients[0], clients[1].address, 1, nonce=0)
        deployment.submit(tx, validator_id=0, at=0.05)
        deployment.run_until(3.0)
        assert deployment.safety_holds()
        # forge: clip one replica's chain and append a different block
        victim = deployment.validators[0].blockchain
        from repro.core.block import make_block
        from repro.crypto.keys import generate_keypair

        forger = generate_keypair(4242)
        fake = make_block(forger, 0, victim.height, [],
                          parent_hash=victim.chain[victim.height - 1].block_hash)
        victim.chain[victim.height] = fake
        assert not deployment.safety_holds()

    def test_total_committed(self):
        clients, balances = fund_clients(2)
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4, rpm=False),
            topology=single_region_topology(4),
            extra_balances=balances,
        )
        deployment.start()
        tx = make_transfer(clients[0], clients[1].address, 1, nonce=0)
        deployment.submit(tx, validator_id=1, at=0.05)
        deployment.run_until(3.0)
        assert deployment.total_committed() == 1


def _malformed_calls(deployment, clients):
    """(sender keypair, signed call) pairs that pass eager validation but
    cannot bind to, or fault inside, the native method they name."""
    exchange = native_address_for("exchange")
    member = deployment.validators[2].keypair
    non_iterable = signed_by(Transaction(
        tx_type=TxType.INVOKE,
        sender=clients[1].address,
        receiver=exchange,
        amount=0,
        nonce=0,
        gas_limit=200_000,
        gas_price=1,
        payload={"contract": exchange, "function": "trade", "args": 5},
    ), clients[1])
    return {
        "missing-arguments": (
            clients[0],
            make_invoke(clients[0], exchange, "trade", ("AAPL",), nonce=0),
        ),
        "non-iterable-args": (clients[1], non_iterable),
        "non-hex-certificate": (
            member,
            make_invoke(
                member, RPM_ADDRESS, "prop_received",
                (("zz", "zz", "zz", "zz"), "00" * 32, 1, 0, 1), nonce=0,
            ),
        ),
    }


class TestMalformedContractCall:
    """A call whose inputs fault inside the native method is a failed
    receipt on every node — discarded, fully reverted — not an exception
    that ends the run."""

    @pytest.mark.parametrize(
        "case", ["missing-arguments", "non-iterable-args", "non-hex-certificate"]
    )
    def test_run_completes_and_every_node_discards_the_call(self, case):
        clients, balances = fund_clients(3)
        deployment = Deployment(
            # rpm off: the member's own attestations would take nonce 0
            protocol=params.ProtocolParams(n=4, rpm=False),
            topology=single_region_topology(4),
            extra_balances=balances,
        )
        deployment.start()
        sender, bad = _malformed_calls(deployment, clients)[case]
        before = deployment.validators[0].blockchain.state.balance_of(sender.address)
        good = make_transfer(clients[2], "aa" * 20, 1, nonce=0)
        deployment.submit(bad, validator_id=0, at=0.05)
        deployment.submit(good, validator_id=1, at=0.05)
        deployment.run_until(3.0)
        assert deployment.safety_holds()
        for validator in deployment.validators:
            chain = validator.blockchain
            assert chain.contains_tx(good)
            assert not chain.contains_tx(bad)
            assert chain.state.nonce_of(sender.address) == 0
            assert chain.state.balance_of(sender.address) == before
