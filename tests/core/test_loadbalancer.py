"""§VI load balancer: random forwarding + automated resend beats censors."""

import pytest

from repro import params
from repro.core.deployment import Deployment, fund_clients
from repro.core.loadbalancer import RandomLoadBalancer, censorship_probability
from repro.core.transaction import make_transfer
from repro.faults import FaultSchedule
from repro.net.topology import single_region_topology


def deployment_with_censor(censor_ids=(2,)):
    clients, balances = fund_clients(2)
    schedule = FaultSchedule()
    for i in censor_ids:
        schedule = schedule.byzantine_censor(i, at=0.0)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4),
        topology=single_region_topology(4),
        fault_schedule=schedule,
        extra_balances=balances,
    )
    return deployment, clients


class TestAnalytic:
    def test_probability_decays_geometrically(self):
        assert censorship_probability(4, 1, 1) == 0.25
        assert censorship_probability(4, 1, 3) == 0.25**3

    def test_no_censors_zero_probability(self):
        assert censorship_probability(4, 0, 1) == 0.0

    def test_bad_censor_count_raises(self):
        with pytest.raises(ValueError):
            censorship_probability(4, 5, 1)


class TestLoadBalancer:
    def test_tx_commits_despite_censor(self):
        deployment, clients = deployment_with_censor()
        lb = RandomLoadBalancer(deployment, receipt_timeout_s=2.0, seed=7)
        deployment.start()
        tx = make_transfer(clients[0], clients[1].address, 5, nonce=0)
        lb.submit(tx, at=0.1)
        deployment.run_until(30.0)
        assert deployment.committed_everywhere(tx)
        assert lb.stats.confirmed == 1

    def test_resends_happen_when_censored(self):
        deployment, clients = deployment_with_censor()
        # seed chosen so the first forward hits the censor (id 2)
        lb = RandomLoadBalancer(deployment, receipt_timeout_s=1.0, seed=1)
        deployment.start()
        txs = [
            make_transfer(clients[0], clients[1].address, 1, nonce=i)
            for i in range(6)
        ]
        for i, tx in enumerate(txs):
            lb.submit(tx, at=0.05 + i * 0.01)
        deployment.run_until(40.0)
        for tx in txs:
            assert deployment.committed_everywhere(tx)
        # with 6 txs and a 1/4 censor, some resend almost surely happened
        assert lb.stats.resends >= 1

    def test_gives_up_after_max_attempts_when_all_censor(self):
        deployment, clients = deployment_with_censor(censor_ids=(0,))
        lb = RandomLoadBalancer(
            deployment, receipt_timeout_s=0.5, max_attempts=3, seed=3
        )
        # make ALL validators censors? n=4 with f=1 only tolerates one; to
        # force give-up we instead point the balancer at the censor only.
        lb.rng = type("R", (), {"integers": staticmethod(lambda n: 0)})()
        deployment.start()
        tx = make_transfer(clients[0], clients[1].address, 1, nonce=0)
        lb.submit(tx, at=0.05)
        deployment.run_until(10.0)
        assert lb.stats.gave_up == 1
        assert lb.stats.attempts[tx.tx_hash] == 3

    def test_attempt_accounting(self):
        deployment, clients = deployment_with_censor(censor_ids=())
        lb = RandomLoadBalancer(deployment, receipt_timeout_s=2.0, seed=5)
        deployment.start()
        tx = make_transfer(clients[0], clients[1].address, 1, nonce=0)
        lb.submit(tx, at=0.05)
        deployment.run_until(10.0)
        assert lb.stats.forwarded >= 1
        assert lb.stats.attempts[tx.tx_hash] == 1  # no censor → first try wins

    def test_wait_behind_unconfirmed_predecessor_is_not_an_attempt(self):
        """Nonce 0 lands on the censor, nonce 1 on an honest seat whose
        pool holds it until nonce 0 commits.  Only nonce 0 is resent."""
        deployment, clients = deployment_with_censor(censor_ids=(2,))
        lb = RandomLoadBalancer(deployment, receipt_timeout_s=1.0)
        targets = iter([2, 0, 1])  # nonce 0, nonce 1, nonce 0's resend
        lb.rng = type("R", (), {"integers": staticmethod(lambda n: next(targets))})()
        deployment.start()
        txs = [
            make_transfer(clients[0], clients[1].address, 1, nonce=i)
            for i in range(2)
        ]
        for i, tx in enumerate(txs):
            lb.submit(tx, at=0.05 + 0.01 * i)
        deployment.run_until(15.0)
        assert all(deployment.committed_everywhere(tx) for tx in txs)
        assert [lb.stats.attempts[tx.tx_hash] for tx in txs] == [2, 1]
        assert lb.stats.resends == 1 and lb.stats.confirmed == 2
