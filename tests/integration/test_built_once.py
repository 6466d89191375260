"""A client transaction is built once, and a key derives its HMAC state once.

DIABLO-style clients pre-sign their whole schedule before a run starts,
so what one signed transaction costs is paid once per transaction of the
schedule.  A signed transaction is one ``Transaction.__init__`` (an
unsigned object hashed and then copied into a signed one was two, and
the Table I mix re-stamped each copy with its send time, three), and a
signer derives the keyed SHA-256 states of its HMAC once per key: no
signature pays the one-shot ``hmac.digest``, which derives both states
from the key on every call.

A count, not a clock.  ``crash_recover_n4`` is built from the benchmark's
own workload file at smoke scale and run to its horizon.
"""

import hmac
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.core.transaction import Transaction, make_invoke, make_transfer
from repro.crypto import keys
from repro.crypto.keys import generate_keypair
from repro.workloads.synthetic import flooding_mix

WORKLOADS = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "workloads.py"


@pytest.fixture
def counts(monkeypatch):
    """Count ``Transaction.__init__`` runs, signing-state derivations per
    private key and one-shot ``hmac.digest`` calls."""
    seen = Counter()
    init = Transaction.__init__
    derive = keys.PrivateKey.hmac_states.func
    digest = hmac.digest

    def counting_init(self, *args, **kwargs):
        seen["init"] += 1
        init(self, *args, **kwargs)

    def counting_derive(private):
        seen[private.raw] += 1
        return derive(private)

    def counting_digest(*args):
        seen["hmac.digest"] += 1
        return digest(*args)

    monkeypatch.setattr(Transaction, "__init__", counting_init)
    monkeypatch.setattr(keys.PrivateKey.hmac_states, "func", counting_derive)
    monkeypatch.setattr(hmac, "digest", counting_digest)
    return seen


def test_each_constructor_runs_one_init(counts):
    kp, other = generate_keypair(1), generate_keypair(2)
    make_transfer(kp, other.address, 1, nonce=0)
    assert counts["init"] == 1
    make_invoke(kp, other.address, "f", (1, "a"), nonce=1)
    assert counts["init"] == 2
    assert counts[kp.private.raw] == 1  # two signatures, one derivation
    assert counts["hmac.digest"] == 0


def test_the_flooding_mix_builds_each_transaction_once(counts):
    txs = flooding_mix(40, 20, send_rate_tps=100.0, clients=4, seed=7)
    assert len(txs) == 60 == counts["init"]  # three per valid one before
    assert [tx.created_at for tx in txs] == [i / 100.0 for i in range(60)]


def test_crash_recover_smoke_derives_signing_state_once_per_key(counts, monkeypatch):
    spec = importlib.util.spec_from_file_location("perf_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    prepared = workloads.crash_recover_n4(17, 0.05)
    built = counts["init"]
    assert built == len(prepared.schedule.entries)
    deployment = prepared.deployment
    deployment.start()
    prepared.submitter.submit_all(deployment, prepared.schedule)
    deployment.run_until(prepared.horizon_s)
    assert deployment.safety_holds()
    derived = {key: n for key, n in counts.items() if isinstance(key, bytes)}
    # 64 clients and 4 seats sign; seats sign blocks and RPM calls
    assert len(derived) == 64 + 4
    assert set(derived.values()) == {1}
