"""RPM's certificate checks run once per distinct input, and answer exactly
as the unmemoised contract does.

``prop_received`` and ``report`` decode the certificate, derive the
proposer, verify the signature over ``h_t`` and hash a count key through
process-wide memos keyed by their exact wire arguments.  ``ReferenceRPM``
below is the contract as it was before the memos, spelled out here: each
call goes to both, on two states, and return value, revert, gas and
storage must agree after every call — for forged certificates, a wrong
``h_t``, ``1`` / ``True`` / ``1.0`` in integer slots, ``str`` subclasses
(one whose every value compares equal), lists and malformed hex.
"""

from hypothesis import given, settings, strategies as st

from repro.core import rpm
from repro.core.block import make_block
from repro.core.rpm import (
    RPM_ADDRESS,
    RPMContract,
    certificate_payload,
    decode_certificate,
    encode_certificate,
    policy_attestation_reward,
    policy_slash,
    report_payload,
    seed_genesis,
)
from repro.core.transaction import make_transfer
from repro.crypto import hash_items
from repro.crypto.keys import generate_keypair, verify
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.errors import VMError, VMRevert
from repro.vm.contracts.base import method
from repro.vm.state import WorldState

N, F = 4, 1
GAS = 2_000_000
DEPOSIT = 1_000_000
KEYS = [generate_keypair(4_300 + i) for i in range(N)]
OUTSIDER = generate_keypair(4_399)
CALLERS = [kp.address for kp in KEYS] + [OUTSIDER.address]


class ReferenceRPM(RPMContract):
    """``prop_received`` and ``report`` without any memo."""

    @method
    def prop_received(self, storage, info, cert, h_t_hex, tx_count, slot, round_):
        validators = tuple(storage.get(rpm.VALIDATORS, ()))
        if info.caller not in validators:
            raise VMRevert("only committee validators may attest")
        invoked_key = f"invoked:{info.caller}:{slot}:{round_}"
        if storage.get(invoked_key):
            return False
        storage.set(invoked_key, True)
        certificate = decode_certificate(tuple(cert))
        proposer = certificate.proposer_address()
        if proposer not in validators:
            return False
        h_t = bytes.fromhex(h_t_hex)
        if not verify(certificate.public_key, h_t, certificate.signed_tx_hash):
            return False
        count_key = "propcount:" + hash_items(
            [certificate.public_key.raw, h_t, tx_count, slot, round_]
        ).hex()
        count = int(storage.get(count_key, 0)) + 1
        storage.set(count_key, count)
        if count != self.n - self.f:
            return False
        reward = policy_attestation_reward(self.block_reward, self.validation_cost, tx_count)
        key = rpm.deposit_key(proposer)
        storage.set(key, int(storage.get(key, 0)) + reward)
        storage.set(count_key, 0)
        return True

    @method
    def report(self, storage, info, cert, block_number, invalid_tx_hash, h_t_hex,
               proof_index, proof_siblings):
        validators = tuple(storage.get(rpm.VALIDATORS, ()))
        if info.caller not in validators:
            raise VMRevert("only committee validators may report")
        certificate = decode_certificate(tuple(cert))
        proposer = certificate.proposer_address()
        h_t = bytes.fromhex(h_t_hex)
        if proposer not in validators:
            return False
        if not verify(certificate.public_key, h_t, certificate.signed_tx_hash):
            return False
        proof = MerkleProof(
            index=int(proof_index),
            siblings=tuple(bytes.fromhex(s) for s in proof_siblings),
        )
        if not MerkleTree.verify_proof(h_t, bytes.fromhex(invalid_tx_hash), proof):
            return False
        dedup_key = f"reported:{info.caller}:{proposer}:{block_number}:{invalid_tx_hash}"
        if storage.get(dedup_key):
            return False
        storage.set(dedup_key, True)
        count_key = "repcount:" + hash_items(
            [certificate.public_key.raw, block_number, invalid_tx_hash]
        ).hex()
        count = int(storage.get(count_key, 0)) + 1
        storage.set(count_key, count)
        if count != self.n - self.f:
            return False
        key = rpm.deposit_key(proposer)
        deposit = int(storage.get(key, 0))
        penalty, shares = policy_slash(deposit, validators, proposer)
        storage.set(key, deposit - penalty)
        for v, share in shares:
            key = rpm.deposit_key(v)
            storage.set(key, int(storage.get(key, 0)) + share)
        event = rpm.ByzantineEvent(proposer, block_number, invalid_tx_hash, penalty)
        storage.set(rpm.EVENTS, tuple(storage.get(rpm.EVENTS, ())) + (event,))
        excluded = {*storage.get(rpm.EXCLUDED, ()), proposer}
        storage.set(rpm.EXCLUDED, tuple(sorted(excluded)))
        return True


class Hex(str):
    """A ``str`` subclass that behaves like its value."""


class Liar(str):
    """A ``str`` subclass whose every value equals every other."""

    def __eq__(self, other):
        return True

    def __hash__(self):
        return 0


def _block(proposer, seed, count=3):
    sender = generate_keypair(seed)
    return make_block(proposer, 0, 1, [
        make_transfer(sender, "bb" * 20, 1, nonce=i) for i in range(count)
    ])


BLOCKS = [_block(KEYS[0], 1), _block(KEYS[1], 2), _block(KEYS[2], 3, count=5),
          _block(OUTSIDER, 4)]
ROOTS = [block.tx_root.hex() for block in BLOCKS]


def _forgeries(block):
    raw, binding, tag, vk = encode_certificate(block.certificate)
    other = encode_certificate(BLOCKS[1].certificate)
    return [
        (raw, binding, tag, vk),
        (raw, binding, ("00" if tag[:2] != "00" else "11") + tag[2:], vk),  # bad tag
        (raw, other[1], tag, vk),  # another seat's binding
        (other[0], binding, tag, vk),  # another seat's key, this signature
        (raw, binding, "zz" + tag[2:], vk),  # malformed hex
        (raw, binding, tag),  # wrong arity
        [raw, binding, tag, vk],  # a list
        (Hex(raw), binding, tag, vk),
        (Liar(raw), Liar(binding), Liar(tag), Liar(vk)),
        (raw, binding, tag, 7),
    ]


CERTS = [cert for block in BLOCKS for cert in _forgeries(block)]
SCALARS = [0, 1, 2, 3, True, False, 1.0, "1", b"1", None, [1], 10**30, -1]
H_TS = ROOTS + [ROOTS[0].upper(), "zz", Hex(ROOTS[1]), Liar(ROOTS[2]), 5, b"\x00"]


def _mostly(value, others):
    """``value`` or, about as often, any of ``others``."""
    return st.one_of(st.just(value), st.sampled_from(others))


#: one call's arguments, sent by each of several callers (n − f pay or slash)
callers = st.lists(st.sampled_from(CALLERS), min_size=1, max_size=N)


@st.composite
def prop_calls(draw):
    index = draw(st.integers(0, len(BLOCKS) - 1))
    block = BLOCKS[index]
    args = (
        draw(_mostly(encode_certificate(block.certificate), CERTS)),
        draw(_mostly(ROOTS[index], H_TS)),
        draw(_mostly(len(block), SCALARS)),
        draw(_mostly(index % 2, SCALARS)),
        draw(_mostly(1, [1, True, 1.0, 2])),
    )
    return "prop_received", draw(callers), args


@st.composite
def report_calls(draw):
    index = draw(st.integers(0, len(BLOCKS) - 1))
    block = BLOCKS[index]
    bad = block.transactions[draw(st.integers(0, len(block) - 1))]
    _, bad_hex, _, proof_index, siblings = report_payload(block, bad.tx_hash)
    args = (
        draw(_mostly(encode_certificate(block.certificate), CERTS)),
        draw(_mostly(1, [1, True, 1.0, "1"])),
        draw(_mostly(bad_hex, [Hex(bad_hex), "ab" * 32, "zz"])),
        draw(_mostly(ROOTS[index], H_TS)),
        draw(_mostly(proof_index, [True, "0", 99])),
        draw(_mostly(siblings, [list(siblings), ("zz",), ()])),
    )
    return "report", draw(callers), args


def _state():
    state = WorldState()
    state.get_or_create(RPM_ADDRESS)
    seed_genesis(state, tuple(kp.address for kp in KEYS), DEPOSIT)
    return state


def _outcome(contract, state, caller, function, args):
    snapshot = state.snapshot()
    try:
        result, gas = contract.call(state, RPM_ADDRESS, caller, function, args, 0, GAS)
    except VMError as exc:
        state.revert(snapshot)
        return type(exc), str(exc)
    state.commit()
    return type(result), repr(result), gas


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(prop_calls(), report_calls()), min_size=1, max_size=12))
def test_memoised_checks_answer_as_the_reference(calls):
    memoised = RPMContract(n=N, f=F, block_reward=100, validation_cost=0.001)
    reference = ReferenceRPM(n=N, f=F, block_reward=100, validation_cost=0.001)
    mine, theirs = _state(), _state()
    for function, senders, args in calls:
        for caller in senders:
            assert _outcome(memoised, mine, caller, function, args) == _outcome(
                reference, theirs, caller, function, args
            )
            assert mine._storage == theirs._storage


def test_every_replica_credits_and_slashes_as_the_reference():
    """n attesters × n replicas: the memo serves every replica after the
    first, and every replica's book is the reference book, through the
    n − f-th attestation of each block and the n − f-th report of one."""
    memoised = RPMContract(n=N, f=F, block_reward=100, validation_cost=0.001)
    reference = ReferenceRPM(n=N, f=F, block_reward=100, validation_cost=0.001)
    replicas, expected = [_state() for _ in range(N)], _state()
    calls = [
        # each attester builds its own, equal, arguments
        (attester.address, "prop_received", certificate_payload(block) + (slot, 1))
        for slot, block in enumerate(BLOCKS) for attester in KEYS
    ]
    bad = BLOCKS[1].transactions[2].tx_hash
    cert, bad_hex, h_t, index, siblings = report_payload(BLOCKS[1], bad)
    calls += [
        (reporter.address, "report", (cert, 1, bad_hex, h_t, index, siblings))
        for reporter in (KEYS[0], KEYS[2], KEYS[3])
    ]
    for caller, function, args in calls:
        outcome = _outcome(reference, expected, caller, function, args)
        for state in replicas:
            assert _outcome(memoised, state, caller, function, args) == outcome
    assert all(state._storage == expected._storage for state in replicas)
    assert rpm.read_deposit(expected, KEYS[0].address) > DEPOSIT
    assert rpm.read_excluded(expected) == (KEYS[1].address,)


def test_the_memo_size_is_a_constant():
    assert type(rpm.CHECK_MEMO_SIZE) is int and rpm.CHECK_MEMO_SIZE > 0
    for memo in (rpm._proposer, rpm._signs, rpm._count_key):
        assert memo.cached.cache_parameters() == {
            "maxsize": rpm.CHECK_MEMO_SIZE, "typed": False,
        }
