"""The Reward-Penalty Mechanism (Algorithm 2) as a native contract.

``propReceived`` — validators attest each block of a decided superblock by
submitting the proposer's certificate ``Cert_B = {P_k, (h_t)_{S_k}}``;
once ``n − f`` distinct validators attest the same (proposer, tx-set,
superblock slot, round), the proposer's deposit is credited ``R = I − C``
with ``I = r_b`` and ``C = ⌊|T| · c⌋`` (deposits are integers).

``report`` — validators report an invalid transaction ``t ∈ T`` found in a
committed block; once ``n − f`` distinct validators file the same report
the proposer's **entire deposit** is slashed, redistributed equally among
the other committee members, and a Byzantine-validator event is emitted
(correct validators exclude the address from future communication).

The deposit rules are the pure functions :func:`policy_attestation_reward`
and :func:`policy_slash`: the contract applies them and the Theorem 1 model
(:mod:`repro.core.rewards`) is built from them.  The contract's storage is
the one deposit book, and only this module knows its layout: genesis seeds
it with :func:`seed_genesis`, everything else reads it with ``read_*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Any, Callable

from repro import params
from repro.core.block import Block, BlockCertificate
from repro.crypto.hashing import hash_items
from repro.crypto.keys import PublicKey, Signature, verify
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.errors import VMRevert
from repro.vm.contracts.base import CallInfo, MeteredState, NativeContract, method
from repro.vm.executor import native_address_for
from repro.vm.state import WorldState

# -- storage layout: the deposit book ------------------------------------------------
VALIDATORS = "validators"  # committee addresses, in join order
EXCLUDED = "excluded"  # slashed addresses, sorted (Alg. 2 line 42 listeners)
EVENTS = "events"  # ByzantineEvent records, in slash order


def deposit_key(address: str) -> str:
    return f"deposit:{address}"


def _seat(put: Callable[[str, Any], None], validators: tuple, joined, deposit: int):
    """Write the committee ``validators`` and ``deposit`` for each of
    ``joined``: the one write of a seat, at genesis and in ``join``."""
    put(VALIDATORS, validators)
    for address in joined:
        put(deposit_key(address), deposit)


def seed_genesis(state: WorldState, validators: tuple, deposit: int) -> None:
    """Pre-seed the committee: every validator joined at genesis."""
    validators = tuple(validators)
    _seat(partial(state.storage_set, RPM_ADDRESS), validators, validators, deposit)


def read_deposit(state: WorldState, address: str) -> int:
    return int(state.storage_get(RPM_ADDRESS, deposit_key(address), 0))


def read_excluded(state: WorldState) -> tuple:
    return tuple(state.storage_get(RPM_ADDRESS, EXCLUDED, ()))


def read_events(state: WorldState) -> tuple:
    return tuple(state.storage_get(RPM_ADDRESS, EVENTS, ()))


# -- economics: Alg. 2's deposit rules as pure functions ------------------------------


def policy_attestation_reward(block_reward: int, cost: Fraction, tx_count: int) -> int:
    """Alg. 2 lines 23-27: ``R = r_b − ⌊|T|·c⌋``, the credit to the
    proposer's deposit once ``n − f`` validators attest its block."""
    return block_reward - int(tx_count * cost)


def policy_slash(
    deposit: int, validators: tuple, offender: str
) -> "tuple[int, list[tuple[str, int]]]":
    """Alg. 2 lines 38-41: ``(penalty, shares)``.  The offender's whole
    deposit is the penalty, split equally among the other validators in
    committee order; the first ``penalty mod (n − 1)`` get one token more."""
    others = [v for v in validators if v != offender]
    if not others or deposit <= 0:
        return deposit, []
    share, remainder = divmod(deposit, len(others))
    return deposit, [(v, share + (i < remainder)) for i, v in enumerate(others)]


def encode_certificate(cert: BlockCertificate) -> tuple[str, str, str, str]:
    """Flatten ``Cert_B`` for transport inside a transaction payload."""
    return (
        cert.public_key.raw.hex(),
        cert.public_key.binding.hex(),
        cert.signed_tx_hash.tag.hex(),
        cert.signed_tx_hash.vk.hex(),
    )


def decode_certificate(enc: tuple[str, str, str, str]) -> BlockCertificate:
    pub_raw, binding, tag, vk = enc
    return BlockCertificate(
        public_key=PublicKey(raw=bytes.fromhex(pub_raw), binding=bytes.fromhex(binding)),
        signed_tx_hash=Signature(tag=bytes.fromhex(tag), vk=bytes.fromhex(vk)),
    )


#: entries per check memo (DESIGN.md rule 8: geo_flood_n16 checks 61 certificates n² times)
CHECK_MEMO_SIZE = 1024
_EXACT = frozenset({str, int, bytes})  # hash_items tags 1, True and 1.0 apart


def _memoised(fn: Callable) -> Callable:
    """``fn`` behind an ``lru_cache`` of its whole arguments (no exception is
    kept) that only exact ``str``/``int``/``bytes`` arguments reach."""
    cached = lru_cache(maxsize=CHECK_MEMO_SIZE)(fn)

    def call(*args):
        return cached(*args) if _EXACT.issuperset(map(type, args)) else fn(*args)

    call.cached = cached
    return call


@_memoised
def _proposer(*cert: str) -> tuple[str, bytes]:
    """``derive(P_k)`` and ``P_k``'s raw bytes of an encoded ``Cert_B``."""
    public_key = decode_certificate(cert).public_key
    return public_key.address, public_key.raw


@_memoised
def _signs(h_t: bytes, *cert: str) -> bool:
    """Whether an encoded ``Cert_B`` signs ``h_t``."""
    certificate = decode_certificate(cert)
    return verify(certificate.public_key, h_t, certificate.signed_tx_hash)


@_memoised
def _count_key(prefix: str, *items: Any) -> str:
    return prefix + hash_items(items).hex()


@dataclass(frozen=True)
class ByzantineEvent:
    """Event emitted when a proposer is slashed (Alg. 2 line 42)."""

    address: str
    block_number: int
    tx_hash_hex: str
    penalty: int


class RPMContract(NativeContract):
    """Alg. 2, parameterized by committee size and reward constants."""

    name = "rpm"

    def __init__(
        self,
        *,
        n: int,
        f: int,
        block_reward: int = params.BLOCK_REWARD,
        validation_cost: float = params.EAGER_VALIDATION_COST,
    ):
        self.n = n
        self.f = f
        self.block_reward = block_reward
        # Exact c, so |T|·c rounds once (deposits are integers).
        self.validation_cost = Fraction(validation_cost).limit_denominator(10**9)

    # -- committee management ----------------------------------------------------

    @method
    def join(self, storage: MeteredState, info: CallInfo, deposit: int) -> int:
        """Register the caller as a committee validator with a deposit."""
        if deposit <= 0:
            raise VMRevert("deposit must be positive")
        if info.value < deposit:
            raise VMRevert("call value does not cover the deposit")
        validators = tuple(storage.get(VALIDATORS, ()))
        if info.caller in validators:
            raise VMRevert(f"{info.caller} already a validator")
        _seat(storage.set, validators + (info.caller,), (info.caller,), deposit)
        return deposit

    @method
    def deposit_of(self, storage: MeteredState, info: CallInfo, address: str) -> int:
        return int(storage.get(deposit_key(address), 0))

    @method
    def validators(self, storage: MeteredState, info: CallInfo) -> tuple:
        return tuple(storage.get(VALIDATORS, ()))

    @method
    def excluded(self, storage: MeteredState, info: CallInfo) -> tuple:
        return tuple(storage.get(EXCLUDED, ()))

    @method
    def events(self, storage: MeteredState, info: CallInfo) -> tuple:
        return tuple(storage.get(EVENTS, ()))

    # -- Alg. 2 propReceived --------------------------------------------------------

    @method
    def prop_received(
        self,
        storage: MeteredState,
        info: CallInfo,
        cert: tuple,
        h_t_hex: str,
        tx_count: int,
        slot: int,
        round_: int,
    ) -> bool:
        """Attest one block of a decided superblock (Alg. 2 lines 10-28).

        ``cert`` is an encoded :class:`BlockCertificate`; ``h_t_hex`` the
        block's Merkle root (Alg. 2 ships ``T``; the root keeps attestations
        O(1), bound to ``T`` by the certificate's signature over ``h_t``);
        ``slot`` is the index *i* in the superblock, ``round_`` the round
        *r*.  True when this attestation crossed n−f and paid the reward.
        """
        validators = tuple(storage.get(VALIDATORS, ()))
        if info.caller not in validators:
            raise VMRevert("only committee validators may attest")
        # line 11: one invocation per (caller, i, round)
        invoked_key = f"invoked:{info.caller}:{slot}:{round_}"
        if storage.get(invoked_key):
            return False
        storage.set(invoked_key, True)

        cert = tuple(cert)
        proposer, public_raw = _proposer(*cert)  # line 15: derive(P_k)
        if proposer not in validators:  # line 16: invalid Cert_B
            return False
        # lines 19-20: the signature over h_t replaces hash(T) == h_t
        h_t = bytes.fromhex(h_t_hex)
        if not _signs(h_t, *cert):
            return False

        # line 21: increment count for hash(P_k, T, i, r); tx_count is part
        # of the key, so n−f validators vouch for the same |T|.
        count_key = _count_key("propcount:", public_raw, h_t, tx_count, slot, round_)
        count = int(storage.get(count_key, 0)) + 1
        storage.set(count_key, count)
        if count != self.n - self.f:  # line 22 threshold (== so pays once)
            return False

        # lines 23-27: R = I − C credited to the proposer's deposit
        reward = policy_attestation_reward(
            self.block_reward, self.validation_cost, tx_count
        )
        key = deposit_key(proposer)
        storage.set(key, int(storage.get(key, 0)) + reward)
        storage.set(count_key, 0)  # line 28: reset count
        return True

    # -- Alg. 2 report ------------------------------------------------------------------

    @method
    def report(
        self,
        storage: MeteredState,
        info: CallInfo,
        cert: tuple,
        block_number: int,
        invalid_tx_hash: str,
        h_t_hex: str,
        proof_index: int,
        proof_siblings: tuple,
    ) -> bool:
        """Report an invalid transaction in a committed block (lines 29-42).

        The ``t ∈ T`` check of Alg. 2 line 32 is a Merkle inclusion proof
        of ``invalid_tx_hash`` under the certified root ``h_t`` (O(log |T|)
        instead of shipping ``T``).  Returns True when this report crossed
        the n−f threshold and slashed the proposer.
        """
        validators = tuple(storage.get(VALIDATORS, ()))
        if info.caller not in validators:
            raise VMRevert("only committee validators may report")
        cert = tuple(cert)
        proposer, public_raw = _proposer(*cert)
        h_t = bytes.fromhex(h_t_hex)
        # line 32: invalid Cert_B or false report → exit
        if proposer not in validators or not _signs(h_t, *cert):
            return False
        proof = MerkleProof(
            index=int(proof_index),
            siblings=tuple(bytes.fromhex(s) for s in proof_siblings),
        )
        if not MerkleTree.verify_proof(h_t, bytes.fromhex(invalid_tx_hash), proof):
            return False  # t ∉ T: false report
        # one report per (caller, proposer, block, tx)
        dedup_key = f"reported:{info.caller}:{proposer}:{block_number}:{invalid_tx_hash}"
        if storage.get(dedup_key):
            return False
        storage.set(dedup_key, True)

        # line 36: count identical reports
        count_key = _count_key("repcount:", public_raw, block_number, invalid_tx_hash)
        count = int(storage.get(count_key, 0)) + 1
        storage.set(count_key, count)
        if count != self.n - self.f:  # line 37 threshold
            return False

        # lines 38-41: slash the full deposit, redistribute equally
        key = deposit_key(proposer)
        deposit = int(storage.get(key, 0))
        penalty, shares = policy_slash(deposit, validators, proposer)
        storage.set(key, deposit - penalty)
        for v, share in shares:
            key = deposit_key(v)
            storage.set(key, int(storage.get(key, 0)) + share)
        # line 42: emit the Byzantine-validator event
        event = ByzantineEvent(proposer, block_number, invalid_tx_hash, penalty)
        storage.set(EVENTS, tuple(storage.get(EVENTS, ())) + (event,))
        excluded = {*storage.get(EXCLUDED, ()), proposer}
        storage.set(EXCLUDED, tuple(sorted(excluded)))
        return True


#: Well-known address of the RPM contract on every replica.
RPM_ADDRESS = native_address_for(RPMContract.name)


def certificate_payload(block: Block) -> tuple[tuple, str, int]:
    """(encoded cert, h_t hex, |T|) for ``prop_received`` on ``block``."""
    if block.certificate is None:
        raise ValueError("block has no certificate")
    return (
        encode_certificate(block.certificate),
        block.tx_root.hex(),
        len(block.transactions),
    )


def report_payload(block: Block, bad_tx_hash: bytes) -> tuple:
    """Arguments for ``report``: cert, h_t, and the Merkle inclusion proof
    of ``bad_tx_hash`` inside the block."""
    if block.certificate is None:
        raise ValueError("block has no certificate")
    leaves = [tx.tx_hash for tx in block.transactions]
    if bad_tx_hash not in leaves:
        raise ValueError("transaction not in block")
    tree = block._tree  # every node reports against this same decided block
    if tree is None:
        tree = block.__dict__["_tree"] = MerkleTree(leaves)
    proof = tree.proof(leaves.index(bad_tx_hash))
    return (
        encode_certificate(block.certificate),
        bad_tx_hash.hex(),
        tree.root.hex(),
        proof.index,
        tuple(s.hex() for s in proof.siblings),
    )
