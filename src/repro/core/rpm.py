"""The Reward-Penalty Mechanism (Algorithm 2) as a native contract.

``propReceived`` — validators attest each block of a decided superblock by
submitting the proposer's certificate ``Cert_B = {P_k, (h_t)_{S_k}}``;
once ``n − f`` distinct validators attest the same (proposer, tx-set,
superblock slot, round), the proposer's deposit is credited the reward
``R = I − C`` with ``I = r_b`` and ``C = |T| · c``.

``report`` — validators report an invalid transaction ``t ∈ T`` found in a
committed block; once ``n − f`` distinct validators file the same report
the proposer's **entire deposit** is slashed, redistributed equally among
the other committee members, and a Byzantine-validator event is emitted
(correct validators exclude the address from future communication).

The contract is deliberately state-machine pure: it can be driven through
consensus (as INVOKE transactions executed on every replica) or directly by
the simulator — both paths produce identical storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro import params
from repro.core.block import Block, BlockCertificate
from repro.crypto.hashing import hash_items
from repro.crypto.keys import PublicKey, Signature, derive_address, verify
from repro.errors import VMRevert
from repro.vm.contracts.base import CallInfo, MeteredState, NativeContract, method


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
        # Fraction keeps reward arithmetic exact (deposits are integers;
        # fractional remainders accumulate in a rounding bucket).
        self.validation_cost = Fraction(validation_cost).limit_denominator(10**9)

    # -- committee management ----------------------------------------------------

    @method
    def join(self, storage: MeteredState, info: CallInfo, deposit: int) -> int:
        """Register the caller as a committee validator with a deposit."""
        if deposit <= 0:
            raise VMRevert("deposit must be positive")
        if info.value < deposit:
            raise VMRevert("call value does not cover the deposit")
        validators = list(storage.get("validators", ()))
        if info.caller in validators:
            raise VMRevert(f"{info.caller} already a validator")
        validators.append(info.caller)
        storage.set("validators", tuple(validators))
        storage.set(f"deposit:{info.caller}", deposit)
        return deposit

    @method
    def deposit_of(self, storage: MeteredState, info: CallInfo, address: str) -> int:
        return int(storage.get(f"deposit:{address}", 0))

    @method
    def validators(self, storage: MeteredState, info: CallInfo) -> tuple:
        return tuple(storage.get("validators", ()))

    @method
    def excluded(self, storage: MeteredState, info: CallInfo) -> tuple:
        return tuple(storage.get("excluded", ()))

    @method
    def events(self, storage: MeteredState, info: CallInfo) -> tuple:
        return tuple(storage.get("events", ()))

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
        Merkle root of the block's transactions (Alg. 2 transmits the full
        set ``T`` and recomputes the hash — sending the root instead keeps
        attestations O(1) in block size, with the binding to ``T``
        enforced by the certificate's signature over ``h_t``); ``slot`` is
        the block's index *i* in the superblock and ``round_`` the round
        *r*.  Returns True when this attestation crossed the n−f threshold
        and credited the reward ``R = r_b − |T|·c``.
        """
        validators = tuple(storage.get("validators", ()))
        if info.caller not in validators:
            raise VMRevert("only committee validators may attest")
        # line 11: one invocation per (caller, i, round)
        invoked_key = f"invoked:{info.caller}:{slot}:{round_}"
        if storage.get(invoked_key):
            return False
        storage.set(invoked_key, True)

        certificate = decode_certificate(tuple(cert))
        proposer = certificate.proposer_address()  # line 15: derive(P_k)
        if proposer not in validators:  # line 16: invalid Cert_B
            return False
        # lines 19-20: the signature over h_t replaces hash(T) == h_t
        h_t = bytes.fromhex(h_t_hex)
        if not verify(certificate.public_key, h_t, certificate.signed_tx_hash):
            return False

        # line 21: increment count for hash(P_k, T, i, r); tx_count is part
        # of the key, so n−f validators vouch for the same |T|.
        count_key = "propcount:" + hash_items(
            [certificate.public_key.raw, h_t, tx_count, slot, round_]
        ).hex()
        count = int(storage.get(count_key, 0)) + 1
        storage.set(count_key, count)
        if count != self.n - self.f:  # line 22 threshold (== so pays once)
            return False

        # lines 23-27: R = I − C credited to the proposer's deposit
        incentive = self.block_reward
        cost_frac = tx_count * self.validation_cost
        reward = incentive - int(cost_frac)  # integer token ledger
        deposit = int(storage.get(f"deposit:{proposer}", 0))
        storage.set(f"deposit:{proposer}", deposit + reward)
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
        validators = tuple(storage.get("validators", ()))
        if info.caller not in validators:
            raise VMRevert("only committee validators may report")
        certificate = decode_certificate(tuple(cert))
        proposer = certificate.proposer_address()
        h_t = bytes.fromhex(h_t_hex)
        # line 32: invalid Cert_B or false report → exit
        if proposer not in validators:
            return False
        if not verify(certificate.public_key, h_t, certificate.signed_tx_hash):
            return False
        from repro.crypto.merkle import MerkleProof, MerkleTree

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
        count_key = "repcount:" + hash_items(
            [certificate.public_key.raw, block_number, invalid_tx_hash]
        ).hex()
        count = int(storage.get(count_key, 0)) + 1
        storage.set(count_key, count)
        if count != self.n - self.f:  # line 37 threshold
            return False

        # lines 38-41: slash the full deposit, redistribute equally
        penalty = int(storage.get(f"deposit:{proposer}", 0))
        storage.set(f"deposit:{proposer}", 0)
        others = [v for v in validators if v != proposer]
        if others and penalty > 0:
            share, remainder = divmod(penalty, len(others))
            for i, v in enumerate(others):
                bonus = share + (1 if i < remainder else 0)
                storage.set(f"deposit:{v}", int(storage.get(f"deposit:{v}", 0)) + bonus)
        # line 42: emit the Byzantine-validator event
        events = list(storage.get("events", ()))
        events.append(
            ByzantineEvent(
                address=proposer,
                block_number=block_number,
                tx_hash_hex=invalid_tx_hash,
                penalty=penalty,
            )
        )
        storage.set("events", tuple(events))
        excluded = set(storage.get("excluded", ()))
        excluded.add(proposer)
        storage.set("excluded", tuple(sorted(excluded)))
        return True


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
    from repro.crypto.merkle import MerkleTree

    if block.certificate is None:
        raise ValueError("block has no certificate")
    leaves = [tx.tx_hash for tx in block.transactions]
    try:
        index = leaves.index(bad_tx_hash)
    except ValueError:
        raise ValueError("transaction not in block") from None
    tree = MerkleTree(leaves)
    proof = tree.proof(index)
    return (
        encode_certificate(block.certificate),
        bad_tx_hash.hex(),
        tree.root.hex(),
        proof.index,
        tuple(s.hex() for s in proof.siblings),
    )
