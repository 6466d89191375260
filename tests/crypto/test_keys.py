"""Signature scheme tests: sign/verify/forge-resistance/address recovery."""

import hashlib
import hmac

import pytest
from hypothesis import given, strategies as st

from repro.crypto import keys
from repro.crypto.hashing import sha256
from repro.crypto.keys import (
    PrivateKey,
    PublicKey,
    Signature,
    derive_address,
    generate_keypair,
    recover_check,
    sign,
    verify,
)


class TestKeyGeneration:
    def test_deterministic_from_int_seed(self):
        assert generate_keypair(7) == generate_keypair(7)

    def test_different_seeds_differ(self):
        assert generate_keypair(1) != generate_keypair(2)

    def test_bytes_seed(self):
        kp = generate_keypair(b"alice")
        assert kp == generate_keypair(b"alice")
        assert kp != generate_keypair(b"bob")

    def test_random_keys_are_unique(self):
        assert generate_keypair() != generate_keypair()

    def test_private_key_must_be_32_bytes(self):
        with pytest.raises(ValueError):
            PrivateKey(b"short")

    def test_address_is_40_hex_chars(self):
        kp = generate_keypair(3)
        assert len(kp.address) == 40
        int(kp.address, 16)  # parses as hex


class TestSignVerify:
    def test_roundtrip(self):
        kp = generate_keypair(10)
        sig = sign(kp.private, b"hello")
        assert verify(kp.public, b"hello", sig)

    def test_wrong_message_fails(self):
        kp = generate_keypair(10)
        sig = sign(kp.private, b"hello")
        assert not verify(kp.public, b"goodbye", sig)

    def test_wrong_key_fails(self):
        kp1, kp2 = generate_keypair(10), generate_keypair(11)
        sig = sign(kp1.private, b"hello")
        assert not verify(kp2.public, b"hello", sig)

    def test_signature_is_deterministic(self):
        kp = generate_keypair(10)
        assert sign(kp.private, b"m") == sign(kp.private, b"m")

    def test_tampered_tag_fails(self):
        kp = generate_keypair(10)
        sig = sign(kp.private, b"m")
        bad = Signature(tag=bytes(32), vk=sig.vk)
        assert not verify(kp.public, b"m", bad)

    def test_transplanted_vk_fails(self):
        """A signature built with another key's vk must not verify: the
        binding in the public key pins the verification key."""
        kp1, kp2 = generate_keypair(20), generate_keypair(21)
        sig2 = sign(kp2.private, b"m")
        # Forge attempt: valid HMAC under kp2's vk presented against kp1.
        assert not verify(kp1.public, b"m", sig2)

    @given(st.binary(min_size=0, max_size=256))
    def test_roundtrip_arbitrary_messages(self, message):
        kp = generate_keypair(99)
        assert verify(kp.public, message, sign(kp.private, message))


class TestAddressRecovery:
    def test_recover_check_accepts_matching(self):
        kp = generate_keypair(30)
        sig = sign(kp.private, b"tx")
        assert recover_check(kp.public, b"tx", sig, kp.address)

    def test_recover_check_rejects_wrong_address(self):
        kp, other = generate_keypair(30), generate_keypair(31)
        sig = sign(kp.private, b"tx")
        assert not recover_check(kp.public, b"tx", sig, other.address)

    def test_derive_address_stable(self):
        kp = generate_keypair(32)
        assert derive_address(kp.public) == derive_address(kp.public)


class TestDerivedOnce:
    """Key material is derived once per key object; ``sign`` computes the
    tag from the key's two keyed SHA-256 states and ``verify`` with the
    one-shot ``hmac.digest``, each exactly as an ``hmac.new`` object."""

    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=256))
    def test_sign_and_verify_equal_the_hmac_object_construction(self, raw, message):
        private = PrivateKey(raw)
        vk = sha256(b"link|" + raw)
        public = PublicKey(sha256(b"pub|" + raw), sha256(b"bind|" + vk))
        tag = hmac.new(vk, message, hashlib.sha256).digest()
        sig = sign(private, message)
        assert (sig.tag, sig.vk) == (tag, vk)
        assert verify(public, message, sig)
        forged = Signature(hmac.new(vk, message + b"!", hashlib.sha256).digest(), vk)
        assert not verify(public, message, forged)

    @given(st.integers(min_value=-(2**100), max_value=2**100))
    def test_cached_material_equals_fresh_derivation(self, seed):
        kp = generate_keypair(seed)
        fresh = PublicKey(kp.public.raw, kp.public.binding)
        assert kp.address == kp.public.address == derive_address(fresh)
        assert kp.private.verification_key == sha256(b"link|" + kp.private.raw)
        assert kp.address is kp.public.address  # one string per key pair
        assert sign(kp.private, b"m").vk is kp.private.verification_key

    def test_cached_material_leaves_equality_and_hash_alone(self):
        kp = generate_keypair(5)
        kp.address, kp.private.verification_key  # fill the caches
        twin = generate_keypair(5)
        assert kp == twin and hash(kp) == hash(twin)
        assert kp.public == PublicKey(kp.public.raw, kp.public.binding)

    def test_building_transfers_derives_each_address_once(self, monkeypatch):
        from repro.core.transaction import make_transfer

        calls = []
        derive = keys.derive_address
        monkeypatch.setattr(
            keys, "derive_address", lambda public: calls.append(public) or derive(public)
        )
        pairs = [generate_keypair(seed) for seed in range(4)]
        txs = [
            make_transfer(pairs[k % 4], pairs[(k + 1) % 4].address, 1, nonce=k // 4)
            for k in range(400)
        ]
        assert {tx.sender for tx in txs} == {kp.address for kp in pairs}
        assert len(calls) <= 2 * len(pairs)  # 2 per transfer before

    def test_signature_is_slotted_and_frozen(self):
        sig = sign(generate_keypair(6).private, b"m")
        assert not hasattr(sig, "__dict__")
        with pytest.raises(AttributeError):
            sig.tag = bytes(32)


# -- the keyed-state HMAC against the one-shot construction --------------------


#: messages from empty to over two SHA-256 blocks
MESSAGES = st.binary(max_size=200)


class TestKeyedStateHmac:
    """The signer's HMAC from kept keyed states equals ``hmac.new``, and a
    tag it makes checks under the one-shot ``verify``."""

    @given(st.one_of(st.binary(min_size=32, max_size=32), st.binary(max_size=64)), MESSAGES)
    def test_kernel_equals_hmac_new(self, key, message):
        """The 32-byte verification keys, and every length up to one block."""
        expected = hmac.new(key, message, hashlib.sha256).digest()
        assert keys._hmac(keys._keyed_states(key), message) == expected

    @given(st.binary(min_size=32, max_size=32), MESSAGES, MESSAGES)
    def test_sign_equals_hmac_new(self, raw, message, other):
        private = PrivateKey(raw)
        vk = sha256(b"link|" + raw)
        for m in (message, other, message):  # the kept states are copied, never advanced
            assert sign(private, m).tag == hmac.new(vk, m, hashlib.sha256).digest()

    @given(st.integers(0, 2**32), st.integers(0, 2**32), MESSAGES)
    def test_tags_verify_under_their_own_key_only(self, a, b, message):
        kp, other = generate_keypair(a), generate_keypair(b)
        assert verify(kp.public, message, sign(kp.private, message))
        assert not verify(kp.public, message + b"!", sign(kp.private, message))
        assert verify(kp.public, message, sign(other.private, message)) == (a == b)
