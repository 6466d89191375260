"""hash_items: canonical encoding properties."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.hashing import hash_items, sha256, sha256_hex


def test_sha256_known_vector():
    assert (
        sha256_hex(b"")
        == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_sha256_length():
    assert len(sha256(b"x")) == 32


def test_hash_items_length_prefixing():
    assert hash_items(["ab", "c"]) != hash_items(["a", "bc"])


def test_hash_items_type_distinction():
    assert hash_items([1]) != hash_items(["1"])
    assert hash_items([True]) != hash_items([1])
    assert hash_items([None]) != hash_items([b""])


def test_hash_items_order_sensitive():
    assert hash_items([1, 2]) != hash_items([2, 1])


def test_hash_items_rejects_unknown_types():
    with pytest.raises(TypeError):
        hash_items([object()])


def test_hash_items_floats():
    assert hash_items([1.5]) == hash_items([1.5])
    assert hash_items([1.5]) != hash_items([1.6])


@given(st.lists(st.one_of(st.integers(), st.text(), st.binary()), max_size=10))
def test_hash_items_deterministic(items):
    assert hash_items(items) == hash_items(items)


class _IntSubclass(int):
    pass


class _StrSubclass(str):
    pass


#: digests recorded before ``hash_items`` got its exact-type fast path;
#: they are the encoding, so they may never change
GOLDEN_DIGESTS = [
    ([], "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ([b""], "899b80c8dc11d5c2a65d67a4c3b6f3bebd2a1e990a9f79ac3d3c380533bb7c08"),
    ([""], "76ca65fa532efea2d73e4cb2775f96cfb650d5c8c9dbb78594a01f4cf8bb3bfe"),
    ([None], "fd87400839d77a6884dc3b634ce294ad3062dfa1882550c2afd39554c8482595"),
    ([True], "b7a288d3cf66536b867c9ce27d05605797ab4f0470b04ba31500ae807094ac89"),
    ([False], "f966aad202256e33732e104e6f1de2f2146c1d26e106a58913f4d22cc2f02b9f"),
    ([1], "fa893b7b6d70835eaa997043b8616a3e74a94d3bbd1b9a67ba45df31d5df71fe"),
    ([0], "176f918dfe090b75ce86691ec554f8512afcfa10b021ea4e283d4a09a696d897"),
    ([-7], "efce324ccfeb16bbca6b1e6a1d59895b83c36c66f800b5ca2cff1a518889b476"),
    ([2**70], "f4a44c7cd7d536318fa3f1f7bbec18b05bcb7bd455804c2188801376af1ebfc2"),
    ([1.5], "6c65e64250acf767b8e7968e40ee61017ae94e805fa727d6030b4e6439266d35"),
    ([b"\x00\xff"], "fbc3f7aff29fa2899d772c7405432058630ff59650d4eeeda67e2b6192f4201a"),
    (["é"], "d15247d4f166259347402a0e99eae065029f2e3cfc4f43de5bf4682335278146"),
    (["ab", "c"], "16cfe7ba6140ff84325c74b24c7336b2d503a0500e553d6c6ebe75d5eb873544"),
    (["a", "bc"], "68b4237dd807c5a1cbe5a1ff9b75429f8d0fec41dcca164341ab33785ce4b0b4"),
    ([b"ab", b"c"], "eb370e3b9dee7a9d2a66db9117b0f5162a1dd5173ca1351d6c04891bfe546b27"),
    (
        [1, "1", b"1", True, None, 1.0],
        "1656a18e628211386320a0debc94e895cab42ea386fad331c84757fd05c1697c",
    ),
    # either side of the precomputed-header length limit
    (["x" * 255], "1fbc3e81ae6096da071bc4c1f654c66c335f5573d9068b698a09d92452758a20"),
    (["x" * 256], "c7e902dd630fc9e389964b26368f99b6ccafb0dea3c04f008aa3df9280be25cf"),
    ([b"y" * 300], "d9aeedff6b2fa4ed523a70c1e8f9317c9632884e97aafa6b0a7007465af741ce"),
    ([10**300], "a69be3d01c5cb88118485de4ca83b2fb43062a9b28f90c91d3858cf3207f01a4"),
]


@pytest.mark.parametrize("items, digest", GOLDEN_DIGESTS)
def test_hash_items_golden_digests(items, digest):
    assert hash_items(items).hex() == digest
    assert hash_items(iter(items)).hex() == digest  # any iterable


def test_hash_items_subclasses_encode_like_their_base():
    assert hash_items([_IntSubclass(1)]) == hash_items([1])
    assert hash_items([_StrSubclass("ab")]) == hash_items(["ab"])
    assert hash_items([_IntSubclass(1)]) != hash_items([True])


@pytest.mark.parametrize("count, digest", [
    (1024, "3837c16f17e450b40e2b6717212ee1eeb8fde8eb71ece8118fa015c6f927d6fa"),
    (1025, "5ad79b15c662c340bc25199d0bf2eb97a9e920032cedfdb6e9949e997b58808c"),
    (3004, "26e661135cdf4e1bafc90f1bedd85e63b1fad8a3265799232d9e419e3e588733"),
])
def test_hash_items_golden_long_sequences(count, digest):
    """Long sequences (state roots) are fed to the hash in bounded chunks;
    either side of a chunk boundary the digest is the recorded one."""
    items = [i if i % 3 else str(i) for i in range(3000)] + [b"z" * 10, None, 2.5, True]
    assert hash_items(items[:count]).hex() == digest
    assert hash_items(iter(items[:count])).hex() == digest
