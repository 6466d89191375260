"""Wire-size accounting for consensus messages and vote batches.

Regression focus: ``ConsensusMessage.approx_size`` used to charge a flat
64-byte fallback for list/tuple payloads, so the RBC ECHO/READY traffic —
whose payload is a ``(digest, Block)`` tuple carrying the whole proposal —
was undercounted by orders of magnitude in the bandwidth evidence.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.messages import (
    BASE_MESSAGE_BYTES,
    ConsensusBatch,
    ConsensusMessage,
    MsgKind,
)


class _Sized:
    """Payload stub mimicking Block/Transaction's encoded_size()."""

    def __init__(self, size):
        self._size = size

    def encoded_size(self):
        return self._size


def _msg(kind=MsgKind.BVAL, value=1, sender=0, index=1, instance=0, round=1):
    return ConsensusMessage(
        kind=kind, index=index, instance=instance,
        round=round, value=value, sender=sender,
    )


class TestApproxSize:
    def test_int_payload(self):
        assert _msg(value=1).approx_size() == BASE_MESSAGE_BYTES + 1

    def test_none_payload(self):
        assert _msg(value=None).approx_size() == BASE_MESSAGE_BYTES

    def test_bytes_payload(self):
        digest = b"\x07" * 32
        assert _msg(value=digest).approx_size() == BASE_MESSAGE_BYTES + 32

    def test_encoded_size_object(self):
        block = _Sized(5_000)
        msg = _msg(kind=MsgKind.RBC_SEND, value=block)
        assert msg.approx_size() == BASE_MESSAGE_BYTES + 5_000

    def test_tuple_payload_sums_elements(self):
        """The RBC ECHO/READY shape: (digest, payload) must cost digest +
        payload, not the old flat 64-byte unknown-payload fallback."""
        digest, block = b"\x07" * 32, _Sized(5_000)
        msg = _msg(kind=MsgKind.RBC_ECHO, value=(digest, block))
        assert msg.approx_size() == BASE_MESSAGE_BYTES + 32 + 5_000

    def test_tuple_with_none_element(self):
        # READY relayed without the payload: (digest, None)
        msg = _msg(kind=MsgKind.RBC_READY, value=(b"\x07" * 32, None))
        assert msg.approx_size() == BASE_MESSAGE_BYTES + 32

    def test_nested_containers(self):
        msg = _msg(value=[(b"ab", b"cd"), b"ef"])
        assert msg.approx_size() == BASE_MESSAGE_BYTES + 6

    def test_unknown_payload_falls_back_to_envelope(self):
        assert _msg(value=object()).approx_size() == 2 * BASE_MESSAGE_BYTES


class TestConsensusBatch:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ConsensusBatch(messages=(), sender=0)

    def test_len_and_iter(self):
        msgs = tuple(_msg(value=v) for v in (0, 1, 1))
        batch = ConsensusBatch(messages=msgs, sender=2)
        assert len(batch) == 3
        assert tuple(batch) == msgs

    def test_size_is_header_plus_compact_records(self):
        msgs = tuple(_msg(value=1) for _ in range(4))
        batch = ConsensusBatch(messages=msgs, sender=0)
        expected = ConsensusBatch.HEADER_BYTES + 4 * (
            ConsensusBatch.PER_MESSAGE_BYTES + 1
        )
        assert batch.approx_size() == expected

    def test_batch_beats_standalone_for_vote_traffic(self):
        msgs = tuple(_msg(value=1, instance=i) for i in range(8))
        batch = ConsensusBatch(messages=msgs, sender=0)
        assert batch.approx_size() < batch.standalone_size()
        assert batch.bytes_saved() == (
            batch.standalone_size() - batch.approx_size()
        )

    def test_bytes_saved_never_negative(self):
        # One huge payload: the batch header could exceed the saving.
        msgs = (_msg(kind=MsgKind.RBC_ECHO, value=(b"\x07" * 32, _Sized(10))),)
        batch = ConsensusBatch(messages=msgs, sender=0)
        assert batch.bytes_saved() >= 0

    def test_wrapping_message_reports_batch_size(self):
        msgs = tuple(_msg(value=1) for _ in range(3))
        batch = ConsensusBatch(messages=msgs, sender=1)
        wire = _msg(kind=MsgKind.BATCH, value=batch, sender=1)
        # the batch IS the wire encoding — no extra envelope on top
        assert wire.approx_size() == batch.approx_size()

    def test_payload_bytes_carried_through(self):
        digest, block = b"\x07" * 32, _Sized(2_000)
        msgs = (
            _msg(kind=MsgKind.RBC_ECHO, value=(digest, block)),
            _msg(value=1),
        )
        batch = ConsensusBatch(messages=msgs, sender=0)
        expected = ConsensusBatch.HEADER_BYTES + (
            ConsensusBatch.PER_MESSAGE_BYTES + 32 + 2_000
        ) + (ConsensusBatch.PER_MESSAGE_BYTES + 1)
        assert batch.approx_size() == expected


_DIGESTS = st.binary(min_size=0, max_size=40)
#: anything a (possibly Byzantine) emitter might put in a vote's value
#: slot — everything except a nested batch, which no batch carries
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    _DIGESTS,
    st.builds(_Sized, st.integers(min_value=0, max_value=10_000)),
    st.builds(object),
    st.lists(st.one_of(st.none(), _DIGESTS, st.integers()), max_size=3),
)
_CONSTITUENTS = st.one_of(
    st.builds(
        _msg,
        kind=st.sampled_from((MsgKind.BVAL, MsgKind.AUX, MsgKind.COORD)),
        value=st.one_of(st.integers(min_value=0, max_value=1), _JUNK),
        instance=st.integers(min_value=-1, max_value=64),
        round=st.integers(min_value=0, max_value=9),
    ),
    st.builds(
        _msg,
        kind=st.sampled_from((MsgKind.RBC_ECHO, MsgKind.RBC_READY)),
        value=st.one_of(
            st.tuples(
                _DIGESTS,
                st.one_of(
                    st.none(),
                    st.builds(_Sized, st.integers(min_value=0, max_value=10_000)),
                ),
            ),
            _JUNK,
        ),
    ),
)


@settings(max_examples=300, deadline=None)
@given(messages=st.lists(_CONSTITUENTS, min_size=1, max_size=40))
def test_bytes_saved_is_standalone_minus_batched(messages):
    """The closed form equals the two walks it replaces, on mixed batches."""
    batch = ConsensusBatch(messages=tuple(messages), sender=0)
    assert batch.bytes_saved() == max(
        0, batch.standalone_size() - batch.approx_size()
    )
