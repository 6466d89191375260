"""Executor fuzzing: arbitrary transaction fields must never escape the
error taxonomy.

The paper's validity argument leans on "invalid transactions throw an
error without transitioning state"; for that to be trustworthy the
executor must be total — whatever integers a transaction's fields carry,
it returns a receipt, and a failed one leaves the journaled state at its
pre-transaction root.
"""

from hypothesis import given, settings, strategies as st

from repro.core.transaction import Transaction, TxType
from repro.core.validation import FIELD_RANGE
from repro.crypto.keys import generate_keypair
from repro.vm.executor import Executor, install_native, native_address_for
from repro.vm.state import WorldState
from tests.core.test_transaction import signed_by


# -- every integer field of a transaction, through the executor -------------------

SENDER = generate_keypair(4401)
EXCHANGE = native_address_for("exchange")
#: the whole fuzzed range, plus a realistic band so that draws also get
#: past the range check to the balance tests and the state transition
FIELD = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=0, max_value=50_000),
)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(list(TxType)),
    amount=FIELD,
    nonce=FIELD,
    gas_limit=FIELD,
    gas_price=FIELD,
    padding=FIELD,
)
def test_executor_never_raises_on_any_integer_field(
    kind, amount, nonce, gas_limit, gas_price, padding
):
    """A signed transaction with any integer in any field executes to a
    receipt; a failed one leaves the state root where it was."""
    state = WorldState()
    state.create_account(SENDER.address, 10**6)
    install_native(state, "exchange")
    state.commit()
    root = state.state_root()
    payload = {
        TxType.TRANSFER: {},
        TxType.INVOKE: {
            "contract": EXCHANGE, "function": "trade", "args": ("GOOG", 1, 1, "buy"),
        },
    }[kind]
    tx = signed_by(Transaction(
        tx_type=kind,
        sender=SENDER.address,
        receiver=EXCHANGE if kind is TxType.INVOKE else "ab" * 20,
        amount=amount,
        nonce=nonce,
        gas_limit=gas_limit,
        gas_price=gas_price,
        payload=payload,
        padding=padding,
    ), SENDER)
    receipt = Executor(state).execute(tx, coinbase="cb" * 20)
    state.commit()
    if not tx.fields_ok:
        assert receipt.error == FIELD_RANGE
    if not receipt.success:
        assert state.state_root() == root
