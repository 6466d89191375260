"""VM fuzzing: arbitrary bytecode and arbitrary transaction fields must
never escape the error taxonomy.

The paper's validity argument leans on "invalid transactions throw an
error without transitioning state"; for that to be trustworthy the
interpreter must be total — any byte string either halts cleanly or
raises a VMError subclass, and on a raise the journaled state reverts to
its pre-call root — and so must the executor, whatever integers a
transaction's fields carry.
"""

from hypothesis import given, settings, strategies as st

from repro.core.transaction import Transaction, TxType
from repro.core.validation import FIELD_RANGE
from repro.crypto.keys import generate_keypair
from repro.errors import VMError
from repro.vm.executor import Executor, install_native, native_address_for
from repro.vm.opcodes import Op, assemble
from repro.vm.state import WorldState
from repro.vm.svm import SVM, CallContext
from tests.core.test_transaction import signed_by

ADDRESS = "c" * 40


def run_code(code: bytes, gas: int = 20_000):
    state = WorldState()
    state.create_account(ADDRESS, 1_000, code=code)
    state.commit()
    root = state.state_root()
    svm = SVM(state)
    ctx = CallContext(address=ADDRESS, caller="a" * 40, value=3, calldata=(1, 2, 3))
    try:
        result = svm.execute(code, ctx, gas)
        return state, root, result, None
    except VMError as exc:
        return state, root, None, exc


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=64))
def test_random_bytes_never_crash_interpreter(code):
    state, root, result, error = run_code(code)
    assert (result is None) != (error is None)
    if error is not None:
        # the caller (executor) reverts; simulate it and require exact root
        state.revert(0)
        assert state.state_root() == root


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from([op for op in Op if op not in (Op.PUSH, Op.DUP, Op.SWAP)]),
            st.tuples(st.just(Op.PUSH), st.integers(min_value=0, max_value=2**64)),
            st.tuples(st.just(Op.DUP), st.integers(min_value=1, max_value=4)),
            st.tuples(st.just(Op.SWAP), st.integers(min_value=1, max_value=4)),
        ),
        max_size=30,
    )
)
def test_random_programs_respect_gas(program):
    """Well-formed random programs always halt within the gas budget and
    never report more gas used than granted."""
    code = assemble(program)
    state, root, result, error = run_code(code, gas=5_000)
    if result is not None:
        assert 0 <= result.gas_used <= 5_000


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=0, max_size=48), st.integers(min_value=0, max_value=200))
def test_tiny_gas_budgets_terminate(code, gas):
    """Starvation-level budgets must terminate promptly (no spin)."""
    state, root, result, error = run_code(code, gas=gas)
    assert (result is None) != (error is None)


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
        TxType.DEPLOY: {"bytecode": assemble([Op.STOP])},
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
