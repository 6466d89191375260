"""Eager and lazy transaction validation (§II-B, §IV-D).

* **Eager validation** — performed when a transaction arrives from a client
  (and, in modern-blockchain mode, from peers): signature, size limit,
  nonce plausibility, gas affordability, balance coverage.  It is the
  expensive check — the signature verification dominates.
* **Lazy validation** — performed just before execution: nonce exactness,
  gas affordability, balance coverage.  No signature check (that happens at
  execution, raising ``ErrInvalidSig``-equivalent errors), so it is cheap.

Both return a :class:`ValidationOutcome` rather than raising, because
validators *count* failures (they feed RPM reports and DIABLO loss metrics).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from repro import params, telemetry
from repro.core.transaction import Transaction
from repro.crypto.keys import recover_check
from repro.telemetry import timed

#: How far ahead of the account nonce the pool accepts transactions
#: (Geth tolerates gaps in the queued region; we use a simple window).
NONCE_WINDOW = 1024

_metrics = telemetry.bind(
    lambda reg: SimpleNamespace(
        sig_hits=reg.counter(
            "srbb_sig_cache_hits_total", "signature checks served from cache"
        ),
        sig_misses=reg.counter(
            "srbb_sig_cache_misses_total", "signature checks fully recomputed"
        ),
    )
)


@dataclass(frozen=True)
class ValidationOutcome:
    """Result of a validation pass."""

    ok: bool
    error_code: str | None = None

    def __bool__(self) -> bool:
        return self.ok


_OK = ValidationOutcome(True)


def _fail(code: str) -> ValidationOutcome:
    return ValidationOutcome(False, code)


# -- signature verdicts ---------------------------------------------------------
#
# Every node eagerly validates every transaction it sees, and execution
# repeats the recovery check — so the same transaction object is verified
# many times per process.  The *positive* verdict is kept on the object
# (``Transaction.sig_verified``): its fields are frozen, so the verdict
# cannot go stale, and a tampered copy is a new object without one.


def check_signature(tx: Transaction) -> bool:
    """``recover_check``, at most once per properly signed transaction.

    Negative results are never kept (a forged signature is re-checked on
    every call), and nothing is shared between objects, so no submission
    can vouch for another.  Callers racing on one transaction each compute
    the same verdict; the store is a single attribute write.
    """
    if tx.signature is None or tx.public_key is None:
        return False
    hit = tx.sig_verified
    if telemetry.get_registry().enabled:
        m = _metrics()
        (m.sig_hits if hit else m.sig_misses).inc()
    if hit:
        return True
    ok = recover_check(tx.public_key, tx.signing_payload(), tx.signature, tx.sender)
    if ok:
        object.__setattr__(tx, "sig_verified", True)
    return ok


def clear_signature_cache() -> None:
    """No-op: there is no process-wide cache left to clear.

    Kept only because ``benchmarks/perf/micro.py`` imports it and the
    benchmark's files are frozen; nothing else may call it.
    """


@timed("srbb_eager_validate_seconds", "wall time per eager validation")
def eager_validate(
    tx: Transaction,
    state,
    protocol: params.ProtocolParams | None = None,
) -> ValidationOutcome:
    """Full admission check for a transaction entering the pool.

    ``state`` is a :class:`~repro.vm.state.WorldState` (duck-typed to avoid
    an import cycle).  Checks, in the paper's order: (i) signature,
    (ii) size, (iii) nonce window, (iv) gas affordability, (v) balance.
    """
    protocol = protocol or params.ProtocolParams()
    # (i) properly signed
    if tx.signature is None or tx.public_key is None:
        return _fail("invalid-sig")
    if not check_signature(tx):
        return _fail("invalid-sig")
    # (ii) size limit
    if tx.encoded_size() > protocol.max_tx_size:
        return _fail("oversized")
    # A gas limit above the block gas limit can never fit in any block —
    # an *intrinsic* defect, checked before the account-state lookups so
    # it is reported as such even when the sender is also broke (it used
    # to surface as "insufficient-gas" whenever the balance checks ran
    # first and tripped on the inflated fee cap).
    if tx.gas_limit > protocol.block_gas_limit:
        return _fail("exceeds-block-gas")
    # (iii) nonce: not in the past, not absurdly in the future
    current = state.nonce_of(tx.sender)
    if tx.nonce < current:
        return _fail("bad-nonce")
    if tx.nonce > current + NONCE_WINDOW:
        return _fail("bad-nonce")
    # (iv) gas cost covered + (v) amount covered
    balance = state.balance_of(tx.sender)
    if balance < tx.fee_cap():
        return _fail("insufficient-gas")
    if balance < tx.max_cost():
        return _fail("insufficient-balance")
    return _OK


def lazy_validate(tx: Transaction, state) -> ValidationOutcome:
    """Pre-execution check: (iii) exact nonce, (iv) gas, (v) balance.

    Deliberately weaker than eager validation — no signature or size check
    (§IV-D: "lazy validation checks (iii), (iv), (v) whereas the execution
    checks (i) and (ii)").
    """
    if tx.nonce != state.nonce_of(tx.sender):
        return _fail("bad-nonce")
    balance = state.balance_of(tx.sender)
    if balance < tx.fee_cap():
        return _fail("insufficient-gas")
    if balance < tx.max_cost():
        return _fail("insufficient-balance")
    return _OK
