"""Error taxonomy shared across the SRBB reproduction.

The paper distinguishes failures caught at *eager* validation (signature,
size, nonce, gas affordability, balance), failures caught at *lazy*
validation (nonce, gas affordability, balance) and failures raised at
*execution* time (signature, size — mirroring Geth's ``ErrInvalidSig`` and
VM/overflow exceptions).  Each failure mode gets a distinct exception class
so tests can assert exactly which layer rejected a transaction.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Transaction validation errors
# ---------------------------------------------------------------------------


class ValidationError(ReproError):
    """Base class for transaction validation failures."""

    #: short machine-readable code used in receipts and metrics
    code = "invalid"


class InvalidSignature(ValidationError):
    """Signature does not verify against the sender (Geth's ErrInvalidSig)."""

    code = "invalid-sig"


class OversizedTransaction(ValidationError):
    """Encoded transaction exceeds the protocol size limit."""

    code = "oversized"


class InsufficientBalance(ValidationError):
    """Sender balance cannot cover the transferred amount (+ gas)."""

    code = "insufficient-balance"


# ---------------------------------------------------------------------------
# VM execution errors
# ---------------------------------------------------------------------------


class VMError(ReproError):
    """Base class for contract-call failures (state is rolled back)."""

    code = "vm-error"


class OutOfGas(VMError):
    code = "out-of-gas"


class VMRevert(VMError):
    """A contract call reverted (a contract's check or a malformed input)."""

    code = "revert"


class ContractNotFound(VMError):
    code = "no-contract"


# ---------------------------------------------------------------------------
# Consensus / networking errors
# ---------------------------------------------------------------------------


class ConsensusError(ReproError):
    """Violation of a consensus precondition (a bug, never expected)."""


class NetworkError(ReproError):
    """Misuse of the discrete-event network simulator."""


# ---------------------------------------------------------------------------
# Tooling errors
# ---------------------------------------------------------------------------


class OutputWriteError(ReproError):
    """An artifact output path could not be written (bad directory,
    permissions, full disk).  The CLI reports it as a one-line message and
    a non-zero exit code instead of a traceback."""
