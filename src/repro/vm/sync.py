"""State snapshots for catch-up.

A restarted validator must hold the full state before it participates
again.  Rather than replaying every block, it restores a serialized
snapshot from a peer and verifies the state root — the root is a binding
commitment, so a snapshot that does not rebuild it is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ReproError
from repro.vm.state import Account, WorldState


class SyncError(ReproError):
    """Snapshot does not match the expected state root."""


@dataclass(frozen=True)
class StateSnapshot:
    """Serializable image of a WorldState (accounts + storage + root)."""

    accounts: tuple[tuple[str, int, int, bytes | None, str | None], ...]
    storage: tuple[tuple[str, str, Any], ...]
    root: bytes
    height: int = 0


def take_snapshot(state: WorldState, *, height: int = 0) -> StateSnapshot:
    """Serialize a state; the embedded root makes it self-certifying."""
    accounts = tuple(
        (acct.address, acct.balance, acct.nonce, acct.code, acct.native)
        for acct in sorted(
            (state.get_account(addr) for addr in _addresses(state)),
            key=lambda a: a.address,
        )
    )
    storage = tuple(
        (addr, key, value)
        for addr in sorted({a for a, _ in state._storage})  # noqa: SLF001
        for key, value in sorted(state.storage_items(addr))
    )
    return StateSnapshot(
        accounts=accounts, storage=storage, root=state.state_root(), height=height
    )


def _addresses(state: WorldState) -> list[str]:
    return sorted(state._accounts)  # noqa: SLF001 - serializer is a friend


def restore_snapshot(
    snapshot: StateSnapshot, *, expected_root: bytes | None = None
) -> WorldState:
    """Rebuild a WorldState from a snapshot and verify its root.

    ``expected_root`` is the trust anchor (e.g. a root f+1 peers agree on);
    when omitted the snapshot's own embedded root is used, which still
    detects in-flight corruption.
    """
    state = WorldState()
    for address, balance, nonce, code, native in snapshot.accounts:
        account = state.create_account(address, balance, code=code, native=native)
        account.nonce = nonce
    for address, key, value in snapshot.storage:
        state.storage_set(address, key, value)
    state.commit()
    root = state.state_root()
    target = expected_root if expected_root is not None else snapshot.root
    if root != target:
        raise SyncError(
            f"snapshot root mismatch: rebuilt {root.hex()[:16]}…, "
            f"expected {target.hex()[:16]}…"
        )
    return state

