"""Chain storage and the commit loop (Alg. 1 lines 18-26).

``Blockchain`` owns a :class:`~repro.vm.state.WorldState` and an
:class:`~repro.vm.executor.Executor`; committing a superblock walks its
blocks in proposer order, executes each transaction (lazy-validate →
apply), discards invalid transactions from the block, and appends the
filtered block to the permanent chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import params
from repro.core.block import GENESIS, Block, SuperBlock
from repro.core.transaction import Transaction
from repro.telemetry import timed
from repro.vm.executor import Executor, Receipt
from repro.vm.state import WorldState


@dataclass
class CommitResult:
    """Outcome of committing one superblock."""

    index: int
    committed: list[Transaction] = field(default_factory=list)
    discarded: list[tuple[Transaction, str]] = field(default_factory=list)
    receipts: list[Receipt] = field(default_factory=list)
    #: (proposer_id, invalid tx, error code) triples — the raw material for
    #: RPM ``report`` invocations
    invalid_by_proposer: list[tuple[int, Transaction, str]] = field(
        default_factory=list
    )
    appended_blocks: list[Block] = field(default_factory=list)


class Blockchain:
    """Append-only chain + deterministic state machine."""

    def __init__(
        self,
        *,
        protocol: params.ProtocolParams | None = None,
        state: WorldState | None = None,
    ):
        self.protocol = protocol or params.ProtocolParams()
        self.state = state if state is not None else WorldState()
        self.executor = Executor(self.state, protocol=self.protocol)
        self.chain: list[Block] = [GENESIS]
        #: hashes of every committed transaction (dedup against re-inclusion)
        self._committed_hashes: set[bytes] = set()
        #: committed tx -> commit info for client confirmation queries
        self.commit_times: dict[bytes, float] = {}

    # -- queries -----------------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.chain) - 1

    def head(self) -> Block:
        return self.chain[-1]

    def contains_tx(self, tx: Transaction) -> bool:
        """The ``t ∈ blockchain`` test of Alg. 1 line 6."""
        return tx.tx_hash in self._committed_hashes

    def contains_hash(self, tx_hash: bytes) -> bool:
        return tx_hash in self._committed_hashes

    def committed_count(self) -> int:
        return len(self._committed_hashes)

    def block_hashes(self) -> list[bytes]:
        return [b.block_hash for b in self.chain]

    # -- commit loop ---------------------------------------------------------------

    @timed("srbb_commit_superblock_seconds", "wall time per superblock commit")
    def commit_superblock(
        self,
        superblock: SuperBlock,
        *,
        now: float = 0.0,
        coinbase_of=None,
        exec_rate: float | None = None,
    ) -> CommitResult:
        """Execute and append a decided superblock (Alg. 1 lines 18-26).

        ``coinbase_of(proposer_id) -> address`` routes gas fees to block
        proposers; defaults to burning fees.  ``exec_rate`` (tx/s) advances
        the recorded commit timestamp by 1/exec_rate per executed
        transaction — valid *or* invalid — so flooded junk ahead of a
        transaction in the superblock delays its client-visible commit
        (the §V-B CPU-theft effect).
        """
        result = CommitResult(index=superblock.index)
        cursor = 0.0
        step = 1.0 / exec_rate if exec_rate else 0.0
        for block in superblock.blocks:
            kept: list[Transaction] = []
            coinbase = coinbase_of(block.proposer_id) if coinbase_of else ""
            for tx in block.transactions:
                cursor += step
                if tx.tx_hash in self._committed_hashes:
                    # Same tx decided via two proposers: keep first only.
                    result.discarded.append((tx, "duplicate"))
                    continue
                receipt = self.executor.execute(tx, coinbase=coinbase)
                # Nothing reverts across transactions (``apply_transaction``
                # takes its own snapshot), so this one's undo entries go
                # now: they die young instead of being promoted into the
                # collector's oldest generation, as a superblock-long
                # journal's are.
                self.state.commit()
                result.receipts.append(receipt)
                if receipt.success:
                    kept.append(tx)
                    self._committed_hashes.add(tx.tx_hash)
                    self.commit_times[tx.tx_hash] = now + cursor
                    result.committed.append(tx)
                else:
                    # Alg. 1 line 23: remove invalid t from b_i.
                    result.discarded.append((tx, receipt.error or "invalid"))
                    result.invalid_by_proposer.append(
                        (block.proposer_id, tx, receipt.error or "invalid")
                    )
            if kept:  # Alg. 1 line 24: only non-empty blocks are appended
                filtered = Block(
                    proposer_id=block.proposer_id,
                    index=self.height + 1,
                    transactions=tuple(kept),
                    parent_hash=self.head().block_hash,
                    certificate=block.certificate,
                    round=block.round,
                )
                self.chain.append(filtered)
                result.appended_blocks.append(filtered)
        return result

    # -- safety helpers -----------------------------------------------------------

    def is_prefix_of(self, other: "Blockchain") -> bool:
        """True when self's chain is a prefix of (or equal to) other's."""
        mine, theirs = self.block_hashes(), other.block_hashes()
        return len(mine) <= len(theirs) and theirs[: len(mine)] == mine

    def prefix_consistent_with(self, other: "Blockchain") -> bool:
        """The safety relation of Definition 1."""
        return self.is_prefix_of(other) or other.is_prefix_of(self)
