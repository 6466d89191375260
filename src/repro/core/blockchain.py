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
from repro.vm.executor import Executor, Receipt
from repro.vm.state import WorldState


@dataclass
class CommitResult:
    """Outcome of committing one superblock.

    ``appended_receipts[i]`` holds the receipts of ``appended_blocks[i]``
    in transaction order, all successful: the receipt index
    (:meth:`repro.core.receipts.ReceiptStore.record_block`) takes them as
    they are.  A failed execution has no receipt here; its transaction
    is in ``discarded``.
    """

    index: int
    committed: list[Transaction] = field(default_factory=list)
    discarded: list[tuple[Transaction, str]] = field(default_factory=list)
    #: (proposer_id, invalid tx, error code) triples — the raw material for
    #: RPM ``report`` invocations
    invalid_by_proposer: list[tuple[int, Transaction, str]] = field(
        default_factory=list
    )
    appended_blocks: list[Block] = field(default_factory=list)
    appended_receipts: list[tuple[Receipt, ...]] = field(default_factory=list)


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
        #: committed tx hash -> commit time: client confirmation, and the
        #: dedup against re-inclusion
        self.commit_times: dict[bytes, float] = {}

    # -- lookups -----------------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.chain) - 1

    def head(self) -> Block:
        return self.chain[-1]

    def contains_tx(self, tx: Transaction) -> bool:
        """The ``t ∈ blockchain`` test of Alg. 1 line 6."""
        return tx.tx_hash in self.commit_times

    def committed_count(self) -> int:
        return len(self.commit_times)

    def block_hashes(self) -> list[bytes]:
        return [b.block_hash for b in self.chain]

    # -- commit loop ---------------------------------------------------------------

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
        # Bound once per superblock: the loop below runs once per
        # transaction on every node.
        commit_times = self.commit_times
        execute, commit_state = self.executor.execute, self.state.commit
        committed, discarded = result.committed, result.discarded
        for block in superblock.blocks:
            kept: list[Transaction] = []
            kept_receipts: list[Receipt] = []
            coinbase = coinbase_of(block.proposer_id) if coinbase_of else ""
            for tx in block.transactions:
                cursor += step
                tx_hash = tx.tx_hash
                if tx_hash in commit_times:
                    # Same tx decided via two proposers: keep first only.
                    discarded.append((tx, "duplicate"))
                    continue
                receipt = execute(tx, coinbase=coinbase)
                # Nothing reverts across transactions (``apply_transaction``
                # snapshots what can fail), so this one's undo entries go
                # now: they die young instead of being promoted into the
                # collector's oldest generation, as a superblock-long
                # journal's are.
                commit_state()
                if receipt.success:
                    kept.append(tx)
                    kept_receipts.append(receipt)
                    commit_times[tx_hash] = now + cursor
                    committed.append(tx)
                else:
                    # Alg. 1 line 23: remove invalid t from b_i.
                    discarded.append((tx, receipt.error or "invalid"))
                    result.invalid_by_proposer.append(
                        (block.proposer_id, tx, receipt.error or "invalid")
                    )
            if kept:  # Alg. 1 line 24: only non-empty blocks are appended
                whole = len(kept) == len(block.transactions)
                filtered = Block(
                    proposer_id=block.proposer_id,
                    index=self.height + 1,
                    transactions=block.transactions if whole else tuple(kept),
                    parent_hash=self.head().block_hash,
                    certificate=block.certificate,
                    round=block.round,
                )
                if whole:
                    # Same transactions, same root: the decided block's
                    # (its proposer computed it to sign the block).
                    filtered.__dict__["tx_root"] = block.tx_root
                else:  # every replica cuts the same txs: one derives the root
                    hashes = tuple([tx.tx_hash for tx in kept])
                    if block._kept_root[0] == hashes:
                        filtered.__dict__["tx_root"] = block._kept_root[1]
                    else:
                        block.__dict__["_kept_root"] = (hashes, filtered.tx_root)
                self.chain.append(filtered)
                result.appended_blocks.append(filtered)
                result.appended_receipts.append(tuple(kept_receipts))
        return result

    # -- safety helpers -----------------------------------------------------------

    def is_prefix_of(self, other: "Blockchain") -> bool:
        """True when self's chain is a prefix of (or equal to) other's."""
        mine, theirs = self.block_hashes(), other.block_hashes()
        return len(mine) <= len(theirs) and theirs[: len(mine)] == mine

    def prefix_consistent_with(self, other: "Blockchain") -> bool:
        """The safety relation of Definition 1."""
        return self.is_prefix_of(other) or other.is_prefix_of(self)
