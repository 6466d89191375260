"""Chain auditing: full offline re-verification of a replica.

The trust-nothing counterpart of :mod:`repro.vm.sync`'s fast-sync — an
auditor takes another node's chain and replays it from genesis:

* structural checks — parent-hash linkage, per-block certificate over the
  exact transaction set, proposer membership in the committee;
* semantic checks — re-execute every transaction on a fresh state built
  from the same genesis; every transaction in a committed block must
  re-execute successfully (the validity property, checked after the
  fact), and the final state root must match the audited replica's.

Used by tests as the deepest cross-validator consistency check and
available to operators as ``audit_chain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro import params
from repro.core.block import Block, SuperBlock
from repro.core.blockchain import Blockchain
from repro.vm.state import WorldState


@dataclass
class AuditReport:
    """Outcome of one chain audit."""

    blocks_checked: int = 0
    txs_replayed: int = 0
    ok: bool = True
    problems: list[str] = field(default_factory=list)
    #: non-fatal observations — e.g. blocks whose certificate covers a
    #: *superset* of their transactions because the commit loop discarded
    #: invalid ones (Alg. 1 line 23): attribution for those blocks rests
    #: on consensus, not the certificate
    warnings: list[str] = field(default_factory=list)
    final_root_matches: bool | None = None

    def fail(self, problem: str) -> None:
        self.ok = False
        self.problems.append(problem)

    def warn(self, warning: str) -> None:
        self.warnings.append(warning)


def audit_chain(
    chain: Blockchain,
    *,
    genesis: Callable[[WorldState], None],
    committee: "set[str] | frozenset[str] | None" = None,
    protocol: params.ProtocolParams | None = None,
    registry=None,
    coinbase_of: Callable[[int], str] | None = None,
) -> AuditReport:
    """Re-verify ``chain`` from scratch; returns a full report.

    ``genesis`` must rebuild the same initial state the audited node
    started from; ``committee`` (addresses) enables proposer-membership
    checks on every certificate; ``coinbase_of`` must match the audited
    deployment's fee routing or the final roots will (correctly) differ.
    """
    report = AuditReport()
    blocks = chain.chain
    if not blocks:
        report.fail("empty chain (missing genesis)")
        return report

    # --- structural pass -----------------------------------------------------
    for height in range(1, len(blocks)):
        block = blocks[height]
        report.blocks_checked += 1
        parent = blocks[height - 1]
        if block.parent_hash != parent.block_hash:
            report.fail(f"height {height}: broken parent linkage")
        if block.certificate is None:
            report.fail(f"height {height}: missing certificate")
            continue
        if not block.header_valid():
            # A filtered block (invalid txs discarded at commit) keeps the
            # certificate over the ORIGINAL transaction set, so an exact
            # mismatch is expected under flooding; the replay below is
            # what establishes the kept transactions' validity.  Exact
            # per-tx attribution for filtered blocks would need inclusion
            # proofs against the certified root, which the chain prunes.
            report.warn(
                f"height {height}: certificate covers a superset "
                f"(block was filtered at commit, or tampered — replay decides)"
            )
        if committee is not None:
            proposer = block.certificate.proposer_address()
            if proposer not in committee:
                report.fail(
                    f"height {height}: proposer {proposer[:8]}… not in committee"
                )

    # --- semantic replay --------------------------------------------------------
    state = WorldState()
    genesis(state)
    state.commit()
    replica = Blockchain(
        protocol=protocol or chain.protocol, state=state
    )
    if registry is not None:
        replica.executor.registry = registry
    else:
        replica.executor.registry = chain.executor.registry
    for height in range(1, len(blocks)):
        block = blocks[height]
        stub = Block(
            proposer_id=block.proposer_id,
            index=height,
            transactions=block.transactions,
            certificate=block.certificate,
            round=block.round,
        )
        result = replica.commit_superblock(
            SuperBlock(index=height, blocks=(stub,)), coinbase_of=coinbase_of
        )
        report.txs_replayed += len(block.transactions)
        if result.discarded:
            # Validity: committed blocks contain only valid transactions,
            # so a replay must not reject anything.
            report.fail(
                f"height {height}: {len(result.discarded)} committed "
                f"transaction(s) fail replay "
                f"({result.discarded[0][1]})"
            )

    report.final_root_matches = (
        replica.state.state_root() == chain.state.state_root()
    )
    if not report.final_root_matches:
        report.fail("final state root mismatch after replay")
    return report
