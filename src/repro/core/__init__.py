"""Core SRBB protocol: transactions, blocks, validation, pool, node, RPM.

This package is the paper's primary contribution — Algorithm 1 (the SRBB
protocol with TVPR) and Algorithm 2 (the Reward-Penalty Mechanism) — plus
the Section VI load-balancer mitigation.
"""

from repro.core.transaction import (
    Transaction,
    TxType,
    make_invoke,
    make_transfer,
)
from repro.core.block import Block, BlockCertificate, SuperBlock
from repro.core.validation import (
    ValidationOutcome,
    eager_validate,
    lazy_validate,
)
from repro.core.txpool import TxPool
from repro.core.blockchain import Blockchain, CommitResult

__all__ = [
    "Block",
    "BlockCertificate",
    "Blockchain",
    "CommitResult",
    "SuperBlock",
    "Transaction",
    "TxPool",
    "TxType",
    "ValidationOutcome",
    "eager_validate",
    "lazy_validate",
    "make_invoke",
    "make_transfer",
]
