"""Protocol-wide constants and tunable parameter bundles.

Values mirror the paper's experimental setup where it states them (200
validators, 10 AWS regions, c5.2xlarge = 8 vCPU / 16 GB, DIABLO workload
envelopes) and sensible Geth-like defaults elsewhere.  Everything an
experiment may want to sweep lives in a frozen dataclass so parameter sets
are hashable, comparable and printable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# -- transaction / block level ------------------------------------------------

#: Maximum encoded transaction size in bytes (Geth: 128 KiB for txs; DApp
#: invocations here are far smaller).
MAX_TX_SIZE = 128 * 1024

#: Default per-transaction gas limit for simple transfers (Ethereum: 21000).
TRANSFER_GAS = 21_000

#: Default block gas limit (Ethereum mainnet ballpark).
BLOCK_GAS_LIMIT = 30_000_000

#: Maximum number of transactions a proposer packs into one block.
MAX_BLOCK_TXS = 10_000

#: Time-to-live for a transaction in the pending pool, in simulated seconds.
TX_TTL = 600.0

#: Default transaction-pool capacity (Geth default: 4096+1024 slots; modern
#: chains differ and the chain models override this).
TXPOOL_CAPACITY = 16_384

# -- RPM ----------------------------------------------------------------------

#: Validator deposit required for candidacy (in the native token).
VALIDATOR_DEPOSIT = 1_000_000

#: Constant block reward r_b credited per block included in a superblock.
BLOCK_REWARD = 100

#: Eager-validation cost c per transaction (token-denominated, Alg. 2).
EAGER_VALIDATION_COST = 10 ** -3

# -- timing --------------------------------------------------------------------

#: Known post-GST message delay bound (seconds) for partial synchrony.
DELTA = 0.5


@dataclass(frozen=True)
class ProtocolParams:
    """Bundle of consensus/transaction-level parameters for one deployment.

    ``n`` is the committee size and ``f`` the tolerated Byzantine count;
    the constructor derives ``f = floor((n - 1) / 3)`` when not given,
    matching the optimal-resilience assumption f < n/3.
    """

    n: int = 4
    f: int = -1  # derived in __post_init__ when negative
    max_tx_size: int = MAX_TX_SIZE
    block_gas_limit: int = BLOCK_GAS_LIMIT
    max_block_txs: int = MAX_BLOCK_TXS
    tx_ttl: float = TX_TTL
    txpool_capacity: int = TXPOOL_CAPACITY
    validator_deposit: int = VALIDATOR_DEPOSIT
    #: TVPR on/off: when True validators never gossip individual transactions.
    tvpr: bool = True
    #: RPM on/off: when True the reward-penalty contract is active.
    rpm: bool = True
    #: Honour RPM exclusions at the communication layer: once the RPM
    #: contract emits a Byzantine-validator event (Alg. 2 line 42),
    #: correct nodes also drop the excluded seat's gossip and consensus
    #: traffic instead of merely rejecting its proposals.  Off by default
    #: so seeded baselines are untouched.
    rpm_exclude_comms: bool = False
    #: Vote batching on/off: when True each validator coalesces the
    #: BVAL/AUX/COORD (and RBC ECHO/READY) traffic it emits within one
    #: tick into a single BATCH wire message per broadcast; off keeps the
    #: one-message-per-vote path alive for ablation comparisons.
    vote_batching: bool = True
    #: Flush quantum for vote batching, simulated seconds.  Must stay well
    #: under ``DELTA`` (votes are delayed at most one tick) and the
    #: proposer timeout; 0 batches only within one event cascade.  At 0.1
    #: a single-region deployment coalesces enough of each round's votes
    #: for a >=10x wire-message reduction without altering decisions.
    vote_batch_tick: float = 0.1
    #: Liveness watchdog: flag a node as wedged after this many round
    #: intervals without a commit (0 disables the watchdog entirely, the
    #: default, so fault-free baselines schedule no extra events).  A
    #: stalled node re-broadcasts a catch-up request on each trip, which
    #: is what lets a restarted replica converge even if its first
    #: CATCHUP_RESP raced ongoing consensus rounds.
    watchdog_stall_rounds: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"committee size must be positive, got {self.n}")
        if self.f < 0:
            object.__setattr__(self, "f", (self.n - 1) // 3)
        if not self.f < self.n / 3:
            raise ValueError(
                f"optimal resilience requires f < n/3, got f={self.f} n={self.n}"
            )
        if self.vote_batch_tick < 0:
            raise ValueError(
                f"vote_batch_tick must be >= 0, got {self.vote_batch_tick}"
            )
        if self.watchdog_stall_rounds < 0:
            raise ValueError(
                f"watchdog_stall_rounds must be >= 0, got {self.watchdog_stall_rounds}"
            )

    @property
    def quorum(self) -> int:
        """Size of a Byzantine quorum, ``n - f`` (the paper's n − t)."""
        return self.n - self.f

    def with_(self, **changes) -> "ProtocolParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class NetParams:
    """Transport-layer knobs: reliable delivery over lossy links.

    All defaults keep the seed behavior byte-identical: the delay-only
    partial-synchrony transport, no sequence numbers, no acks.  Chaos
    scenarios flip ``reliable_delivery`` on so that injected loss and
    duplication degrade to the delay-only model DBFT already tolerates
    (a dropped message becomes a delayed one via retransmission; a
    duplicated one is suppressed by the per-link sequence dedup).
    """

    #: per-link monotonic sequence numbers + ack/retransmit + dedup (its
    #: timing constants live in :mod:`repro.net.transport`)
    reliable_delivery: bool = False

    def with_(self, **changes) -> "NetParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


#: Inter-region one-way latency (milliseconds) between the paper's 10 AWS
#: regions.  Symmetric, measured-order-of-magnitude values assembled from
#: public inter-region RTT tables (half-RTT).  Keyed by region name.
AWS_REGIONS = (
    "bahrain",
    "cape-town",
    "milan",
    "mumbai",
    "n-virginia",
    "ohio",
    "oregon",
    "stockholm",
    "sydney",
    "tokyo",
)

_LAT = {
    ("bahrain", "bahrain"): 1,
    ("bahrain", "cape-town"): 105,
    ("bahrain", "milan"): 55,
    ("bahrain", "mumbai"): 18,
    ("bahrain", "n-virginia"): 95,
    ("bahrain", "ohio"): 100,
    ("bahrain", "oregon"): 130,
    ("bahrain", "stockholm"): 65,
    ("bahrain", "sydney"): 135,
    ("bahrain", "tokyo"): 90,
    ("cape-town", "cape-town"): 1,
    ("cape-town", "milan"): 80,
    ("cape-town", "mumbai"): 110,
    ("cape-town", "n-virginia"): 112,
    ("cape-town", "ohio"): 120,
    ("cape-town", "oregon"): 145,
    ("cape-town", "stockholm"): 85,
    ("cape-town", "sydney"): 175,
    ("cape-town", "tokyo"): 180,
    ("milan", "milan"): 1,
    ("milan", "mumbai"): 60,
    ("milan", "n-virginia"): 48,
    ("milan", "ohio"): 55,
    ("milan", "oregon"): 80,
    ("milan", "stockholm"): 15,
    ("milan", "sydney"): 145,
    ("milan", "tokyo"): 110,
    ("mumbai", "mumbai"): 1,
    ("mumbai", "n-virginia"): 95,
    ("mumbai", "ohio"): 100,
    ("mumbai", "oregon"): 110,
    ("mumbai", "stockholm"): 70,
    ("mumbai", "sydney"): 75,
    ("mumbai", "tokyo"): 60,
    ("n-virginia", "n-virginia"): 1,
    ("n-virginia", "ohio"): 6,
    ("n-virginia", "oregon"): 35,
    ("n-virginia", "stockholm"): 55,
    ("n-virginia", "sydney"): 100,
    ("n-virginia", "tokyo"): 75,
    ("ohio", "ohio"): 1,
    ("ohio", "oregon"): 25,
    ("ohio", "stockholm"): 60,
    ("ohio", "sydney"): 95,
    ("ohio", "tokyo"): 70,
    ("oregon", "oregon"): 1,
    ("oregon", "stockholm"): 80,
    ("oregon", "sydney"): 70,
    ("oregon", "tokyo"): 50,
    ("stockholm", "stockholm"): 1,
    ("stockholm", "sydney"): 150,
    ("stockholm", "tokyo"): 125,
    ("sydney", "sydney"): 1,
    ("sydney", "tokyo"): 52,
    ("tokyo", "tokyo"): 1,
}


def region_latency_ms(a: str, b: str) -> float:
    """One-way latency in milliseconds between two AWS regions."""
    if (a, b) in _LAT:
        return float(_LAT[(a, b)])
    if (b, a) in _LAT:
        return float(_LAT[(b, a)])
    raise KeyError(f"unknown region pair ({a!r}, {b!r})")


# -- DIABLO workload envelopes (paper §V) ---------------------------------------

@dataclass(frozen=True)
class WorkloadEnvelope:
    """Published rate envelope of one DIABLO DApp workload."""

    name: str
    duration_s: float
    avg_tps: float
    peak_tps: float


NASDAQ_ENVELOPE = WorkloadEnvelope("nasdaq", 180.0, 168.0, 19_800.0)
UBER_ENVELOPE = WorkloadEnvelope("uber", 120.0, 852.0, 900.0)
FIFA_ENVELOPE = WorkloadEnvelope("fifa", 180.0, 3_483.0, 5_305.0)

#: a validator's network egress, bytes per second: a conservative WAN figure
#: for a c5.2xlarge (~1.2 GiB/s burst, sustained cross-region far lower)
LINK_BANDWIDTH_BYTES_PER_S = 150e6
