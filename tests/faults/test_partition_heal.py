"""A quorum-less partition stalls consensus; does it resume at heal?

With a 2|2 split at n = 4 neither side holds n−f = 3 seats, so every
seat stops at the index in flight when the partition starts.  With
reliable delivery the transport re-sends what the partition dropped and
consensus resumes after the heal.  Without it the dropped votes are
never sent again and no seat is ahead, so neither the watchdog nor the
ahead-window catch-up has anything to fetch: the stall is permanent.
Re-sending a stuck instance's votes after a heal is the open fix
(ROADMAP item 1(b)); the strict xfail turns into a failure once it lands.
"""

import pytest

from repro import params
from repro.core.deployment import Deployment
from repro.faults import FaultSchedule


def progress_after_heal(t: float, *, reliable: bool) -> list[int]:
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4),
        net_params=params.NetParams(reliable_delivery=reliable),
        fault_schedule=FaultSchedule(seed=3).hard_partition(
            [(0, 1), (2, 3)], at=4.0, heal_at=10.0
        ),
        seed=3,
    )
    deployment.start()
    deployment.run_until(10.0)
    at_heal = [v._next_commit_index for v in deployment.validators]
    deployment.run_until(t)
    return [
        v._next_commit_index - before
        for v, before in zip(deployment.validators, at_heal)
    ]


def test_reliable_delivery_resumes_after_heal():
    assert all(progress > 0 for progress in progress_after_heal(80.0, reliable=True))


@pytest.mark.xfail(
    strict=True,
    reason="without reliable delivery no one re-sends the votes a partition dropped",
)
def test_consensus_resumes_after_heal_without_reliable_delivery():
    assert all(progress > 0 for progress in progress_after_heal(80.0, reliable=False))
