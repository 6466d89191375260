"""Byzantine validator behaviours used in the evaluation.

Every adversary is a ``byzantine_*`` window of a
:class:`~repro.faults.FaultSchedule`; a seat a window names is built as a
:class:`CampaignValidator`, which the window toggles at runtime:

* ``flood`` — §V-B's attacker: skips eager validation and stuffs its
  block proposals with invalid transactions (senders with zero balance),
  consuming peers' CPU and bandwidth for no throughput.
* ``censor`` — §VI's drawback case: drops client transactions instead of
  including them in blocks.
* ``equivocate`` — sends different proposals to different peers
  (reliable broadcast must neutralize it).
* ``withhold`` — sends none of its consensus votes.

A window opened at ``at=0.0`` is the always-on adversary; a crash-stop
seat is a schedule ``crash`` with no ``restart``.  ``docs/FAULTS.md``
describes the fault models.
"""

from repro.adversary.byzantine import (
    CAMPAIGN_BEHAVIOURS,
    CampaignValidator,
    make_invalid_transactions,
)

__all__ = [
    "CAMPAIGN_BEHAVIOURS",
    "CampaignValidator",
    "make_invalid_transactions",
]
