"""A pure equivocation attacker (section 5.2, 'Equivocation Detection').

Unlike :class:`~repro.attacks.censorship.Censor` (which equivocates only
as a side effect of censoring), this node runs the protocol normally but
presents *different* commitment histories to two halves of its peers --
the classic fork attack.  Any correct node that comes to hold headers from
both forks (directly, or through a relayed blame) produces transferable
equivocation evidence.
"""

from __future__ import annotations

from repro.attacks.adversary import Adversary
from repro.core.commitment import CommitmentHeader


class Equivocator(Adversary):
    """Shows fork A (its honest chain) to even-numbered peers and fork B
    to odd-numbered ones, in every header it sends to one peer."""

    def header_for(self, peer: int, msg_type: str) -> CommitmentHeader:
        if peer % 2:
            return self.fork(peer)
        return self.node.header()
