"""Faulty-miner policies (sections 2.2, 3.1, 5.3).

Every attack is an :class:`Adversary` policy in the ``adversary`` slot of
an honest :class:`~repro.core.node.LONode` (see :mod:`repro.attacks.adversary`
for the seams it acts on and the record it keeps).  Each deviates in
exactly one dimension, so experiments can attribute effects to a single
manipulation primitive:

* :class:`Censor` -- mempool censorship: ignores reconciliation requests
  and/or refuses to commit targeted transactions; also able to drop blame
  traffic to hinder detection (the section 6.2 adversary).
* :class:`Equivocator` -- shows different forks of its commitment history
  to different peers.
* :class:`Injector` -- block injection: puts uncommitted transactions at
  the front of its blocks.
* :class:`Reorderer` -- block re-ordering: fills its blocks in fee order
  instead of the canonical order.
* :class:`BlockspaceCensor` -- blockspace censorship: silently omits
  committed transactions from its blocks.
* :class:`OffChannel` -- off-channel transaction sharing between colluding
  miners; :func:`trace_commitment_chain` implicates them.
* :class:`Slow`, :class:`Garbage`, :func:`spam_invalid`,
  :func:`spam_dust` -- the degraded and protocol-abusing stress cases.

``attacker(policy, **settings)`` is the harness ``attacker_factory`` for
any of them.
"""

from repro.attacks.adversary import Adversary, attacker
from repro.attacks.censorship import Censor, make_censor_factory
from repro.attacks.equivocation import Equivocator
from repro.attacks.blockattacks import (
    BlockspaceCensor,
    Injector,
    Reorderer,
    make_block_attacker_factory,
)
from repro.attacks.collusion import OffChannel, trace_commitment_chain
from repro.attacks.degraded import Garbage, Slow, spam_dust, spam_invalid

__all__ = [
    "Adversary",
    "BlockspaceCensor",
    "Censor",
    "Equivocator",
    "Garbage",
    "Injector",
    "OffChannel",
    "Reorderer",
    "Slow",
    "attacker",
    "make_block_attacker_factory",
    "make_censor_factory",
    "spam_dust",
    "spam_invalid",
    "trace_commitment_chain",
]
