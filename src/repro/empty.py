"""The shared empty that per-node containers start as.

At paper scale most nodes never write most of their per-node maps, so a
field starts as :data:`EMPTY_MAP` (a read-only mapping shared by every
node) and its writer swaps in a dict of its own on the first write::

    if self._sessions is EMPTY_MAP:
        self._sessions = {}
    self._sessions[request_id] = session

Readers (``in``, ``get``, ``len``, iteration) need no change.  A ``pop``,
``clear`` or ``del`` that can meet the shared empty must be guarded: the
mapping has none of them.  A list field starts as ``()`` the same way.
"""

from types import MappingProxyType
from typing import Any, Mapping

#: Read-only, so a writer that forgot to materialise fails loudly instead
#: of writing into every node's map at once.
EMPTY_MAP: Mapping[Any, Any] = MappingProxyType({})
