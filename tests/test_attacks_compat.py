"""``repro.attacks.censorship.CensoringNode`` is a name for ``lobench``.

Censors are :class:`~repro.attacks.Censor` policies on plain nodes; the
benchmark's tracer still patches ``CensoringNode.on_message``.  The name
must be the honest node itself, stay out of ``repro.attacks.__all__``,
and nothing else in the repository may use it.
"""

import os
import re

import repro.attacks
from repro.attacks import censorship
from repro.core.node import LONode

ROOT = os.path.join(os.path.dirname(__file__), "..")

#: Files allowed to name ``CensoringNode``: its definition and this test.
ALLOWED = {
    os.path.join("src", "repro", "attacks", "censorship.py"),
    os.path.join("tests", "test_attacks_compat.py"),
}

NAME = re.compile(r"\bCensoringNode\b")


def test_compat_name_is_the_honest_node():
    assert censorship.CensoringNode is LONode
    assert "CensoringNode" not in repro.attacks.__all__
    assert not hasattr(repro.attacks, "CensoringNode")


def test_nothing_else_uses_the_compat_name():
    offenders = []
    for top in ("src", "tests", "examples"):
        for dirpath, _dirs, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, ROOT)
                if rel in ALLOWED:
                    continue
                with open(path, encoding="utf-8") as stream:
                    if NAME.search(stream.read()):
                        offenders.append(rel)
    assert not offenders, f"use repro.attacks.Censor: {sorted(offenders)}"
