#!/usr/bin/env python
"""Parse every ``python -m repro ...`` command in the given markdown files.

Each command goes through ``repro.cli.build_parser().parse_args`` and
nothing is executed, so a flag the CLI no longer takes fails here instead
of going stale in the docs.  Commands are found in two places:

* fenced code blocks: a line ending in ``\\`` is joined to the next, and
  a command ends at a shell comment, pipe, redirect, ``;`` or ``&``;
* inline code spans in prose, which may wrap across lines.  A span that
  names only a verb (```python -m repro sweep```) refers to the verb, so
  only the verb's name is checked.

A ``...`` token stands for elided arguments and is dropped.

Exit status 1 with one line per command that does not parse, 0 when
clean.

Usage::

    PYTHONPATH=src python tools/check_cli_examples.py README.md docs/*.md
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

PREFIX = "python -m repro "
SPAN_RE = re.compile(r"`(python -m repro [^`]*)`")
STOP = {"|", "||", "&&", ";", "&"}


def _argv(command: str) -> list:
    """The arguments after ``python -m repro`` up to the first shell
    operator, with ``...`` placeholders dropped."""
    argv = []
    for token in shlex.split(command, comments=True):
        if token in STOP or token.startswith((">", "2>")):
            break
        if token != "...":
            argv.append(token)
    return argv


def iter_commands(text: str):
    """Yield ``(line_number, argv, inline)`` for every command."""
    in_fence = False
    prose = []
    joined, start = "", 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            prose.append("")
            continue
        if not in_fence:
            prose.append(line)
            continue
        prose.append("")
        if not joined:
            start = lineno
        if line.rstrip().endswith("\\"):
            joined += line.rstrip()[:-1] + " "
            continue
        joined += line
        if PREFIX in joined:
            yield start, _argv(joined.split(PREFIX, 1)[1]), False
        joined = ""
    prose_text = "\n".join(prose)
    for match in SPAN_RE.finditer(prose_text):
        lineno = prose_text.count("\n", 0, match.start()) + 1
        yield lineno, _argv(match.group(1)[len(PREFIX):]), True


def parse_error(parser: argparse.ArgumentParser, verbs, argv: list,
                inline: bool):
    """``None`` when ``argv`` parses, else argparse's error line."""
    if inline and len(argv) == 1 and argv[0] in verbs:
        return None
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code:
            lines = stderr.getvalue().strip().splitlines()
            return lines[-1] if lines else f"exit code {exc.code}"
    return None


def main(argv: list) -> int:
    if not argv:
        print(__doc__)
        return 2
    from repro.cli import build_parser

    parser = build_parser()
    verbs = next(
        action.choices for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    errors = []
    checked = 0
    for name in argv:
        path = Path(name)
        if not path.exists():
            errors.append(f"{name}: file not found")
            continue
        for lineno, command, inline in iter_commands(
                path.read_text(encoding="utf-8")):
            checked += 1
            error = parse_error(parser, verbs, command, inline)
            if error:
                errors.append(f"{path}:{lineno}: python -m repro "
                              f"{' '.join(command)}: {error}")
    for error in errors:
        print(error)
    if not errors:
        print(f"ok: {checked} command(s) in {len(argv)} file(s) parse")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
