"""The documentation's links resolve and its CLI commands parse.

Runs ``tools/check_links.py`` and ``tools/check_cli_examples.py`` over
the markdown files they have always covered, so a figure command or link
that goes stale fails where the tests run.  Nothing is executed.
"""

import importlib.util
from pathlib import Path

import repro

ROOT = Path(repro.__file__).resolve().parents[2]


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_doc_links_resolve_and_cli_examples_parse(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    docs = sorted(str(p.relative_to(ROOT)) for p in ROOT.glob("docs/*.md"))
    links = _tool("check_links").main(
        ["README.md", "DESIGN.md", "EXPERIMENTS.md", *docs])
    commands = _tool("check_cli_examples").main(
        ["README.md", "EXPERIMENTS.md", *docs])
    assert (links, commands) == (0, 0), capsys.readouterr().out
