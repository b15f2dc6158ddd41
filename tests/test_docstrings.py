"""Docstring coverage and doctest execution for the public API surface.

Two jobs:

* run every doctest of every ``repro`` module as part of the normal
  suite (the modules are found, not listed), so no example can rot;
* enforce that the public symbols of the documented packages actually
  carry docstrings, so the coverage achieved by the docs pass sticks.
"""

import doctest
import importlib
import inspect
import os
import pkgutil

import pytest


def _modules():
    """Every module under ``repro`` but ``__main__`` (importing it runs
    the command line)."""
    import repro

    return [info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if not info.name.endswith(".__main__")]


DOCTEST_MODULES = ["repro"] + _modules()

DOCUMENTED_PACKAGES = [
    "repro.sketch",
    "repro.core",
    "repro.net.chaos",
    "repro.testing",
    "repro.exec",
    "repro.mempool",
    "repro.workload",
    "repro.obs",
]


@pytest.mark.parametrize("name", DOCTEST_MODULES)
def test_module_doctests_pass(name):
    module = importlib.import_module(name)
    failures, tried = doctest.testmod(module, verbose=False)
    assert failures == 0
    # gf/pinsketch carry worked examples; an empty run means they vanished.
    if name.startswith("repro.sketch.") and name != "repro.sketch.partition":
        assert tried > 0, f"{name} lost its doctests"


def test_sketch_doc_examples():
    """docs/sketch.md's worked example runs verbatim."""
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "sketch.md")
    failures, tried = doctest.testfile(path, module_relative=False,
                                       verbose=False)
    assert failures == 0
    assert tried > 0, "docs/sketch.md lost its worked example"


def test_mempool_doc_examples():
    """docs/mempool.md's worked example runs verbatim."""
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "mempool.md")
    failures, tried = doctest.testfile(path, module_relative=False,
                                       verbose=False)
    assert failures == 0
    assert tried > 0, "docs/mempool.md lost its worked example"


def test_observability_doc_examples():
    """docs/observability.md's worked example runs verbatim."""
    path = os.path.join(os.path.dirname(__file__), "..", "docs",
                        "observability.md")
    failures, tried = doctest.testfile(path, module_relative=False,
                                       verbose=False)
    assert failures == 0
    assert tried > 0, "docs/observability.md lost its worked example"


def _public_symbols(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", "").startswith("repro"):
                yield name, obj


def _iter_modules(package_name):
    package = importlib.import_module(package_name)
    yield package
    if hasattr(package, "__path__"):
        for info in pkgutil.iter_modules(package.__path__):
            if not info.name.startswith("_"):
                yield importlib.import_module(f"{package_name}.{info.name}")


@pytest.mark.parametrize("package_name", DOCUMENTED_PACKAGES)
def test_public_symbols_have_docstrings(package_name):
    missing = []
    for module in _iter_modules(package_name):
        if not module.__doc__:
            missing.append(module.__name__)
        for name, obj in _public_symbols(module):
            if not inspect.getdoc(obj):
                missing.append(f"{module.__name__}.{name}")
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if callable(member) or isinstance(member, property):
                        if not inspect.getdoc(member):
                            missing.append(f"{module.__name__}.{name}.{attr}")
    assert not missing, f"undocumented public symbols: {sorted(set(missing))}"
