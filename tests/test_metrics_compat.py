"""``repro.metrics`` is only the names ``lobench`` imports, re-exported.

The measurement code lives in :mod:`repro.obs`.  The compatibility
modules must hand out the very objects the simulation increments, and
nothing else in the repository may import them.
"""

import os
import re

import repro.metrics.caches as compat_caches
import repro.metrics.stats as compat_stats
from repro.obs import caches, stats
from repro.sketch.pinsketch import PinSketch, clear_decode_cache

ROOT = os.path.join(os.path.dirname(__file__), "..")

#: Files allowed to name ``repro.metrics``: the package and this test.
ALLOWED = {
    os.path.join("src", "repro", "metrics", "__init__.py"),
    os.path.join("src", "repro", "metrics", "caches.py"),
    os.path.join("src", "repro", "metrics", "stats.py"),
    os.path.join("tests", "test_metrics_compat.py"),
}

IMPORT = re.compile(r"^\s*(from\s+repro\.metrics\b|import\s+repro\.metrics\b"
                    r"|from\s+repro\s+import\s+.*\bmetrics\b)", re.M)


def test_compat_names_are_the_obs_objects():
    assert compat_caches.cache_stats is caches.cache_stats
    assert compat_caches.register_cache is caches.register_cache
    assert compat_stats.percentile is stats.percentile
    assert compat_caches.__all__ == ["cache_stats", "register_cache"]
    assert compat_stats.__all__ == ["percentile"]

    # lobench reads decode misses through this stats object.
    decode_stats = compat_caches.register_cache("sketch.decode")
    assert decode_stats is caches.register_cache("sketch.decode")
    clear_decode_cache()
    misses = decode_stats.misses
    sketch = PinSketch(capacity=4, m=32)
    sketch.add(7)
    assert sketch.decode() == {7}
    assert decode_stats.misses == misses + 1
    assert compat_caches.cache_stats()["sketch.decode"]["misses"] == misses + 1


def test_nothing_else_imports_repro_metrics():
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
                    if IMPORT.search(stream.read()):
                        offenders.append(rel)
    assert not offenders, f"import repro.obs instead: {sorted(offenders)}"
