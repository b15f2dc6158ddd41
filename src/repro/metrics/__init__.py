"""Compatibility names for the benchmark harness; use :mod:`repro.obs`.

The measurement code lives in :mod:`repro.obs`.  ``lobench`` still
imports ``repro.metrics.caches.{cache_stats, register_cache}`` and
``repro.metrics.stats.percentile``, so the two submodules here re-export
exactly those names.  The package goes when a benchmark change moves
lobench's imports to :mod:`repro.obs`.
"""
