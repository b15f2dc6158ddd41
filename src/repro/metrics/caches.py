"""Re-exports :mod:`repro.obs.caches` names for ``lobench``.

Goes when a benchmark change moves lobench's imports to :mod:`repro.obs`.
"""

from repro.obs.caches import cache_stats, register_cache

__all__ = ["cache_stats", "register_cache"]
