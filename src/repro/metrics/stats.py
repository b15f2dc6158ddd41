"""Re-exports :func:`repro.obs.stats.percentile` for ``lobench``.

Goes when a benchmark change moves lobench's imports to :mod:`repro.obs`.
"""

from repro.obs.stats import percentile

__all__ = ["percentile"]
