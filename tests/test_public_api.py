"""The public API surface: everything README/docs reference must import."""

import importlib

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.sim",
    "repro.net",
    "repro.crypto",
    "repro.sketch",
    "repro.bloomclock",
    "repro.chain",
    "repro.mempool",
    "repro.mempool.admission",
    "repro.mempool.priority",
    "repro.mempool.fee_market",
    "repro.mempool.drain",
    "repro.mempool.evict",
    "repro.mempool.limiter",
    "repro.mempool.watermark",
    "repro.gossip",
    "repro.core",
    "repro.core.enforcement",
    "repro.core.client",
    "repro.core.wire",
    "repro.net.chaos",
    "repro.testing",
    "repro.baselines",
    "repro.attacks",
    "repro.workload",
    "repro.workload.bursty",
    "repro.workload.hotkey",
    # Compatibility modules; they go with lobench's last import of them.
    "repro.metrics",
    "repro.metrics.caches",
    "repro.metrics.stats",
    "repro.obs",
    "repro.obs.caches",
    "repro.obs.stats",
    "repro.obs.trackers",
    "repro.obs.tracer",
    "repro.obs.registry",
    "repro.obs.export",
    "repro.obs.schema",
    "repro.obs.report",
    "repro.obs.timeline",
    "repro.obs.steady",
    "repro.obs.phases",
    "repro.exec",
    "repro.exec.tasks",
    "repro.exec.worker",
    "repro.exec.engine",
    "repro.exec.spool",
    "repro.experiments",
    "repro.experiments.fig6_detection",
    "repro.experiments.fig7_mempool_latency",
    "repro.experiments.fig8_block_latency",
    "repro.experiments.fig9_bandwidth",
    "repro.experiments.fig10_reconciliations",
    "repro.experiments.sec65_cpu",
    "repro.experiments.sec65_memory",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_imports(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_dunder_all_resolves(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_metrics_convenience_exports():
    """Measurement helpers are importable from the ``repro.obs`` root."""
    from repro.obs import (  # noqa: F401
        CacheStats,
        EventCounter,
        LatencyTracker,
        cache_stats,
        describe,
        format_table,
        mean,
        percentile,
        register_cache,
        reset_caches,
        stddev,
        to_jsonable,
        write_json,
    )
    from repro import obs

    # The one Histogram is the density one in stats; the root has none.
    assert not hasattr(obs, "Histogram")


def test_version():
    import repro

    assert repro.__version__


def test_readme_quickstart_snippet():
    """The exact flow shown in README runs."""
    from repro.experiments.harness import LOSimulation, SimulationParams

    sim = LOSimulation(SimulationParams(num_nodes=10, seed=7,
                                        enable_blocks=True))
    sim.inject_workload(rate_per_s=3.0, duration_s=4.0)
    sim.run(8.0)
    lat = sim.mempool_tracker.all_latencies()
    assert lat
    assert not any(n.acct.exposed for n in sim.nodes.values())
