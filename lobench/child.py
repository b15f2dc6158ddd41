"""One cold repeat, in a fresh interpreter: ``python -m lobench.child``.

Builds one workload from the seed, times import / field tables /
construction / injection / ``sim.run`` with ``time.perf_counter``, checks
the simulated outcome and prints one JSON object on its last output
line.  With ``--trace FILE`` the layer wrappers of :mod:`lobench.trace`
are installed before construction (so timers scheduled at start-up are
wrapped too) and the spans are written to ``FILE`` when the run ends.
``--preflight`` instead checks sketch decoding against brute force.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # as close to interpreter start as a module gets

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence  # noqa: E402


class DetectionProbe:
    """Fig. 6's poll: when had every correct node reached each verdict?

    ``exposure_at`` is the simulated time by which every correct node
    held an exposure of every id in ``exposed``; ``suspicion_at`` the
    time by which each had, at some poll, suspected (or exposed) every
    id in ``suspected`` -- a suspicion is dropped again whenever the
    accused looks up to date, so they rarely all hold at one instant.
    """

    INTERVAL_S = 0.25

    def __init__(self, sim, exposed: Sequence[int], suspected: Sequence[int]):
        self.sim = sim
        self.exposed = [sim.directory.key_of(i) for i in exposed]
        self.suspected = [sim.directory.key_of(i) for i in suspected]
        self.pending_exposure = set(sim.correct_ids)
        self.pending_suspicion = set(sim.correct_ids)
        self.exposure_at: Optional[float] = None
        self.suspicion_at: Optional[float] = None
        sim.loop.call_later(self.INTERVAL_S, self._poll)

    def _poll(self) -> None:
        sim = self.sim
        for node_id in sorted(self.pending_exposure | self.pending_suspicion):
            acct = sim.nodes[node_id].acct
            if all(acct.is_exposed(k) for k in self.exposed):
                self.pending_exposure.discard(node_id)
            if all(acct.is_suspected(k) or acct.is_exposed(k)
                   for k in self.suspected):
                self.pending_suspicion.discard(node_id)
        if self.exposure_at is None and not self.pending_exposure:
            self.exposure_at = sim.loop.now
        if self.suspicion_at is None and not self.pending_suspicion:
            self.suspicion_at = sim.loop.now
        if self.pending_exposure or self.pending_suspicion:
            sim.loop.call_later(self.INTERVAL_S, self._poll)


#: Seconds :func:`calibrate` takes at the host speed timings are scaled to.
CALIBRATION_REFERENCE_S = 0.5


def calibrate(steps: int = 600_000) -> float:
    """Seconds a fixed event-loop-shaped pure-Python loop takes right now.

    The host slows every CPU-bound process by 30-100% for minutes at a
    time (same work, same CPU time share, twice the seconds).  This loop
    runs immediately before and after ``sim.run`` and measures the speed
    of the moment, so timings can be scaled to a reference speed.  The
    collector is off so the simulation's heap size does not enter.
    """
    import gc
    import heapq

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        heap: List[Any] = []
        slots: Dict[int, Any] = {}
        started = time.perf_counter()
        for step in range(steps):
            heapq.heappush(
                heap, [((step * 7919) % 10007) / 1000.0, step, None, (step,)]
            )
            if len(heap) > 512:
                entry = heapq.heappop(heap)
                slots[entry[1] % 4096] = entry
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def cold_state() -> Dict[str, Any]:
    """What a fresh process must look like before the workload is built."""
    from repro import obs
    from repro.metrics.caches import cache_stats
    from repro.sketch.pinsketch import PinSketch

    caches = cache_stats()
    return {
        "decode_cache_size": caches["sketch.decode"]["size"],
        "syndrome_cache_size": caches["sketch.syndromes"]["size"],
        "decode_wrapped": hasattr(PinSketch.decode, "__wrapped__"),
        "obs_tracer_enabled": obs.TRACER.enabled,
        "obs_timeline_installed": obs.TIMELINE is not None,
        "obs_profiler_installed": obs.PROFILER is not None,
    }


def simulated_stats(sim, probe: Optional[DetectionProbe]) -> Dict[str, Any]:
    """Everything the simulated clock decided; equal seed, equal dict."""
    correct = sim.correct_nodes()
    correct_ids = set(sim.correct_ids)
    items = sim.mempool_tracker.items()
    committed = sum(1 for node in correct for item in items if item in node.log)
    exposures = sorted(
        (node.node_id, sim.directory.id_of(key))
        for node in correct for key in node.acct.exposed
    )
    return {
        "events": sim.loop.processed_events,
        "txs": len(items),
        "latencies": sorted(sim.mempool_tracker.all_latencies()),
        "committed_at_correct": committed,
        "correct_nodes": len(correct),
        "overhead_bytes": sim.total_overhead_bytes(),
        "net": sim.network.collect_metrics(),
        "heights": [sim.nodes[i].ledger.height for i in sorted(sim.nodes)],
        "chain_height": sim.canonical_height,
        "exposures": exposures,
        "correct_exposed": [e for e in exposures if e[1] in correct_ids],
        "counters": dict(sorted(sim.counter.totals().items())),
        "admission": sim.admission_breakdown(),
        "exposure_at": probe.exposure_at if probe else None,
        "suspicion_at": probe.suspicion_at if probe else None,
    }


def per_layer_metrics(tracer, stats: Dict[str, Any], phases: Dict[str, float],
                      run_cpu_s: float, host_speed: float) -> Dict[str, float]:
    """The scalar per-layer metrics of one traced run."""
    from repro.metrics.caches import cache_stats

    layers = tracer.layers()
    run_s = phases["run_s"]
    out: Dict[str, float] = {}

    def layer(name: str) -> Dict[str, float]:
        row = layers.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
        return row

    layer("sketch.decode")
    misses = [span for span in tracer.decodes if span[4]]
    decoded = [span[3] for span in tracer.decodes if span[3] > 0]
    out["sketch.decode.ms_per_miss"] = (
        1e3 * sum(end - start for start, end, *_ in misses) / len(misses)
        if misses else 0.0
    )
    out["sketch.decode.mean_degree"] = (
        sum(decoded) / len(decoded) if decoded else 0.0
    )
    out["sketch.decode.failures"] = sum(
        1 for span in tracer.decodes if span[3] < 0
    )
    caches = cache_stats()
    out["sketch.decode.cache_hit_rate"] = caches["sketch.decode"]["hit_rate"]
    out["sketch.syndromes.cache_hit_rate"] = \
        caches["sketch.syndromes"]["hit_rate"]
    layer("sketch.update")
    layer("net.send")
    net = stats["net"]
    out["net.messages"] = net["delivered"]
    out["net.bytes"] = net["bytes.overhead"] + net["bytes.payload"]
    out["net.drops"] = net["dropped"]
    out["sim.loop.events"] = stats["events"]
    out["sim.loop.self_s"] = run_s - tracer.top_level_s
    out["sim.loop.events_per_s"] = stats["events"] / run_s
    layer("core.node.on_message")
    layer("core.node.tick")
    counters = stats["counters"]
    out["core.node.wire_violations"] = counters.get("wire_violations", 0)
    out["core.accountability.exposures"] = len(stats["exposures"])
    out["core.accountability.suspicion_msgs"] = \
        tracer.msgs_by_type.get("lo/suspicion", 0)
    out["core.accountability.exposure_convergence_sim_s"] = \
        stats["exposure_at"] or 0.0
    out["core.accountability.suspicion_convergence_sim_s"] = \
        stats["suspicion_at"] or 0.0
    layer("core.inspection")
    builder = layers.get("core.blockbuilder", {"calls": 0, "self_s": 0.0})
    out["core.blockbuilder.blocks"] = builder["calls"]
    out["core.blockbuilder.self_s"] = builder["self_s"]
    out["chain.height"] = stats["chain_height"]
    layer("crypto")
    layer("bloomclock")
    layer("mempool.txlog")
    admits = layer("mempool.admit")["calls"]
    out["mempool.admit.rejected_share"] = (
        counters.get("admission_rejects", 0) / admits if admits else 0.0
    )
    layer("mempool.drain")
    for name in ("import_s", "field_s", "construct_s", "inject_s"):
        out[f"experiments.harness.{name}"] = phases[name]
    out["proc.host_speed"] = host_speed
    out["proc.run_wall_s"] = run_s
    out["proc.run_cpu_s"] = run_cpu_s
    out["proc.cpu_wall_ratio"] = run_cpu_s / run_s
    return out


def measure(name: str, seed: int, quick: bool,
            trace_path: Optional[str]) -> Dict[str, Any]:
    """Build, run and check one workload; the child's JSON document."""
    from repro.metrics.stats import percentile
    from repro.sketch.gf import default_field, fast_path_active
    from lobench.workloads import WORKLOADS

    imported = time.perf_counter()
    default_field(32)
    field_ready = time.perf_counter()
    cold = cold_state()
    workload = WORKLOADS[name]
    tracer = None
    if trace_path is not None:
        from lobench.trace import Tracer

        tracer = Tracer()
        tracer.install()
    constructing = time.perf_counter()
    sim = workload.construct(seed, quick)
    constructed = time.perf_counter()
    workload.inject(sim, seed, quick)
    probe = None
    if workload.exposed or workload.suspected:
        probe = DetectionProbe(sim, workload.exposed, workload.suspected)
    horizon = workload.horizon(quick)
    if tracer is not None:
        tracer.clear()  # set-up spans are not part of the run's attribution
    ready = time.perf_counter()
    calibration = [calibrate()]
    cpu_before = time.process_time()
    running = time.perf_counter()
    sim.run(horizon)
    done = time.perf_counter()
    run_cpu_s = time.process_time() - cpu_before
    calibration.append(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    phases = {
        "import_s": imported - _START,
        "field_s": field_ready - imported,
        "construct_s": constructed - constructing,
        "inject_s": ready - constructed,
        "setup_s": ready - _START,
        "run_s": done - running,
    }
    # > 1 when the host was faster than the reference during this child.
    host_speed = CALIBRATION_REFERENCE_S * len(calibration) / sum(calibration)
    stats = simulated_stats(sim, probe)
    digest = hashlib.sha256(
        json.dumps(stats, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    latencies = stats.pop("latencies")
    stats.pop("heights")
    deliveries = len(latencies)
    end_to_end = {
        "setup_s": phases["setup_s"] * host_speed,
        "run_s": phases["run_s"] * host_speed,
        "sim_s_per_wall_s": horizon / (phases["run_s"] * host_speed),
        "peak_rss_mb": peak_rss_mb,
        "mempool_latency_p50_sim_s": percentile(latencies, 50),
        "mempool_latency_p95_sim_s": percentile(latencies, 95),
        "overhead_bytes_per_delivery": stats["overhead_bytes"] / deliveries,
        "undelivered_share": 1.0 - stats["committed_at_correct"]
        / (stats["txs"] * stats["correct_nodes"]),
    }
    checks = {
        "cold_start": tracer is not None or not any(cold.values()),
        "no_correct_node_exposed": not stats["correct_exposed"],
        "colluders_exposed": sim.all_exposed(workload.exposed),
        "colluders_suspected": probe is None or probe.suspicion_at is not None,
    }
    result = {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "traced": tracer is not None,
        "horizon_s": horizon,
        "phases": phases,
        "calibration_s": calibration,
        "host_speed": host_speed,
        "run_cpu_s": run_cpu_s,
        "cpu_wall_ratio": run_cpu_s / phases["run_s"],
        "end_to_end": end_to_end,
        "deliveries": deliveries,
        "stats": stats,
        "stats_sha256": digest,
        "cold": cold,
        "checks": checks,
        "env": {
            "python": sys.version.split()[0],
            "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
            "fast_path_active": fast_path_active(),
        },
    }
    if tracer is not None:
        result["per_layer"] = per_layer_metrics(
            tracer, stats, phases, run_cpu_s, host_speed
        )
        document = tracer.to_json()
        document.update(workload=name, seed=seed, run_s=phases["run_s"],
                        per_layer=result["per_layer"])
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
    return result


def preflight(seed: int, pairs: int = 200, max_diff: int = 6) -> Dict[str, Any]:
    """Decode ``pairs`` random sketch differences against brute force.

    Every pair shares 40 elements and differs in 1..``max_diff`` more, so
    ``(a ^ b).decode()`` must equal the true symmetric difference.  The
    differences stay small because one degree-64 decode costs ~0.7 s here.
    """
    from repro.sketch.pinsketch import PinSketch

    rng = random.Random(seed)
    started = time.perf_counter()
    wrong = 0
    for _ in range(pairs):
        diff = rng.randint(1, max_diff)
        elements = rng.sample(range(1, 1 << 32), 40 + diff)
        cut = rng.randint(0, diff)
        left = set(elements[:40 + cut])
        right = set(elements[:40]) | set(elements[40 + cut:])
        a, b = PinSketch(capacity=32), PinSketch(capacity=32)
        a.add_all(left)
        b.add_all(right)
        if (a ^ b).decode() != left ^ right:
            wrong += 1
    return {
        "preflight": True,
        "pairs": pairs,
        "wrong": wrong,
        "seconds": time.perf_counter() - started,
        "checks": {"decode_matches_brute_force": wrong == 0},
    }


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: one JSON line on stdout, exit 1 on a failed check."""
    parser = argparse.ArgumentParser(prog="python -m lobench.child")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", metavar="FILE")
    parser.add_argument("--preflight", action="store_true")
    args = parser.parse_args(argv)
    if args.preflight:
        result = preflight(args.seed)
    else:
        result = measure(args.workload, args.seed, args.quick, args.trace)
    print(json.dumps(result))
    return 0 if all(result["checks"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
