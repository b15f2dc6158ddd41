"""Tracer units: self-time arithmetic, pass-through, install/uninstall."""

import pytest

from lobench.trace import ROOT, Tracer


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_nested_self_time_excludes_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        leaf_t()
        leaf_t()
        clock.advance(0.5)

    def top():
        clock.advance(0.25)
        middle_t()
        clock.advance(0.25)

    leaf_t = tracer.wrap("leaf", leaf)
    middle_t = tracer.wrap("middle", middle)
    top_t = tracer.wrap("top", top)
    top_t()
    leaf_t()

    assert tracer.self_s[("leaf", "middle")] == pytest.approx(4.0)
    assert tracer.calls[("leaf", "middle")] == 2
    assert tracer.self_s[("middle", "top")] == pytest.approx(1.5)
    assert tracer.self_s[("top", ROOT)] == pytest.approx(0.5)
    assert tracer.self_s[("leaf", ROOT)] == pytest.approx(2.0)
    # Top-level spans cover 6 + 2 seconds; self times partition them.
    assert tracer.top_level_s == pytest.approx(8.0)
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.top_level_s)
    assert tracer.layers()["leaf"] == {"calls": 3, "self_s": pytest.approx(6.0)}


def test_same_layer_call_stays_inside_the_open_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    entered = []

    def inner():
        clock.advance(1.0)

    def outer():
        clock.advance(1.0)
        inner_t()

    inner_t = tracer.wrap("net.send", inner, on_enter=lambda: entered.append(1))
    outer_t = tracer.wrap("net.send", outer, on_enter=lambda: entered.append(1))
    outer_t()
    assert tracer.calls == {("net.send", ROOT): 1}
    assert tracer.self_s[("net.send", ROOT)] == pytest.approx(2.0)
    assert entered == [1]


def test_wrapper_passes_values_and_exceptions_through():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def answer(x, scale=1):
        clock.advance(1.0)
        return x * scale

    def broken():
        clock.advance(3.0)
        raise KeyError("boom")

    assert tracer.wrap("a", answer)(21, scale=2) == 42
    with pytest.raises(KeyError, match="boom"):
        tracer.wrap("b", broken)()
    # The failed span is closed and charged like any other.
    assert tracer.self_s[("b", ROOT)] == pytest.approx(3.0)
    assert tracer._stack == []
    assert tracer.wrap("a", answer).__wrapped__ is answer


def test_clear_keeps_installed_wrappers_recording():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    step = tracer.wrap("a", lambda: clock.advance(1.0))
    step()
    tracer.clear()
    assert not tracer.calls and tracer.top_level_s == 0.0
    step()
    assert tracer.calls[("a", ROOT)] == 1


def test_install_rebinds_and_uninstall_restores():
    from repro.attacks.censorship import CensoringNode
    from repro.core.node import LONode
    from repro.crypto import keys
    from repro.mempool import transaction
    from repro.net.network import Network
    from repro.sketch.pinsketch import PinSketch

    watched = [
        (PinSketch, "decode"), (PinSketch, "from_packed"), (PinSketch, "add"),
        (Network, "send_fanout"), (LONode, "on_message"),
        (LONode, "_sync_tick"), (CensoringNode, "on_message"),
        (keys.KeyPair, "sign"),
    ]
    before = [owner.__dict__[name] for owner, name in watched]
    original_verify = keys.verify
    assert transaction.verify is original_verify

    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
        for (owner, name), raw in zip(watched, before):
            assert owner.__dict__[name] is not raw
        assert PinSketch.decode.__wrapped__ is before[0]
        assert isinstance(PinSketch.__dict__["from_packed"], classmethod)
        assert keys.verify is not original_verify
        assert transaction.verify is not original_verify  # importer's copy

        sketch = PinSketch.from_packed(0, capacity=16)
        sketch.add_all([11, 22, 33])
        assert sketch.decode() == {11, 22, 33}
        assert sketch.decode() == {11, 22, 33}
    finally:
        tracer.uninstall()

    for (owner, name), raw in zip(watched, before):
        assert owner.__dict__[name] is raw
    assert keys.verify is original_verify
    assert transaction.verify is original_verify

    degrees = [(span[3], span[4]) for span in tracer.decodes]
    assert degrees == [(3, True), (3, False)]  # a miss, then a cache hit
    layers = tracer.layers()
    assert layers["sketch.decode"]["calls"] == 2
    assert layers["sketch.update"]["calls"] >= 2  # from_packed, add_all


def test_failed_decode_is_a_span_of_degree_minus_one():
    from repro.sketch.pinsketch import PinSketch, SketchDecodeError

    tracer = Tracer()
    tracer.install()
    try:
        sketch = PinSketch(capacity=4)
        sketch.add_all(range(1000, 1040))  # far beyond the capacity
        with pytest.raises(SketchDecodeError):
            sketch.decode()
    finally:
        tracer.uninstall()
    assert [span[3] for span in tracer.decodes] == [-1]


def test_traced_run_accounts_for_all_of_run_s():
    """Sum of layer self times plus ``sim.loop.self_s`` is the traced run_s."""
    import time

    from lobench.child import per_layer_metrics, simulated_stats
    from lobench.workloads import WORKLOADS

    workload = WORKLOADS["steady_gossip"]
    tracer = Tracer()
    tracer.install()
    try:
        sim = workload.construct(5, True)
        workload.inject(sim, 5, True)
        tracer.clear()
        started = time.perf_counter()
        sim.run(workload.horizon(True))
        run_s = time.perf_counter() - started
    finally:
        tracer.uninstall()
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.top_level_s)
    assert 0.0 < tracer.top_level_s <= run_s

    phases = {"run_s": run_s, "import_s": 0.0, "field_s": 0.0,
              "construct_s": 0.0, "inject_s": 0.0}
    metrics = per_layer_metrics(tracer, simulated_stats(sim, None), phases,
                                run_s, 1.0)
    total = sum(value for name, value in metrics.items()
                if name.endswith(".self_s"))
    assert total == pytest.approx(run_s, rel=0.01)
    assert metrics["sketch.decode.calls"] > 0
    assert metrics["core.node.on_message.calls"] == metrics["net.messages"]
