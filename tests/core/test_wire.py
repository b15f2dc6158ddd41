"""Unit tests for ingress schema validation and peer quarantine."""

import dataclasses
import random

import pytest

from repro.core import wire
from repro.core.accountability import SuspicionBlame
from repro.core.commitment import sign_header
from repro.core.reconciliation import (
    ContentRequest,
    ContentResponse,
    SplitSpec,
    SyncRequest,
    SyncResponse,
)
from repro.core.wire import PeerQuarantine, validate_payload
from repro.crypto.keys import KeyPair
from repro.bloomclock import BloomClock
from repro.mempool.transaction import make_transaction
from repro.obs.caches import cache_stats, reset_caches
from repro.net.chaos import corrupt_payload
from repro.sketch import PinSketch, pack_syndromes


def make_header(seed=b"wire-test", seq=0):
    keypair = KeyPair.generate(seed=seed)
    return sign_header(
        keypair, seq=seq, tx_count=0, digests=(), clock=BloomClock(cells=32)
    )


def make_sync_request():
    return SyncRequest(
        request_id=1,
        header=make_header(),
        spec=SplitSpec(tuple(range(4))),
        sketch=PinSketch(capacity=8, m=32),
    )


def test_well_formed_payloads_pass():
    assert validate_payload("lo/sync_req", make_sync_request()) is None
    assert validate_payload("lo/commit_upd", make_header()) is None
    assert validate_payload("lo/content_req", ContentRequest(0, (1, 2))) is None
    assert validate_payload("lo/block_req", 3) is None
    assert validate_payload("lo/status_query", (1_000_000, 42)) is None
    tx = make_transaction(KeyPair.generate(seed=b"c"), 1, fee=5, created_at=0.0)
    assert validate_payload("lo/client_submit", tx) is None
    assert validate_payload("lo/content_resp", ContentResponse(0, (tx,))) is None


def test_type_confusion_rejected():
    request = make_sync_request()
    for msg_type in ("lo/sync_req", "lo/sync_resp", "lo/commit_upd",
                     "lo/suspicion", "lo/exposure", "lo/block",
                     "lo/content_req", "lo/content_resp", "lo/client_submit"):
        for garbage in (None, 42, b"\x00" * 8, "boo", [], {}, (1, 2, 3)):
            assert validate_payload(msg_type, garbage) is not None
    # The right dataclass under the wrong type tag is also rejected.
    assert validate_payload("lo/sync_resp", request) is not None
    assert validate_payload("lo/block_req", request) is not None


def test_field_level_corruption_rejected():
    request = make_sync_request()
    bad_header = dataclasses.replace(request, header=b"not-a-header")
    assert "header" in validate_payload("lo/sync_req", bad_header)
    bad_spec = dataclasses.replace(request, spec=SplitSpec((-1, 2)))
    assert "cells" in validate_payload("lo/sync_req", bad_spec)
    bad_id = dataclasses.replace(request, request_id="nope")
    assert "request_id" in validate_payload("lo/sync_req", bad_id)


def _sketch_with(packed, capacity=16, m=32):
    """A sketch whose fields were set past every constructor check."""
    sketch = PinSketch(capacity=1, m=32)
    sketch.capacity, sketch.m, sketch.packed = capacity, m, packed
    return sketch


# ``capacity`` slots of m bits are exactly the ints in [0, 2^(m*capacity)):
# a negative value or a bit at or past m*capacity is the only way an int
# can be malformed.
@pytest.mark.parametrize("sketch,reason", [
    (_sketch_with(-5), "outside GF(2^32)"),
    (_sketch_with(-1 << 480), "outside GF(2^32)"),  # -1 in the top slot
    (_sketch_with(1 << 512), "outside GF(2^32)"),  # the first bit past it
    (_sketch_with(((1 << 64) + 3) << 480), "outside GF(2^32)"),
    (_sketch_with(1 << 256, m=16), "outside GF(2^16)"),
    (_sketch_with((1 << 1024) - 1), "expected 16 syndromes"),  # 32 slots
    (_sketch_with(0xFFFFFFFF << 512), "expected 16 syndromes"),  # a 17th
    (_sketch_with(1 << 32_000), "expected 16 syndromes"),  # the 1,001st
    (_sketch_with(1.0), "non-integer syndrome"),
    (_sketch_with(True), "non-integer syndrome"),
    (_sketch_with("7"), "non-integer syndrome"),
    (_sketch_with(None), "non-integer syndrome"),
    (_sketch_with(0, m=31), "sketch.m"),
    (_sketch_with(0, m="32"), "sketch.m"),
    (_sketch_with(0, m=True), "sketch.m"),
    (_sketch_with(0, capacity=0), "sketch.capacity"),
    (_sketch_with(0, capacity=16.0), "sketch.capacity"),
    (_sketch_with(0, capacity=True), "sketch.capacity"),
])
def test_malformed_sync_sketches_rejected(sketch, reason):
    request = dataclasses.replace(make_sync_request(), sketch=sketch)
    error = validate_payload("lo/sync_req", request)
    assert error is not None and reason in error, error


def test_sketches_at_the_field_bounds_pass():
    top = (1 << 32) - 1
    for packed in (0, (1 << 512) - 1, pack_syndromes([top, 0] * 8, 32)):
        request = dataclasses.replace(
            make_sync_request(), sketch=_sketch_with(packed))
        assert validate_payload("lo/sync_req", request) is None
    request = dataclasses.replace(
        make_sync_request(), sketch=_sketch_with((1 << 64) - 1, 4, m=16))
    assert validate_payload("lo/sync_req", request) is None


@pytest.mark.parametrize("packed", [-5, 1 << 512, (1 << 1024) - 1],
                         ids=["negative", "past-the-top-slot", "32-slots"])
def test_malformed_sketch_is_a_violation_before_any_handler_work(
        packed, monkeypatch):
    """No decode and no split reply: only the violation is counted."""
    import repro.core.node as node_module
    from tests.conftest import make_sim
    from repro.core.node import LONode
    from repro.core.reconciliation import full_range_spec
    from repro.net.message import Message

    sim = make_sim(num_nodes=4)
    requester, responder = sim.nodes[0], sim.nodes[1]
    decoded = []
    monkeypatch.setattr(node_module, "decode_difference",
                        lambda *args: decoded.append(args))
    sent = []
    monkeypatch.setattr(LONode, "_send",
                        lambda self, *args, **kwargs: sent.append(args))
    request = SyncRequest(
        request_id=1, header=requester.header(),
        spec=full_range_spec(requester.config.clock_cells),
        sketch=_sketch_with(packed))
    responder.on_message(Message(requester.node_id, responder.node_id,
                                 "lo/sync_req", request, 64))
    assert decoded == [] and sent == []
    assert sim.wire_violation_totals() == {responder.node_id: 1}


def test_sync_response_status_enum_enforced():
    response = SyncResponse(request_id=1, header=make_header(), status="pwned")
    assert "status" in validate_payload("lo/sync_resp", response)


@pytest.mark.parametrize("cells,clock_cells,reason", [
    # Each shape reached the handler before ingress checked it.
    ((0, 40), 32, "spec.cells: cell 40 beyond 32"),
    ((3, 3, 3), 32, "spec.cells: not strictly increasing"),
    ((5, 2), 32, "spec.cells: not strictly increasing"),
    ((0, 1, 2), 8, "header.clock: 8 cells, expected 32"),
    (tuple(range(32)), 64, "header.clock: 64 cells, expected 32"),
], ids=["cell-beyond-clock", "repeated-cell", "descending", "narrow-clock",
        "wide-clock"])
def test_malformed_spec_or_clock_is_a_violation_before_any_handler_work(
        cells, clock_cells, reason, monkeypatch):
    """No decode, no reply, no stored header -- and the node runs on."""
    import repro.core.node as node_module
    from repro.core.node import LONode
    from repro.net.message import Message
    from repro.obs import Tracer, recording
    from tests.conftest import make_sim

    sim = make_sim(num_nodes=6)
    requester, responder = sim.nodes[0], sim.nodes[1]
    header = sign_header(requester.keypair, seq=0, tx_count=0, digests=(),
                         clock=BloomClock(cells=clock_cells))
    request = SyncRequest(request_id=1, header=header, spec=SplitSpec(cells),
                          sketch=PinSketch(capacity=8, m=32))
    decoded, sent = [], []
    with monkeypatch.context() as patch:
        patch.setattr(node_module, "decode_difference",
                      lambda *args: decoded.append(args))
        patch.setattr(LONode, "_send",
                      lambda self, *args, **kwargs: sent.append(args))
        tracer = Tracer()
        with recording(tracer=tracer):
            responder.on_message(Message(requester.node_id,
                                         responder.node_id, "lo/sync_req",
                                         request, 64))
    assert decoded == [] and sent == []
    assert sim.wire_violation_totals() == {responder.node_id: 1}
    [violation] = [r for r in tracer.records if r["name"] == "wire.violation"]
    assert violation["attrs"]["reason"] == reason
    if clock_cells != 32:  # a same-width header is salvaged as evidence
        assert responder.acct.latest_header(requester.public_key) is None
    # A stored clock of another width used to crash the next sync tick.
    for index in range(6):
        sim.inject_at(0.1 + 0.1 * index, index)
    sim.run(4.0)
    assert sim.wire_violation_totals() == {responder.node_id: 1}


def test_a_split_spec_with_a_repeated_cell_is_rejected():
    response = SyncResponse(request_id=1, header=make_header(),
                            status="split",
                            split_specs=(SplitSpec((1, 2)), SplitSpec((3, 3))))
    error = validate_payload("lo/sync_resp", response)
    assert error == "split_specs[1].cells: not strictly increasing"
    beyond = dataclasses.replace(response, split_specs=(SplitSpec((31, 32)),))
    assert "beyond 32" in validate_payload("lo/sync_resp", beyond)


def test_a_clock_with_the_wrong_number_of_counters_is_rejected():
    header = make_header()
    clock = BloomClock(cells=32)
    clock.counters = [0] * 8
    request = dataclasses.replace(
        make_sync_request(), header=dataclasses.replace(header, clock=clock))
    assert validate_payload("lo/sync_req", request) == \
        "header.clock: expected 32 counters"


@pytest.mark.parametrize("position", [0, 2, 4])
def test_a_non_bytes_digest_is_rejected_at_any_position(position):
    """The first, a middle and the last digest are each checked."""
    digests = [bytes([n]) * 32 for n in range(5)]
    header = make_header(seq=5)
    clean = dataclasses.replace(header, digests=tuple(digests))
    assert validate_payload("lo/commit_upd", clean) is None
    digests[position] = digests[position].hex()
    bad = dataclasses.replace(header, digests=tuple(digests))
    assert validate_payload("lo/commit_upd", bad) == \
        "payload.digests: non-bytes element"


def test_an_honest_run_records_no_violation():
    from tests.conftest import make_sim

    sim = make_sim(num_nodes=12)
    sim.inject_workload(rate_per_s=6.0, duration_s=3.0)
    sim.run(6.0)
    assert sim.wire_violation_totals() == {}
    assert any(len(node.log) for node in sim.nodes.values())


def test_bool_is_not_an_int():
    # bools slip through isinstance(int) checks unless explicitly excluded.
    assert validate_payload("lo/block_req", True) is not None


def test_unknown_message_type_is_violation():
    assert "unknown message type" in validate_payload("lo/evil", None)


def test_validator_crash_becomes_reason_not_exception():
    class Hostile:
        def __getattr__(self, name):
            raise RuntimeError("gotcha")

    # Hostile objects must never escape the validator as exceptions.
    for msg_type in ("lo/sync_req", "lo/commit_upd", "lo/status_query"):
        reason = validate_payload(msg_type, Hostile())
        assert reason is not None


def test_nan_raised_at_rejected():
    key_a = KeyPair.generate(seed=b"a").public_key
    key_b = KeyPair.generate(seed=b"b").public_key
    blame = SuspicionBlame(
        accuser=key_a, accused=key_b, kind="sync", detail=(),
        last_known=None, raised_at=float("nan"),
    )
    assert "NaN" in validate_payload("lo/suspicion", blame)


# ------------------------------------------------------ clean-verdict memo


def make_blame(**changes):
    fields = dict(
        accuser=KeyPair.generate(seed=b"a").public_key,
        accused=KeyPair.generate(seed=b"b").public_key,
        kind="sync", detail=(), last_known=make_header(), raised_at=1.5,
    )
    fields.update(changes)
    return SuspicionBlame(**fields)


@pytest.fixture
def schema_runs(monkeypatch):
    """Per-type counts of validator executions, from an empty memo."""
    wire._CLEAN_PAYLOADS.entries.clear()
    runs = {}

    def counting(msg_type, validator):
        def run(payload):
            runs[msg_type] = runs.get(msg_type, 0) + 1
            return validator(payload)
        return run

    for msg_type, validator in wire.VALIDATORS.items():
        monkeypatch.setitem(wire.VALIDATORS, msg_type,
                            counting(msg_type, validator))
    return runs


def test_clean_object_is_validated_once(schema_runs):
    blame = make_blame()
    before = cache_stats()["wire.validate"]
    for _ in range(50):
        assert validate_payload("lo/suspicion", blame) is None
    assert schema_runs == {"lo/suspicion": 1}
    after = cache_stats()["wire.validate"]
    assert after["hits"] - before["hits"] == 49
    assert after["misses"] - before["misses"] == 1
    assert after["size"] == 1
    # An equal but distinct object is a different delivery of other bytes.
    assert validate_payload("lo/suspicion", make_blame()) is None
    assert schema_runs == {"lo/suspicion": 2}


def test_memoised_types_are_frozen_dataclasses():
    for cls in wire._MEMOISED_TYPES:
        assert cls.__dataclass_params__.frozen, cls


def test_corrupted_copy_of_a_cleared_object_is_rejected(schema_runs):
    blame = make_blame()
    assert validate_payload("lo/suspicion", blame) is None
    bad = dataclasses.replace(blame, detail=("x",))
    assert "detail" in validate_payload("lo/suspicion", bad)
    rng = random.Random(5)
    rejected = 0
    for _ in range(200):
        mangled = corrupt_payload(blame, rng)
        assert mangled is not blame
        runs = schema_runs["lo/suspicion"]
        rejected += validate_payload("lo/suspicion", mangled) is not None
        assert schema_runs["lo/suspicion"] == runs + 1  # never from memory
    assert rejected > 100  # some garbage is, by chance, well-formed


def test_memo_is_keyed_on_message_type(schema_runs, monkeypatch):
    blame = make_blame()
    assert validate_payload("lo/suspicion", blame) is None
    assert validate_payload("lo/exposure", blame) is not None
    assert validate_payload("lo/commit_upd", blame) is not None
    header = make_header()
    assert validate_payload("lo/commit_upd", header) is None
    assert validate_payload("lo/suspicion", header) is not None
    # The same object, clean under another message type, re-runs the
    # schema and counts a miss each time the type changes.
    monkeypatch.setitem(wire.VALIDATORS, "lo/exposure", lambda payload: None)
    before = cache_stats()["wire.validate"]
    runs = schema_runs["lo/suspicion"]
    for msg_type in ("lo/suspicion", "lo/exposure", "lo/exposure",
                     "lo/suspicion"):
        assert validate_payload(msg_type, blame) is None
    after = cache_stats()["wire.validate"]
    assert schema_runs["lo/suspicion"] == runs + 1  # the last call only
    assert after["hits"] - before["hits"] == 2
    assert after["misses"] - before["misses"] == 2


def test_failed_payload_is_checked_again(schema_runs):
    bad = make_blame(raised_at=float("nan"))
    for _ in range(3):
        assert "NaN" in validate_payload("lo/suspicion", bad)
    assert schema_runs == {"lo/suspicion": 3}
    assert id(bad) not in wire._CLEAN_PAYLOADS.entries


def test_only_exact_frozen_payload_types_are_memoised(schema_runs):
    @dataclasses.dataclass(frozen=True)
    class Shifty(SuspicionBlame):
        """Passes the isinstance check; could override any field."""

    shifty = Shifty(**dataclasses.asdict(make_blame(last_known=None)))
    for _ in range(3):
        assert validate_payload("lo/suspicion", shifty) is None
        assert validate_payload("lo/block_req", 7) is None
        assert validate_payload("lo/status_query", (1_000_000, 42)) is None
    assert schema_runs == {"lo/suspicion": 3, "lo/block_req": 3,
                           "lo/status_query": 3}
    assert wire._CLEAN_PAYLOADS.entries == {}
    # Its exact base class is remembered: only the subclass is refused.
    plain = make_blame(last_known=None)
    assert validate_payload("lo/suspicion", plain) is None
    assert id(plain) in wire._CLEAN_PAYLOADS.entries
    assert id(shifty) not in wire._CLEAN_PAYLOADS.entries


def test_preset_verdict_attribute_is_no_free_pass(schema_runs):
    class Hostile:
        def __init__(self):
            self._schema_ok = True

    bad = make_blame(kind=42)
    object.__setattr__(bad, "_schema_ok", True)
    for msg_type in ("lo/suspicion", "lo/sync_req", "lo/exposure"):
        assert validate_payload(msg_type, Hostile()) is not None
    assert "kind" in validate_payload("lo/suspicion", bad)


def test_memo_is_bounded_and_a_recycled_id_cannot_hit(schema_runs):
    limit = wire._CLEAN_PAYLOADS.limit
    seen_ids = set()
    recycled = 0
    for index in range(3 * limit):
        # Each object is freed as soon as the memo lets go of it, so ids
        # come round again; every new object must still be checked.
        payload = ContentRequest(index, (index,))
        recycled += id(payload) in seen_ids
        seen_ids.add(id(payload))
        assert validate_payload("lo/content_req", payload) is None
        assert schema_runs["lo/content_req"] == index + 1
        assert len(wire._CLEAN_PAYLOADS.entries) <= limit
        del payload
    assert recycled > 0  # the loop did exercise id reuse
    # A recycled id under the same type tag still names a different object.
    bad = ContentRequest("nope", ())
    stale = ContentRequest(0, ())
    wire._CLEAN_PAYLOADS.entries[id(bad)] = (stale, "lo/content_req")
    assert "request_id" in validate_payload("lo/content_req", bad)


# ------------------------------ verdicts live with the verifier, not the peer


def test_header_and_spec_with_a_preset_schema_mark_are_still_checked():
    """``_schema_ok`` on the object a peer built is not a verdict."""
    reset_caches()
    bad_header = dataclasses.replace(make_header(), seq="seven")
    object.__setattr__(bad_header, "_schema_ok", True)
    bad_spec = SplitSpec((-1, 2))
    object.__setattr__(bad_spec, "_schema_ok", True)
    request = make_sync_request()
    assert "seq" in validate_payload("lo/commit_upd", bad_header)
    assert "header.seq" in validate_payload(
        "lo/sync_req", dataclasses.replace(request, header=bad_header))
    assert "cells" in validate_payload(
        "lo/sync_req", dataclasses.replace(request, spec=bad_spec))
    response = SyncResponse(1, make_header(), "split", split_specs=(bad_spec,))
    assert "split_specs[0]" in validate_payload("lo/sync_resp", response)


def test_forged_signatures_with_a_preset_mark_are_still_rejected():
    """``_sig_ok`` on a forged header / transaction buys nothing."""
    reset_caches()
    forged_header = dataclasses.replace(make_header(), tx_count=99)
    object.__setattr__(forged_header, "_sig_ok", True)
    assert not forged_header.signature_valid()
    assert not forged_header.signature_valid()  # the remembered verdict too
    tx = make_transaction(KeyPair.generate(seed=b"c"), 1, fee=5, created_at=0.0)
    forged_tx = dataclasses.replace(tx, fee=6)
    object.__setattr__(forged_tx, "_sig_ok", True)
    assert not forged_tx.signature_valid()
    assert tx.signature_valid() and make_header().signature_valid()


def test_verifier_side_verdicts_hit_once_known_and_are_cleared_together(
        monkeypatch):
    """One schema run and one ``verify`` per object, until the memos clear."""
    import repro.core.commitment as commitment
    import repro.mempool.transaction as transaction

    reset_caches()
    calls = {"verify": 0, "header": 0, "spec": 0}

    def counted(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run

    monkeypatch.setattr(commitment, "verify",
                        counted("verify", commitment.verify))
    monkeypatch.setattr(transaction, "verify",
                        counted("verify", transaction.verify))
    monkeypatch.setattr(wire, "_check_header_fields",
                        counted("header", wire._check_header_fields))
    monkeypatch.setattr(wire, "_check_spec_fields",
                        counted("spec", wire._check_spec_fields))
    header, spec = make_header(), SplitSpec((1, 2))
    tx = make_transaction(KeyPair.generate(seed=b"c"), 1, fee=5, created_at=0.0)
    for round_ in range(3):
        # A fresh payload each time: only the shared header / spec repeat.
        request = SyncRequest(round_, header, spec, PinSketch(8, 32))
        assert validate_payload("lo/sync_req", request) is None
        assert header.signature_valid() and tx.signature_valid()
    assert calls == {"verify": 2, "header": 1, "spec": 1}
    reset_caches()
    assert validate_payload(
        "lo/sync_req", SyncRequest(9, header, spec, PinSketch(8, 32))) is None
    assert header.signature_valid() and tx.signature_valid()
    assert calls == {"verify": 4, "header": 2, "spec": 2}


def test_subclass_instances_are_verified_every_time(monkeypatch):
    """A subclass can compute its fields: its verdict is never remembered."""
    import repro.core.commitment as commitment

    @dataclasses.dataclass(frozen=True)
    class Shifty(commitment.CommitmentHeader):
        """Passes isinstance; could override ``signing_bytes``."""

    reset_caches()
    calls = []
    verify = commitment.verify
    monkeypatch.setattr(
        commitment, "verify",
        lambda *args: calls.append(1) or verify(*args))
    plain = make_header()
    shifty = Shifty(**{f.name: getattr(plain, f.name)
                       for f in dataclasses.fields(plain)})
    for _ in range(3):
        assert shifty.signature_valid()
        assert validate_payload("lo/commit_upd", shifty) is None
    assert len(calls) == 3
    assert id(shifty) not in commitment._SIGNATURE_VERDICTS.entries
    assert id(shifty) not in wire._CLEAN_HEADERS.entries


# ------------------------------------------------------------- quarantine


def test_quarantine_opens_at_threshold():
    q = PeerQuarantine(threshold=3, base_s=10.0, max_s=100.0)
    assert not q.record_violation(5, now=0.0)
    assert not q.record_violation(5, now=1.0)
    assert not q.is_quarantined(5, now=1.5)
    assert q.record_violation(5, now=2.0)  # third strike opens the episode
    assert q.is_quarantined(5, now=2.1)
    assert q.release_time(5) == pytest.approx(12.0)
    assert q.violations_of(5) == 3


def test_quarantine_expires_and_backoff_doubles():
    q = PeerQuarantine(threshold=2, base_s=4.0, max_s=10.0)
    q.record_violation(1, now=0.0)
    assert q.record_violation(1, now=0.1)          # episode 1: 4 s
    assert q.is_quarantined(1, now=3.9)
    assert not q.is_quarantined(1, now=4.2)        # re-admitted
    q.record_violation(1, now=5.0)
    assert q.record_violation(1, now=5.1)          # episode 2: 8 s
    assert q.release_time(1) == pytest.approx(13.1)
    q.record_violation(1, now=14.0)
    assert q.record_violation(1, now=14.1)         # episode 3: capped at 10 s
    assert q.release_time(1) == pytest.approx(24.1)
    assert q.snapshot()[1] == (6, 3)


def test_violations_during_quarantine_do_not_extend_it():
    q = PeerQuarantine(threshold=1, base_s=5.0, max_s=50.0)
    assert q.record_violation(9, now=0.0)
    release = q.release_time(9)
    assert not q.record_violation(9, now=1.0)
    assert q.release_time(9) == release


def test_quarantine_is_per_peer():
    q = PeerQuarantine(threshold=1, base_s=5.0, max_s=50.0)
    q.record_violation(1, now=0.0)
    assert q.is_quarantined(1, now=0.1)
    assert not q.is_quarantined(2, now=0.1)


def test_quarantine_rejects_bad_params():
    with pytest.raises(ValueError):
        PeerQuarantine(threshold=0)
    with pytest.raises(ValueError):
        PeerQuarantine(base_s=10.0, max_s=1.0)
