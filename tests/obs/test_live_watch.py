"""Live publishing of a ``run --timeline`` file + ``watch`` verb tests.

The contract: readers never observe a torn file (atomic replace), a
running recorder publishes at most once per wall second a valid
``repro.trace/1`` file marked ``partial``, the final file is the same
bytes a recorder that never published exports, and ``python -m repro
watch`` renders either such a file or a sweep spool without disturbing
the writer.
"""

import json
import os

from repro import obs
from repro.cli import build_parser, detect_watch_target, main
from repro.exec.spool import spool_is_finished, spool_watch_rows
from repro.experiments.harness import LOSimulation
from repro.obs.export import export_jsonl, write_atomic
from repro.obs.report import load_trace
from repro.obs.schema import validate_trace_file
from repro.obs.timeline import PUBLISH_WALL_S, TimelineRecorder


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        """Move time forward by ``dt`` seconds."""
        self.now += dt


def _sampled_recorder(**kwargs):
    count = {"c": 0}
    recorder = TimelineRecorder(interval_s=1.0, bins=8, **kwargs)
    recorder.attach({"demo": lambda: dict(count)})
    for tick in range(5):
        count["c"] += 2
        recorder.sample(float(tick))
    return recorder


# ----------------------------------------------------------------- publish


def test_write_atomic_json_leaves_no_temp_files(tmp_path):
    path = tmp_path / "new-dir" / "doc.json"
    write_atomic(str(path), json.dumps({"a": 1}))
    assert json.loads(path.read_text()) == {"a": 1}
    assert os.listdir(path.parent) == ["doc.json"]  # temp file replaced away


def test_a_live_publish_is_a_partial_trace(tmp_path):
    path = tmp_path / "timeline.jsonl"
    recorder = _sampled_recorder(path=str(path), meta={"seed": 3})
    assert recorder.publish() == 1
    assert validate_trace_file(str(path)) == []
    meta, records = load_trace(str(path))
    assert meta == {"seed": 3, "partial": True}
    assert [r["name"] for r in records] == ["demo.c"]
    assert TimelineRecorder().publish() is None  # no path, nothing to do


def test_live_publish_throttles_on_wall_clock(tmp_path, monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr("repro.obs.timeline.monotonic", clock)
    recorder = _sampled_recorder(path=str(tmp_path / "t.jsonl"))
    assert recorder.publish() == 1          # the first publish always writes
    assert recorder.publish() is None       # throttled
    clock.advance(PUBLISH_WALL_S / 2)
    assert recorder.publish() is None
    clock.advance(PUBLISH_WALL_S)
    assert recorder.publish() == 1


# ----------------------------------------------------------------- watching


def test_detect_watch_target(tmp_path):
    assert detect_watch_target(str(tmp_path)) == ""
    spool = tmp_path / "spool"
    spool.mkdir()
    (spool / "manifest.json").write_text("{}")
    assert detect_watch_target(str(spool)) == "spool"
    trace = tmp_path / "timeline.jsonl"
    _sampled_recorder(path=str(trace)).publish()
    assert detect_watch_target(str(trace)) == "trace"
    assert detect_watch_target(str(tmp_path / "nope")) == ""


def test_spool_rows_and_finished():
    status = {"tasks_total": 8, "completed": 8, "pending": 0,
              "parked": 0, "attempts": 9}
    rows = dict(spool_watch_rows(status))
    assert rows["completed"] == "8  (100%)"
    assert rows["attempts"] == 9
    assert spool_is_finished(status)
    assert not spool_is_finished({"pending": 2})


def test_watch_once_on_a_partial_timeline_file(tmp_path, capsys):
    path = tmp_path / "timeline.jsonl"
    _sampled_recorder(path=str(path)).publish()
    code = main(["watch", str(path), "--once"])
    assert code == 0
    out = capsys.readouterr().out
    assert "watch trace (partial)" in out
    assert "demo.c" in out
    assert "10" in out  # the counter's total so far


def test_watch_once_on_spool_dir(tmp_path, capsys):
    # a real (tiny) spool, produced by the sweep CLI itself
    spool = tmp_path / "spool"
    code = main([
        "sweep", "run", "--param", "num_nodes=6", "--param", "rate_per_s=2.0",
        "--param", "duration_s=1.0", "--param", "drain_s=1.0",
        "--repetitions", "1", "--workers", "1", "--spool", str(spool),
    ])
    assert code == 0
    capsys.readouterr()
    code = main(["watch", str(spool), "--once"])
    assert code == 0
    out = capsys.readouterr().out
    assert "watch spool" in out
    assert "completed" in out


def test_watch_once_unknown_target_fails(tmp_path, capsys):
    code = main(["watch", str(tmp_path / "missing"), "--once"])
    assert code == 2
    assert "no repro.trace/1 file or spool manifest.json" in \
        capsys.readouterr().err


def test_watch_of_a_file_that_is_no_trace_fails(tmp_path, capsys):
    path = tmp_path / "notes.txt"
    path.write_text("not json\n")
    assert main(["watch", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


# -------------------------------------------------------------- end to end

RUN = ["run", "--nodes", "6", "--rate", "3", "--duration", "3",
       "--drain", "2", "--seed", "5"]


def test_run_timeline_end_to_end(tmp_path, capsys):
    """``run --timeline`` ends with a final (not partial) file, on which
    ``watch`` prints once and exits without ``--once``."""
    path = tmp_path / "timeline.jsonl"
    assert main(RUN + ["--timeline", str(path)]) == 0
    meta, records = load_trace(str(path))
    assert "partial" not in meta
    assert records
    capsys.readouterr()
    assert main(["watch", str(path)]) == 0
    assert f"[watch trace: {path}]" in capsys.readouterr().out


def test_the_timeline_file_is_a_partial_trace_mid_run(tmp_path,
                                                       monkeypatch):
    """Read from inside the run, the ``--timeline`` file loads, validates
    and is partial; the final file, but for its ``phase`` records (wall
    clock), equals a same-seed export made by a recorder that never
    published."""
    path = tmp_path / "timeline.jsonl"
    seen = []

    def read_mid_run():
        seen.append((validate_trace_file(str(path)), load_trace(str(path))))

    built = LOSimulation.__init__

    def build_and_schedule_a_read(self, *args, **kwargs):
        built(self, *args, **kwargs)
        self.loop.call_at(2.5, read_mid_run)

    monkeypatch.setattr(LOSimulation, "__init__", build_and_schedule_a_read)
    assert main(RUN + ["--timeline", str(path)]) == 0
    monkeypatch.undo()

    (errors, (meta, records)), = seen
    assert errors == []
    assert meta["partial"] is True
    assert records and all(r["type"] == "timeline" for r in records)

    args = build_parser().parse_args(RUN)
    recorder = TimelineRecorder()
    with obs.recording(timeline=recorder):
        assert args.func(args) == 0
    reference = tmp_path / "reference.jsonl"
    export_jsonl(None, str(reference), {"command": "run", "seed": 5},
                 timeline=recorder)
    final = path.read_text().splitlines()
    assert '"type":"phase"' in final[-1]
    assert [line for line in final if '"type":"phase"' not in line] \
        == reference.read_text().splitlines()
