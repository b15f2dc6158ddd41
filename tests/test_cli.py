"""CLI tests (tiny parameters, captured stdout)."""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs.schema import validate_trace_file


def test_parser_covers_all_experiments():
    # A figure is a sweep of its point entry, and report prints its table.
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert set(sub.choices) == {"run", "sweep", "report", "watch"}


def _sweep_and_report(tmp_path, capsys, experiment, *args):
    """``sweep EXPERIMENT ARGS --out-dir`` then ``report`` its sweep.json:
    the report's output, and the document."""
    out_dir = tmp_path / experiment
    assert main(["sweep", experiment, *args, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["report", str(out_dir / "sweep.json")]) == 0
    doc = json.loads((out_dir / "sweep.json").read_text())
    return capsys.readouterr().out, doc


def test_run_command(capsys):
    code = main(["run", "--nodes", "8", "--rate", "3", "--duration", "4",
                 "--drain", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean mempool latency" in out
    assert "exposures" in out


def test_cpu_command_with_json(tmp_path, capsys):
    out_file = tmp_path / "cpu" / "sweep.json"
    code = main(["sweep", "cpu", "--param", "difference=24",
                 "--param", "partition_capacity=8",
                 "--out-dir", str(out_file.parent)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["tasks"][0]["experiment"] == "cpu"
    assert payload["tasks"][0]["result"]["difference"] == 24
    capsys.readouterr()
    assert main(["report", str(out_file)]) == 0
    assert "speedup" in capsys.readouterr().out


def test_fig10_command(tmp_path, capsys):
    out, _doc = _sweep_and_report(
        tmp_path, capsys, "fig10_point", "--param", "num_nodes=10",
        "--param", "duration_s=8.0", "--param", "tx_per_minute=120")
    assert "recon/node/min" in out
    # A sweep document has no trace to convert.
    assert main(["report", str(tmp_path / "fig10_point" / "sweep.json"),
                 "--chrome", str(tmp_path / "c.json")]) == 2
    assert "not a sweep document" in capsys.readouterr().err


def test_memory_command(tmp_path, capsys):
    out, _doc = _sweep_and_report(
        tmp_path, capsys, "memory_point", "--param", "num_nodes=10",
        "--param", "duration_s=8.0", "--param", "tx_per_minute=120")
    assert "avg_B" in out and "10k-node_MB" in out


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_sweep_command_json_and_run_dir(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main([
        "sweep", "run",
        "--param", "num_nodes=6,8", "--param", "rate_per_s=3.0",
        "--param", "duration_s=1.0", "--param", "drain_s=1.0",
        "--repetitions", "1", "--workers", "1",
        "--out-dir", str(out_dir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 tasks" in out and "0 failed" in out
    merged = json.loads((out_dir / "sweep.json").read_text())
    assert merged["schema"] == "repro.sweep/1"
    assert [t["params"]["num_nodes"] for t in merged["tasks"]] == [6, 8]
    assert all(t["ok"] for t in merged["tasks"])
    execution = json.loads((out_dir / "execution.json").read_text())
    assert execution["schema"] == "repro.sweep-execution/1"


def test_sweep_check_serial_byte_identity(tmp_path, capsys):
    code = main([
        "sweep", "run",
        "--param", "num_nodes=6", "--param", "rate_per_s=3.0",
        "--param", "duration_s=1.0", "--param", "drain_s=1.0",
        "--repetitions", "2", "--workers", "2", "--check-serial",
    ])
    assert code == 0
    assert "results identical" in capsys.readouterr().out


def test_sweep_rejects_unknown_experiment(capsys):
    assert main(["sweep", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_sweep_rejects_malformed_param():
    with pytest.raises(SystemExit):
        main(["sweep", "run", "--param", "num_nodes"])


def test_sweep_rejects_a_repeated_axis(capsys):
    # A second --param of one axis used to replace the first silently.
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "run", "--param", "num_nodes=20",
              "--param", "num_nodes=40"])
    assert exit_info.value.code == 2
    assert "--param num_nodes given twice" in capsys.readouterr().err


def test_sweep_task_traces_require_out_dir(capsys):
    assert main(["sweep", "run", "--task-traces"]) == 2
    assert "--task-traces requires --out-dir" in capsys.readouterr().err


def test_run_takes_no_workers(capsys):
    # One simulation has no internal sweep to spread across workers.
    with pytest.raises(SystemExit):
        main(["run", "--workers", "2"])
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


FIGURE_VERBS = ["fig6", "fig7", "fig8", "fig9", "fig10", "memory", "cpu"]


@pytest.mark.parametrize("verb", FIGURE_VERBS)
def test_figure_verbs_take_no_workers(verb, capsys):
    # There is no figure verb: a figure is a sweep of its point entry.
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "--workers", "2"])
    assert exit_info.value.code == 2
    assert f"invalid choice: '{verb}'" in capsys.readouterr().err


def test_sweep_is_the_only_verb_with_workers():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    with_workers = sorted(
        name for name, verb in sub.choices.items()
        if any("--workers" in a.option_strings for a in verb._actions)
    )
    assert with_workers == ["sweep"]


def test_run_takes_at_most_16_options():
    """The timeline and steady-state knobs are constants, the tracer
    takes no snapshot period, the ``--timeline`` file is the live view
    and every recording carries the phase totals: ``run`` has 16
    options (26 before)."""
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = [a for a in sub.choices["run"]._actions
               if a.option_strings and a.dest != "help"]
    assert len(options) <= 16


@pytest.mark.parametrize("argv, message", [
    pytest.param(["run", "--trace", "t.jsonl", "--trace-sample", "0"],
                 "--trace-sample: must be >= 1, got 0", id="trace-sample"),
    # The timeline and steady-state knobs are constants now: each removed
    # option is a usage error before anything runs, whatever its value.
    pytest.param(["run", "--timeline", "t.jsonl", "--timeline-bins", "3"],
                 "unrecognized arguments: --timeline-bins 3",
                 id="timeline-bins-small"),
    pytest.param(["run", "--timeline", "t.jsonl", "--timeline-bins", "48"],
                 "unrecognized arguments: --timeline-bins 48",
                 id="timeline-bins-not-power-of-two"),
    pytest.param(["run", "--timeline", "t.jsonl",
                  "--timeline-interval", "-0.5"],
                 "unrecognized arguments: --timeline-interval -0.5",
                 id="timeline-interval"),
    pytest.param(["run", "--until-steady", "--steady-window", "1"],
                 "unrecognized arguments: --steady-window 1",
                 id="steady-window"),
    pytest.param(["sweep", "fig7_point", "--repetitions", "0"],
                 "--repetitions: must be >= 1, got 0", id="fig7-repetitions"),
    pytest.param(["sweep", "run", "--repetitions", "0"],
                 "--repetitions: must be >= 1, got 0",
                 id="sweep-repetitions"),
    pytest.param(["sweep", "run", "--workers", "0"],
                 "--workers: must be >= 1, got 0", id="sweep-workers"),
    pytest.param(["sweep", "run", "--max-attempts", "0"],
                 "--max-attempts: must be >= 1, got 0",
                 id="sweep-max-attempts"),
    # A number the simulation would reject later, or silently bend, is
    # refused before anything runs.
    pytest.param(["run", "--nodes", "1"], "--nodes: must be >= 2, got 1",
                 id="run-nodes"),
    pytest.param(["run", "--nodes", "6", "--rate", "-3"],
                 "--rate: must be > 0, got -3", id="run-rate"),
    pytest.param(["run", "--nodes", "6", "--duration", "0"],
                 "--duration: must be > 0, got 0", id="run-duration"),
    pytest.param(["run", "--nodes", "6", "--duration", "1", "--drain", "-5"],
                 "--drain: must be >= 0, got -5", id="run-drain"),
    pytest.param(["run", "--nodes", "6", "--duration", "1", "--drain", "0",
                  "--workload", "poisson", "--scale", "0"],
                 "--scale: must be >= 1, got 0", id="run-scale"),
    pytest.param(["run", "--nodes", "6", "--duration", "1", "--drain", "0",
                  "--workload", "poisson", "--hot-fraction", "1.5"],
                 "--hot-fraction: must be in [0, 1], got 1.5",
                 id="run-hot-fraction"),
    pytest.param(["run", "--nodes", "6", "--duration", "1", "--drain", "0",
                  "--workload", "poisson", "--rbf-fraction", "-0.1"],
                 "--rbf-fraction: must be in [0, 1], got -0.1",
                 id="run-rbf-fraction"),
    pytest.param(["sweep", "run", "--param", "num_nodes=6",
                  "--param", "duration_s=1.0", "--param", "drain_s=0.0",
                  "--timeout", "-1"],
                 "--timeout: must be > 0, got -1", id="sweep-timeout"),
    pytest.param(["sweep", "run", "--param", "num_nodes=6",
                  "--param", "duration_s=1.0", "--param", "drain_s=0.0",
                  "--timeout", "0"],
                 "--timeout: must be > 0, got 0", id="sweep-timeout-zero"),
    pytest.param(["report", "t.jsonl", "--limit", "-1"],
                 "--limit: must be >= 1, got -1", id="report-limit"),
    pytest.param(["watch", "t.jsonl", "--once", "--interval", "0"],
                 "--interval: must be > 0, got 0", id="watch-interval"),
])
def test_out_of_range_numbers_are_usage_errors(argv, message, tmp_path,
                                               monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # nothing may run, but keep any file here
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_trace_sees_every_figure_point(tmp_path, capsys):
    assert main(["sweep", "memory_point", "--param", "num_nodes=6",
                 "--param", "duration_s=3.0", "--param", "tx_per_minute=60,120",
                 "--task-traces", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    traces = sorted(tmp_path.glob("task-*.trace.jsonl"))
    assert len(traces) == 2
    for trace in traces:
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [r["name"] for r in records if r.get("name") == "sim.run"] \
            == ["sim.run"], trace


def test_outputs_go_into_a_directory_that_is_not_there_yet(tmp_path,
                                                           capsys):
    """``--json``, ``--trace``, ``--timeline`` and ``--out-dir`` create
    their directory instead of failing after the whole run."""
    out = tmp_path / "missing"
    assert main(["run", "--nodes", "6", "--rate", "3", "--duration", "3",
                 "--drain", "2", "--json", str(out / "run.json"),
                 "--trace", str(out / "t.jsonl"),
                 "--timeline", str(out / "deeper" / "timeline.jsonl")]) == 0
    capsys.readouterr()
    assert json.loads((out / "run.json").read_text())["experiment"] == "run"
    for path in (out / "t.jsonl", out / "deeper" / "timeline.jsonl"):
        assert validate_trace_file(str(path)) == [], path
    assert main(["sweep", "run", "--param", "num_nodes=6",
                 "--param", "duration_s=1.0", "--param", "drain_s=1.0",
                 "--out-dir", str(out / "sweep")]) == 0
    assert (out / "sweep" / "sweep.json").read_bytes()


SPOOL_ARGS = [
    "sweep", "run",
    "--param", "num_nodes=6,8", "--param", "rate_per_s=3.0",
    "--param", "duration_s=1.0", "--param", "drain_s=1.0",
    "--repetitions", "1", "--workers", "1",
]


def test_sweep_spool_byte_identical_to_plain(tmp_path, capsys):
    plain_json = tmp_path / "plain" / "sweep.json"
    spool_json = tmp_path / "spooled" / "sweep.json"
    assert main(SPOOL_ARGS + ["--out-dir", str(plain_json.parent)]) == 0
    assert main(SPOOL_ARGS + ["--spool", str(tmp_path / "spool"),
                              "--out-dir", str(spool_json.parent)]) == 0
    out = capsys.readouterr().out
    assert plain_json.read_bytes() == spool_json.read_bytes()
    assert "spool" in out and "2/2 completed" in out


def test_sweep_spool_resume_is_idempotent(tmp_path, capsys):
    spool_dir = tmp_path / "spool"
    first = tmp_path / "first" / "sweep.json"
    resumed = tmp_path / "resumed" / "sweep.json"
    assert main(SPOOL_ARGS + ["--spool", str(spool_dir),
                              "--out-dir", str(first.parent)]) == 0
    # Resuming a drained spool re-merges without re-running anything.
    assert main(SPOOL_ARGS + ["--spool", str(spool_dir), "--resume",
                              "--out-dir", str(resumed.parent)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == resumed.read_bytes()


def test_sweep_spool_guards(tmp_path, capsys):
    spool_dir = tmp_path / "spool"
    # --resume without --spool is a usage error.
    assert main(SPOOL_ARGS + ["--resume"]) == 2
    assert "--resume requires --spool" in capsys.readouterr().err
    # A second fresh run into the same spool is refused, not clobbered.
    assert main(SPOOL_ARGS + ["--spool", str(spool_dir)]) == 0
    capsys.readouterr()
    assert main(SPOOL_ARGS + ["--spool", str(spool_dir)]) == 2
    assert "resume" in capsys.readouterr().err


def test_fig7_accepts_repetitions(tmp_path, capsys):
    out, doc = _sweep_and_report(
        tmp_path, capsys, "fig7_point", "--param", "num_nodes=10",
        "--param", "tx_rate_per_s=3.0", "--param", "workload_duration_s=3.0",
        "--repetitions", "2")
    assert [len(t["result"]["latencies"]) for t in doc["tasks"]] == [100, 110]
    assert re.search(r"^samples +210$", out, re.M)  # pooled over both


def test_cpu_accepts_differences_sweep(tmp_path, capsys):
    out, doc = _sweep_and_report(
        tmp_path, capsys, "cpu", "--param", "difference=8,16",
        "--param", "partition_capacity=8")
    assert "speedup" in out
    assert [t["result"]["difference"] for t in doc["tasks"]] == [8, 16]


def _without_phases(path):
    """A recording's lines but its ``phase`` records (wall clock)."""
    return [line for line in path.read_text().splitlines()
            if '"type":"phase"' not in line]


def test_run_timeline_exports_are_deterministic(tmp_path, capsys):
    """One stream, deterministic end to end: two same-seed ``run --trace``
    invocations write traces that differ only in their ``phase`` records
    (the wall time per phase), two ``--timeline`` ones likewise, and
    ``report --chrome`` / ``--csv``, which skip phase records, convert
    each pair into byte-identical files."""
    run_args = ["run", "--nodes", "6", "--rate", "3", "--duration", "3",
                "--drain", "2", "--seed", "5"]
    files = {}
    for flag in ("--trace", "--timeline"):
        for copy in "ab":
            path = tmp_path / f"{flag[2:]}-{copy}.jsonl"
            assert main(run_args + [flag, str(path)]) == 0
            assert main(["report", str(path),
                         "--chrome", f"{path}.chrome.json",
                         "--csv", f"{path}.csv"]) == 0
            files[flag, copy] = path
    out = capsys.readouterr().out
    assert "trace written" in out and "timeline written" in out
    for flag in ("--trace", "--timeline"):
        a, b = files[flag, "a"], files[flag, "b"]
        assert _without_phases(a) == _without_phases(b), flag
        assert len(_without_phases(a)) < len(a.read_text().splitlines())
        for suffix in (".chrome.json", ".csv"):
            assert (Path(f"{a}{suffix}").read_bytes()
                    == Path(f"{b}{suffix}").read_bytes()), (flag, suffix)
    trace = _without_phases(files["--trace", "a"])
    timeline = _without_phases(files["--timeline", "a"])
    assert all('"type":"timeline"' in line for line in timeline[1:])
    assert timeline[1:] == trace[len(trace) - len(timeline) + 1:]
    assert Path(f"{files['--timeline', 'a']}.csv").read_text().startswith(
        "series,kind,bin_s,t,value")


def test_run_until_steady_stops_early_and_reports(tmp_path, capsys):
    out_file = tmp_path / "run.json"
    code = main(["run", "--nodes", "8", "--rate", "6", "--duration", "60",
                 "--drain", "20", "--admission", "--seed", "7",
                 "--until-steady", "--json", str(out_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "steady" in out
    steady = json.loads(out_file.read_text())["result"]["steady"]
    assert steady["steady"] is True
    assert steady["t"] < steady["horizon"]


def test_report_prints_the_phase_table_of_a_recording(tmp_path, capsys):
    """A recording carries the run's wall time per phase as ``phase``
    records, which ``report`` prints as a table; ``run --json`` holds no
    wall-clock field."""
    path, out_file = tmp_path / "timeline.jsonl", tmp_path / "run.json"
    assert main(["run", "--nodes", "6", "--rate", "3", "--duration", "3",
                 "--drain", "2", "--timeline", str(path),
                 "--json", str(out_file)]) == 0
    assert "phases" not in json.loads(out_file.read_text())["result"]
    records = [json.loads(line) for line in path.read_text().splitlines()]
    phases = {r["name"]: r for r in records if r.get("type") == "phase"}
    assert {"net", "reconcile", "sketch", "crypto"} <= set(phases)
    assert all(r["calls"] > 0 and r["incl_s"] >= r["self_s"] >= 0.0
               for r in phases.values())
    capsys.readouterr()
    assert main(["report", str(path)]) == 0
    table = capsys.readouterr().out.split("wall time per phase\n")[1]
    for name, record in phases.items():
        assert re.search(rf"^{re.escape(name)} +{record['calls']} ", table,
                         re.M), name
