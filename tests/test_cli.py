"""CLI tests (tiny parameters, captured stdout)."""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs.schema import validate_trace_file


def test_parser_covers_all_experiments():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    commands = set(sub.choices)
    assert {"run", "fig6", "fig7", "fig8", "fig9", "fig10", "memory",
            "cpu", "report"} <= commands


def test_run_command(capsys):
    code = main(["run", "--nodes", "8", "--rate", "3", "--duration", "4",
                 "--drain", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean mempool latency" in out
    assert "exposures" in out


def test_cpu_command_with_json(tmp_path, capsys):
    out_file = tmp_path / "cpu.json"
    code = main(["cpu", "--difference", "24", "--capacity", "8",
                 "--json", str(out_file)])
    assert code == 0
    assert "speedup" in capsys.readouterr().out
    payload = json.loads(out_file.read_text())
    assert payload["experiment"] == "cpu"
    assert payload["result"]["difference"] == 24


def test_fig10_command(capsys):
    code = main(["fig10", "--nodes", "10", "--duration", "8",
                 "--workloads", "120"])
    assert code == 0
    assert "recon/node/min" in capsys.readouterr().out


def test_memory_command(capsys):
    code = main(["memory", "--nodes", "10", "--duration", "8",
                 "--workloads", "120"])
    assert code == 0
    assert "avg_commitment_B" in capsys.readouterr().out


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_sweep_command_json_and_run_dir(tmp_path, capsys):
    out_dir = tmp_path / "run"
    out_json = tmp_path / "merged.json"
    code = main([
        "sweep", "run",
        "--param", "num_nodes=6,8", "--param", "rate_per_s=3.0",
        "--param", "duration_s=1.0", "--param", "drain_s=1.0",
        "--repetitions", "1", "--workers", "1",
        "--out-dir", str(out_dir), "--json", str(out_json),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 tasks" in out and "0 failed" in out
    merged = json.loads(out_json.read_text())
    assert merged["schema"] == "repro.sweep/1"
    assert [t["params"]["num_nodes"] for t in merged["tasks"]] == [6, 8]
    assert all(t["ok"] for t in merged["tasks"])
    assert (out_dir / "sweep.json").read_bytes() == out_json.read_bytes()
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
    # A figure runs serially; its parallel form is a sweep of its point.
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "--workers", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


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


def test_run_takes_at_most_17_options():
    """The timeline and steady-state knobs are constants, the tracer
    takes no snapshot period and the ``--timeline`` file is the live
    view: ``run`` has 17 options (26 before)."""
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = [a for a in sub.choices["run"]._actions
               if a.option_strings and a.dest != "help"]
    assert len(options) <= 17


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
    pytest.param(["fig7", "--repetitions", "0"],
                 "--repetitions: must be >= 1, got 0", id="fig7-repetitions"),
    pytest.param(["sweep", "run", "--repetitions", "0"],
                 "--repetitions: must be >= 1, got 0",
                 id="sweep-repetitions"),
    pytest.param(["sweep", "run", "--workers", "0"],
                 "--workers: must be >= 1, got 0", id="sweep-workers"),
    pytest.param(["sweep", "run", "--max-attempts", "0"],
                 "--max-attempts: must be >= 1, got 0",
                 id="sweep-max-attempts"),
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
    trace = tmp_path / "memory.jsonl"
    assert main(["memory", "--nodes", "6", "--duration", "3",
                 "--workloads", "60", "120", "--trace", str(trace)]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    runs = [r for r in records if r.get("name") == "sim.run"]
    assert len(runs) == 2
    assert runs[0]["span_id"] != runs[1]["span_id"]


def test_outputs_go_into_a_directory_that_is_not_there_yet(tmp_path,
                                                           capsys):
    """``--json``, ``--trace`` and ``--timeline`` create their directory
    instead of failing after the whole run."""
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
                 "--json", str(out / "sweep" / "sweep.json")]) == 0
    assert (out / "sweep" / "sweep.json").read_bytes()


SPOOL_ARGS = [
    "sweep", "run",
    "--param", "num_nodes=6,8", "--param", "rate_per_s=3.0",
    "--param", "duration_s=1.0", "--param", "drain_s=1.0",
    "--repetitions", "1", "--workers", "1",
]


def test_sweep_spool_byte_identical_to_plain(tmp_path, capsys):
    plain_json = tmp_path / "plain.json"
    spool_json = tmp_path / "spool.json"
    assert main(SPOOL_ARGS + ["--json", str(plain_json)]) == 0
    assert main(SPOOL_ARGS + ["--spool", str(tmp_path / "spool"),
                              "--json", str(spool_json)]) == 0
    out = capsys.readouterr().out
    assert plain_json.read_bytes() == spool_json.read_bytes()
    assert "spool" in out and "2/2 completed" in out


def test_sweep_spool_resume_is_idempotent(tmp_path, capsys):
    spool_dir = tmp_path / "spool"
    first = tmp_path / "first.json"
    resumed = tmp_path / "resumed.json"
    assert main(SPOOL_ARGS + ["--spool", str(spool_dir),
                              "--json", str(first)]) == 0
    # Resuming a drained spool re-merges without re-running anything.
    assert main(SPOOL_ARGS + ["--spool", str(spool_dir), "--resume",
                              "--json", str(resumed)]) == 0
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


def test_fig7_accepts_repetitions(capsys):
    code = main(["fig7", "--nodes", "10", "--rate", "3", "--duration", "3",
                 "--repetitions", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "count" in out and "210" in out  # 2 reps x 105 pooled samples


def test_cpu_accepts_differences_sweep(tmp_path, capsys):
    out_file = tmp_path / "cpu.json"
    code = main(["cpu", "--differences", "8", "16", "--capacity", "8",
                 "--json", str(out_file)])
    assert code == 0
    assert "speedup" in capsys.readouterr().out
    payload = json.loads(out_file.read_text())
    assert [p["difference"] for p in payload["result"]["points"]] == [8, 16]


def test_run_timeline_exports_are_deterministic(tmp_path, capsys):
    """One stream, deterministic end to end: two same-seed ``run --trace``
    invocations write byte-identical traces, two ``--timeline`` ones
    byte-identical timeline files (repro.trace/1 files of timeline records
    alone), and ``report --chrome`` / ``--csv`` convert each pair into
    byte-identical files."""
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
        for suffix in ("", ".chrome.json", ".csv"):
            assert (Path(f"{a}{suffix}").read_bytes()
                    == Path(f"{b}{suffix}").read_bytes()), (flag, suffix)
    trace = files["--trace", "a"].read_text().splitlines()
    timeline = files["--timeline", "a"].read_text().splitlines()
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


def test_run_phases_prints_profile_table(tmp_path, capsys):
    out_file = tmp_path / "run.json"
    code = main(["run", "--nodes", "6", "--rate", "3", "--duration", "3",
                 "--drain", "2", "--phases", "--json", str(out_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "phase" in out and "self_s" in out
    phases = json.loads(out_file.read_text())["result"]["phases"]
    assert "net" in phases
    assert all(entry["self_s"] >= 0.0 for entry in phases.values())
