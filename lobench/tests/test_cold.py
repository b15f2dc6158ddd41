"""Cold discipline: what a timed child sees before it builds anything."""

from lobench import runner

QUICK = ["--workload", "steady_gossip", "--seed", "5", "--quick"]


def test_timed_child_starts_cold_and_untraced():
    run = runner.spawn(QUICK)
    assert "failed" not in run, run
    assert run["traced"] is False
    assert run["cold"] == {
        "decode_cache_size": 0,
        "syndrome_cache_size": 0,
        "decode_wrapped": False,
        "obs_tracer_enabled": False,
        "obs_timeline_installed": False,
        "obs_profiler_installed": False,
    }
    assert run["checks"]["cold_start"] is True
    # The run itself then fills the caches it started without.
    assert run["phases"]["setup_s"] > run["phases"]["import_s"] > 0.0


def test_tracing_changes_no_simulated_outcome(tmp_path):
    plain = runner.spawn(QUICK)
    traced = runner.spawn(QUICK + ["--trace", str(tmp_path / "trace.json")])
    assert traced["traced"] is True
    assert traced["stats_sha256"] == plain["stats_sha256"]
    assert (tmp_path / "trace.json").stat().st_size > 0


def test_crashed_child_is_a_failed_run():
    run = runner.spawn(["--workload", "no_such_workload", "--seed", "1"])
    assert "failed" in run and "KeyError" in run["stderr"]
