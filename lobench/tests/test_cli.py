"""The one command end to end: quick suite, BENCHMARK.json mode, --compare."""

import json
import re
import subprocess
import sys
import time

import pytest

from lobench import runner
from lobench.workloads import WORKLOADS

DECLARED = runner.catalogue()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def lobench(*args, cwd=runner.ROOT):
    return subprocess.run(
        [sys.executable, "-m", "lobench", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def quick_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick")
    started = time.perf_counter()
    done = lobench("--quick", "--repeats", "1", "--seed", "5", "--out", str(out))
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30.0
    return out, done.stdout


def test_quick_suite_reports_every_declared_metric(quick_results):
    out, printed = quick_results
    document = json.loads((out / "results.json").read_text())
    assert document["schema"] == runner.SCHEMA
    assert document["env"]["seed"] == 5
    for key in ("nproc", "python", "numpy", "fast_path_active", "git_commit"):
        assert key in document["env"]
    assert set(document["workloads"]) == set(WORKLOADS)
    for name, result in document["workloads"].items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["deterministic"]
        for spec in DECLARED["end_to_end"]:
            assert result["end_to_end"][spec["name"]]["n"] == 1
            assert spec["name"] in printed
        measured = set(result["per_layer"]) | set(result["end_to_end"])
        assert {spec["name"] for spec in DECLARED["per_layer"]} <= measured
        assert (out / f"trace-{name}.json").exists()
    storm = document["workloads"]["censor_storm"]["per_layer"]
    assert storm["core.accountability.exposures"] == 29
    assert storm["core.accountability.suspicion_msgs"] > 0


def test_compare_passes_on_itself_and_fails_on_a_regression(quick_results, tmp_path):
    out, _ = quick_results
    results = out / "results.json"
    same = lobench("--compare", str(results), str(results))
    assert same.returncode == 0 and "all rows pass" in same.stdout
    document = json.loads(results.read_text())
    document["workloads"]["paper_scale"]["end_to_end"]["run_s"]["median"] *= 1.5
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(document))
    worse = lobench("--compare", str(results), str(slower))
    assert worse.returncode == 1
    assert re.search(r"paper_scale\s+run_s.*\+50\.00%.*FAIL", worse.stdout)
    better = lobench("--compare", str(slower), str(results))
    assert better.returncode == 0


@pytest.mark.parametrize("trace,group", [("0", "end_to_end"), ("1", "per_layer")])
def test_benchmark_mode_prints_the_contract_line(trace, group):
    done = lobench("--workload", "burst_admission", "--seed", "9", "--quick",
                   "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [spec["name"] for spec in DECLARED[group]]
    for spec in DECLARED[group]:
        assert line["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_benchmark_mode_refuses_a_checkout_without_the_program(tmp_path):
    import shutil

    shutil.copy(runner.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(runner.ROOT / "lobench", tmp_path / "lobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = lobench("--workload", "steady_gossip", "--seed", "1",
                   "--seconds", "20", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_benchmark_json_meets_the_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["lobench"]
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert 1 <= DECLARED["run_seconds"] <= 60
    names = [w["name"] for w in DECLARED["workloads"]]
    for workload in DECLARED["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for spec in DECLARED["end_to_end"]:
        assert set(spec) == {"name", "unit", "better", "bound"}
        assert 0 < spec["bound"] <= 0.25
    for spec in DECLARED["per_layer"]:
        assert set(spec) == {"name", "unit", "better"}
    metrics = DECLARED["end_to_end"] + DECLARED["per_layer"]
    assert len(DECLARED["end_to_end"]) <= 16 and len(DECLARED["per_layer"]) <= 128
    for spec in metrics:
        assert UNIT.match(spec["unit"]) and spec["better"] in ("lower", "higher")
    names += [spec["name"] for spec in metrics]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    setup = next(s for s in DECLARED["end_to_end"] if s["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(s["bound"] for s in DECLARED["end_to_end"])
