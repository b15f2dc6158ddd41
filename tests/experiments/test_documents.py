"""The committed figure documents: rendered, re-derivable, and shaped
like the paper's figures.

Each measured table in EXPERIMENTS.md is one ``python -m repro sweep ...
--out-dir results/<name>`` run whose ``sweep.json`` is committed, shown
as a fenced block that opens with ``$ python -m repro report
results/<name>/sweep.json``.  These tests read the committed files only,
so they are cheap:

* every block equals what ``report`` prints for its document today, and
  every document has a block;
* the ``sweep`` command EXPERIMENTS.md gives for a document derives
  exactly its task list (experiment, seeds, repetitions, parameters);
* the paper-shape assertions ("who wins, by roughly what factor") hold
  on the documents, with the bounds the figures have always been held to.

``tests/gates/test_committed_documents.py`` re-runs the task lists and
compares the documents byte for byte.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

import repro
from repro.cli import _parse_grid, build_parser, main
from repro.exec import derive_tasks
from repro.experiments.fig7_mempool_latency import pooled
from repro.obs.stats import describe

ROOT = Path(repro.__file__).resolve().parents[2]
RESULTS = ROOT / "results"
DOCUMENTS = sorted(path.parent.name for path in RESULTS.glob("*/sweep.json"))
FIGURES = ["cpu", "fig10", "fig6", "fig7", "fig8", "fig9", "memory"]
ABLATIONS = ["ablation-capacity", "ablation-fanout", "ablation-prefilter",
             "ablation-suspicion", "ablation-timeout"]
BLOCK_RE = re.compile(
    r"^```text\n\$ python -m repro report results/([^/\s]+)/sweep\.json\n"
    r"(.*?)^```$", re.M | re.S)


def _experiments_md() -> str:
    return (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")


def _tasks(name):
    path = RESULTS / name / "sweep.json"
    return json.loads(path.read_text(encoding="utf-8"))["tasks"]


def _results(name):
    return [task["result"] for task in _tasks(name)]


def _sweep_commands():
    """EXPERIMENTS.md's ``sweep`` commands, by their ``--out-dir`` name."""
    spec = importlib.util.spec_from_file_location(
        "check_cli_examples", ROOT / "tools" / "check_cli_examples.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    commands = {}
    for _line, argv, _inline in tool.iter_commands(_experiments_md()):
        if argv and argv[0] == "sweep":
            args = build_parser().parse_args(argv)
            commands[Path(args.out_dir).name] = args
    return commands


def test_every_document_has_a_block_and_a_command():
    assert DOCUMENTS == sorted(FIGURES + ABLATIONS)
    blocks = [name for name, _body in BLOCK_RE.findall(_experiments_md())]
    assert sorted(blocks) == DOCUMENTS, "one block per document"
    assert sorted(_sweep_commands()) == DOCUMENTS


def test_the_documents_stay_small():
    total = sum(path.stat().st_size for path in RESULTS.rglob("*.json"))
    assert total < 2_000_000, total


@pytest.mark.parametrize("name", DOCUMENTS)
def test_a_block_is_what_report_prints(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    blocks = dict(BLOCK_RE.findall(_experiments_md()))
    assert main(["report", f"results/{name}/sweep.json"]) == 0
    assert capsys.readouterr().out == blocks[name]


@pytest.mark.parametrize("name", DOCUMENTS)
def test_a_document_is_what_its_command_derives(name):
    args = _sweep_commands()[name]
    assert args.out_dir == f"results/{name}"
    expected = derive_tasks(args.experiment, _parse_grid(args.param or []),
                            base_seed=args.seed, repetitions=args.repetitions)
    recorded = [{key: task[key] for key in
                 ("index", "experiment", "seed", "repetition", "params")}
                for task in _tasks(name)]
    assert recorded == [task.spec() for task in expected]
    assert all(task["ok"] for task in _tasks(name))


# ------------------------------------------------------------ paper shapes


def test_fig6_every_fraction_converges_and_exposure_spreads_in_seconds():
    for point in _results("fig6"):
        assert point["exposure_convergence_at"] is not None
        assert point["suspicion_convergence_at"] is not None
        # Exposure spreads within seconds of first detection (paper: 6-7 s).
        assert point["exposure_spread_s"] < 15.0


def test_fig7_latency_is_seconds_scale_and_dissemination_shallow():
    (_params, latencies, hops), = pooled(_tasks("fig7"))
    summary, hop = describe(latencies), describe(hops)
    # Seconds-scale mean, the mass well before the tail.
    assert 0.3 < summary["mean"] < 4.0
    assert summary["p90"] < 3 * summary["mean"] + 1.0
    assert summary["count"] > 1000
    # Dissemination stays a handful of pairwise interactions deep.
    assert 1.0 <= hop["mean"] <= 8.0


def test_fig8_highest_fee_is_slower_with_a_fat_tail_and_fifo_scales():
    summary = {(t["params"]["policy"], t["params"]["num_nodes"]):
               t["result"]["summary"] for t in _tasks("fig8")}
    fifo, fee = summary["fifo", 40], summary["highest_fee", 40]
    # Who wins and by roughly what factor (paper: ~2.5x mean, fatter tail).
    assert fee["mean"] > 1.5 * fifo["mean"]
    assert fee["std"] > 2 * fifo["std"]
    assert fee["p99"] > fifo["p99"]
    # FIFO stays seconds-scale and grows slowly with size.
    means = [summary["fifo", n]["mean"] for n in (20, 40, 60)]
    assert means[-1] < 3 * means[0] + 2.0


def test_fig9_lo_is_cheapest_and_narwhal_trades_bandwidth_for_latency():
    row = {r["protocol"]: r for r in _results("fig9")}
    lo, flood = row["lo"], row["flood"]
    narwhal, peerreview = row["narwhal"], row["peerreview"]
    # The paper's ordering and rough factors.
    assert flood["overhead_bytes"] >= 3.5 * lo["overhead_bytes"]
    assert narwhal["overhead_bytes"] > flood["overhead_bytes"]
    assert peerreview["overhead_bytes"] > narwhal["overhead_bytes"]
    # Narwhal trades bandwidth for latency: ~1-2 s faster than LO.
    assert narwhal["mean_latency_s"] < lo["mean_latency_s"]


def test_fig10_reconciliations_grow_with_workload_but_stay_bounded():
    points = _results("fig10")
    rates = [p["reconciliations_per_node_per_min"] for p in points]
    assert rates[-1] > rates[0]
    # 3 sync targets/s = 180 base attempts/min; the partition fallback
    # must keep the decode count the same order of magnitude.
    assert rates[-1] < 800
    assert all(p["failure_fraction"] < 0.5 for p in points)


def test_sec65_commitments_are_kilobyte_scale():
    points = _results("memory")
    sizes = [p["avg_commitment_bytes"] for p in points]
    assert 150 < sizes[0] < 4000
    assert sizes[-1] >= sizes[0]
    # A whole 10,000-node network's commitments stay double-digit MB.
    assert all(p["extrapolated_10k_nodes_mb"] < 90 for p in points)


def test_sec65_partitioning_pays_already_at_a_small_difference():
    for point in _results("cpu"):
        assert point["naive_seconds"] / point["partitioned_seconds"] > 2.0
        assert point["partitioned_sketches"] > 1


def _by(name, param):
    return {t["params"][param]: t["result"] for t in _tasks(name)}


def test_ablation_the_clock_prefilter_saves_overhead():
    run = _by("ablation-prefilter", "use_clock_prefilter")
    assert run[True]["overhead_bytes"] < run[False]["overhead_bytes"]


def test_ablation_more_fanout_converges_faster_and_costs_bandwidth():
    run = _by("ablation-fanout", "sync_fanout")
    assert run[6]["mean_mempool_latency_s"] < run[1]["mean_mempool_latency_s"]
    assert run[6]["overhead_bytes"] > run[1]["overhead_bytes"]


def test_ablation_the_papers_timeout_budget_suspects_no_slow_node():
    run = {(t["params"]["request_timeout_s"], t["params"]["request_retries"]):
           t["result"] for t in _tasks("ablation-timeout")}
    tight, paper = run[0.5, 0], run[1.0, 3]
    assert paper["false_suspicions"] <= tight["false_suspicions"]
    assert paper["false_suspicions"] == 0


def test_ablation_verified_suspicion_still_converges():
    (point,) = _results("ablation-suspicion")
    assert point["suspicion_convergence_at"] is not None
    assert point["exposure_convergence_at"] is not None


def test_ablation_a_tight_sketch_capacity_fails_no_less():
    run = _by("ablation-capacity", "sketch_capacity")
    assert run[16]["reconciliation_failures"] >= \
        run[100]["reconciliation_failures"]
