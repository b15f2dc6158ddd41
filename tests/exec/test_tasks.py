"""Tests for deterministic sweep task derivation."""

import pytest

from repro.exec import (
    EXPERIMENTS,
    derive_tasks,
    expand_grid,
    experiment_names,
    register_experiment,
)
from repro.experiments.repeat import derive_seeds


def test_expand_grid_sorted_axes_deterministic():
    points = expand_grid({"b": [1, 2], "a": ["x", "y"]})
    assert points == [
        {"a": "x", "b": 1},
        {"a": "x", "b": 2},
        {"a": "y", "b": 1},
        {"a": "y", "b": 2},
    ]
    # Insertion order of the grid dict must not matter.
    assert points == expand_grid({"a": ["x", "y"], "b": [1, 2]})


def test_expand_grid_empty_is_single_point():
    assert expand_grid({}) == [{}]


def test_derive_tasks_grid_major_repetition_minor():
    tasks = derive_tasks(
        "run", {"num_nodes": [8, 10]}, base_seed=7, repetitions=3
    )
    assert len(tasks) == 6
    assert [t.index for t in tasks] == list(range(6))
    seeds = derive_seeds(7, 3)
    # Repetition i of every grid point shares the i-th derived seed.
    assert [t.seed for t in tasks] == seeds + seeds
    assert [t.repetition for t in tasks] == [0, 1, 2, 0, 1, 2]
    assert [t.params["num_nodes"] for t in tasks] == [8, 8, 8, 10, 10, 10]


def test_derive_tasks_is_reproducible():
    a = derive_tasks("run", {"num_nodes": [8, 10]}, base_seed=3, repetitions=2)
    b = derive_tasks("run", {"num_nodes": [8, 10]}, base_seed=3, repetitions=2)
    assert a == b


def test_derive_tasks_unknown_experiment():
    with pytest.raises(KeyError):
        derive_tasks("no_such_experiment", {})


def test_task_spec_is_plain_data():
    task = derive_tasks("run", {"num_nodes": [8]}, base_seed=1)[0]
    spec = task.spec()
    assert spec == {
        "index": 0,
        "experiment": "run",
        "seed": 1,
        "repetition": 0,
        "params": {"num_nodes": 8},
    }
    import pickle

    assert pickle.loads(pickle.dumps(spec)) == spec


def test_registry_covers_cli_experiments():
    # One entry per figure point; a whole figure is a sweep of its entry.
    assert experiment_names() == [
        "cpu", "fig10_point", "fig6_point", "fig7_point", "fig8_policy",
        "fig9_point", "memory_point", "run"]


def _probe_experiment(seed, **params):
    return {"seed": seed, **params}


def test_register_experiment_roundtrip():
    register_experiment("probe_tasks_test", _probe_experiment)
    try:
        tasks = derive_tasks("probe_tasks_test", {"x": [1]}, base_seed=5)
        assert tasks[0].experiment == "probe_tasks_test"
        assert EXPERIMENTS["probe_tasks_test"](seed=5, x=1) == {
            "seed": 5, "x": 1,
        }
    finally:
        del EXPERIMENTS["probe_tasks_test"]
