"""Tests for the repetition seeds."""

import pytest

from repro.experiments.repeat import derive_seeds


def test_derive_seeds_distinct():
    seeds = derive_seeds(42, 5)
    assert len(seeds) == 5
    assert len(set(seeds)) == 5
    assert seeds[0] == 42


def test_derive_seeds_validation():
    with pytest.raises(ValueError):
        derive_seeds(1, 0)

