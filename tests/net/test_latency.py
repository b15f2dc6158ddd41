"""Unit tests for latency models."""

import random

import pytest

from repro.net import CityLatencyModel, ConstantLatencyModel, UniformLatencyModel
from repro.net.latency import synthetic_city_table


def test_constant_model():
    model = ConstantLatencyModel(0.07)
    assert model.delay(0, 1) == 0.07
    assert model.delay(5, 9) == 0.07


def test_constant_model_rejects_negative():
    with pytest.raises(ValueError):
        ConstantLatencyModel(-0.1)


def test_uniform_model_fixed_per_pair():
    model = UniformLatencyModel(0.01, 0.1, random.Random(3))
    d1 = model.delay(0, 1)
    d2 = model.delay(0, 1)
    assert d1 == d2
    assert 0.01 <= d1 <= 0.1


def test_uniform_model_symmetric():
    model = UniformLatencyModel(0.01, 0.1, random.Random(3))
    assert model.delay(2, 7) == model.delay(7, 2)


def test_uniform_model_shares_one_draw_per_unordered_pair():
    # Regression: the docstring used to promise per-*ordered*-pair draws
    # while the cache keyed on the unordered pair.  The cache's behaviour
    # is the contract: both directions must consume exactly one RNG draw.
    class CountingRandom(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.uniform_calls = 0

        def uniform(self, a, b):
            self.uniform_calls += 1
            return super().uniform(a, b)

    rng = CountingRandom(3)
    model = UniformLatencyModel(0.01, 0.1, rng)
    forward = model.delay(4, 9)
    backward = model.delay(9, 4)
    assert forward == backward
    assert rng.uniform_calls == 1  # the reverse direction hit the cache
    model.delay(4, 9)
    assert rng.uniform_calls == 1  # and so do repeats


def test_bundled_models_declare_pair_stability():
    # The network asks for the delay once per message and keeps no memo:
    # a link's delay is fixed only because every bundled model returns
    # the same value on every call for a pair.
    models = (
        ConstantLatencyModel(0.05),
        UniformLatencyModel(0.01, 0.1, random.Random(5)),
        CityLatencyModel(48, random.Random(5)),
    )
    for model in models:
        assert model.delay(1, 2) == model.delay(1, 2)
        assert model.delay(2, 1) == model.delay(2, 1)


def test_uniform_model_rejects_bad_range():
    with pytest.raises(ValueError):
        UniformLatencyModel(0.2, 0.1, random.Random(0))


def test_city_table_has_32_cities():
    table = synthetic_city_table(random.Random(1))
    assert len(table) == 32
    names = [name for name, _x, _y in table]
    assert len(set(names)) == 32


def test_city_model_round_robin_assignment():
    model = CityLatencyModel(70, random.Random(1))
    assert model.city_of(0) == model.city_of(32)
    assert model.city_of(1) != model.city_of(0)


def test_city_model_delay_properties():
    model = CityLatencyModel(64, random.Random(1))
    delays = [
        model.delay(a, b) for a in range(0, 64, 7) for b in range(0, 64, 5)
    ]
    assert all(d >= CityLatencyModel.BASE_DELAY_S for d in delays)
    # Realistic WonderNetwork-like spread: same-city ~ ms, antipodal
    # approaching a couple hundred ms one-way.
    assert min(delays) < 0.02
    assert max(delays) > 0.08
    assert max(delays) < 0.40


def test_city_model_symmetric():
    model = CityLatencyModel(64, random.Random(1))
    assert model.delay(3, 40) == model.delay(40, 3)


def test_city_model_same_city_is_cheapest():
    model = CityLatencyModel(64, random.Random(1))
    same_city = model.delay(0, 32)
    cross = model.delay(0, 16)
    assert same_city <= cross


def test_city_model_rejects_empty():
    with pytest.raises(ValueError):
        CityLatencyModel(0, random.Random(1))


def test_city_model_rejects_negative_ids():
    model = CityLatencyModel(64, random.Random(1))
    with pytest.raises(ValueError):
        model.city_of(-1)
    with pytest.raises(ValueError):
        model.delay(-1, 3)
    with pytest.raises(ValueError):
        model.delay(3, -1)


def test_city_model_out_of_range_ids_no_double_wrap():
    # Regression: city_of/delay used to apply a redundant `% num_nodes`
    # before the city modulus, silently collapsing overlay-external ids
    # (light clients start at 1,000,000) onto arbitrary miners' cities.
    # The contract is now plain round-robin on the id itself.
    model = CityLatencyModel(70, random.Random(1))
    assert model.city_of(1_000_000) == model.city_of(1_000_000 % 32)
    # Old behaviour: cities[(1_000_000 % 70) % 32] -- a different city.
    assert model.city_of(1_000_000) != model.city_of((1_000_000 % 70) % 32)
    assert model.delay(1_000_000, 5) == model.delay(1_000_000 % 32, 5)
    assert model.delay(5, 1_000_000) == model.delay(5, 1_000_000 % 32)
