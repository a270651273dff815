"""Distribution utilities: Zipf, NURand, hotspot, discrete sampling."""

import math
import random
import string
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.rand import (ALPHANUMERIC, DiscreteDistribution, HotspotGenerator,
                        LatestGenerator, ScrambledZipfGenerator,
                        ZipfGenerator, exponential_interarrival, make_rng,
                        nu_rand, random_numeric_string, random_string,
                        tpcc_last_name)


def test_random_string_lengths():
    rng = random.Random(1)
    lengths = set()
    for _ in range(200):
        s = random_string(rng, 5, 10)
        assert 5 <= len(s) <= 10
        assert set(s) <= set(ALPHANUMERIC)
        lengths.add(len(s))
    assert lengths == set(range(5, 11))
    assert len(random_string(rng, 7)) == 7
    assert random_string(rng, 0) == ""


def test_random_numeric_string():
    rng = random.Random(2)
    s = random_numeric_string(rng, 15)
    assert len(s) == 15
    assert s.isdigit()


def test_random_strings_repeat_for_a_seed():
    def draw(seed):
        rng = random.Random(seed)
        return ([random_string(rng, 1, 40) for _ in range(50)]
                + [random_numeric_string(rng, 16) for _ in range(50)])

    assert draw(9) == draw(9)
    assert draw(9) != draw(10)


def _chi_square(text, alphabet):
    expected = len(text) / len(alphabet)
    counts = Counter(text)
    assert set(counts) <= set(alphabet)
    return sum((counts[c] - expected) ** 2 / expected for c in alphabet)


def test_random_string_characters_are_uniform():
    # A plain ``byte % 62`` draws the first 8 symbols with chance 5/256
    # against 4/256 (chi-square ~750 here); 100.9 is the 0.999 quantile at
    # 61 degrees of freedom.
    rng = random.Random(12)
    text = "".join(random_string(rng, 24) for _ in range(4000))
    assert _chi_square(text, ALPHANUMERIC) < 100.9


def test_random_numeric_string_digits_are_uniform():
    # A plain ``byte % 10`` draws 0-5 with chance 26/256 against 25/256
    # (chi-square ~115 here); 27.88 is the 0.999 quantile at 9 degrees of
    # freedom.
    rng = random.Random(13)
    text = "".join(random_numeric_string(rng, 16) for _ in range(12500))
    assert _chi_square(text, string.digits) < 27.88


class _RejectedFirstDraw(random.Random):
    """A generator whose first ``randbytes`` draw holds only bytes >= 248,
    all of which the alphanumeric table deletes."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def randbytes(self, n):
        self.draws += 1
        if self.draws == 1:
            return bytes(248 + i % 8 for i in range(n))
        return super().randbytes(n)


def test_rejected_bytes_are_topped_up():
    rng = _RejectedFirstDraw(14)
    s = random_string(rng, 30)
    assert len(s) == 30 and set(s) <= set(ALPHANUMERIC)
    assert rng.draws >= 2
    rng = _RejectedFirstDraw(15)
    s = random_numeric_string(rng, 30)
    assert len(s) == 30 and s.isdigit()
    # 248 and 249 are kept for digits (as 8 and 9); the rest is topped up.
    assert s.startswith("89898989")
    assert rng.draws >= 2


def test_nu_rand_in_range():
    rng = random.Random(3)
    values = [nu_rand(rng, 255, 0, 999) for _ in range(2000)]
    assert all(0 <= v <= 999 for v in values)
    assert len(set(values)) > 100  # actually spreads


def test_nu_rand_skews_distribution():
    rng = random.Random(4)
    values = Counter(nu_rand(rng, 7, 0, 99) for _ in range(20000))
    top_decile = sum(c for v, c in values.items()) / 20000
    # Compared to uniform, the OR-composition concentrates on values with
    # many set bits; just check the distribution is non-degenerate.
    assert len(values) > 50


def test_zipf_generator_bounds_and_skew():
    zipf = ZipfGenerator(1000, theta=0.99)
    rng = random.Random(5)
    draws = [zipf.next(rng) for _ in range(20000)]
    assert all(0 <= d < 1000 for d in draws)
    counts = Counter(draws)
    top10 = sum(c for _v, c in counts.most_common(10)) / len(draws)
    assert top10 > 0.3  # heavy head


def test_zipf_invalid_args():
    with pytest.raises(ValueError):
        ZipfGenerator(0)
    with pytest.raises(ValueError):
        ZipfGenerator(10, theta=1.5)


def test_zipf_large_n_uses_approximation():
    # >10k switches to the integral tail approximation; stays in bounds.
    zipf = ZipfGenerator(1_000_000, theta=0.9)
    rng = random.Random(6)
    draws = [zipf.next(rng) for _ in range(500)]
    assert all(0 <= d < 1_000_000 for d in draws)


def test_scrambled_zipf_spreads_hot_keys():
    scrambled = ScrambledZipfGenerator(1000)
    rng = random.Random(7)
    draws = [scrambled.next(rng) for _ in range(20000)]
    counts = Counter(draws)
    hot_keys = [v for v, _c in counts.most_common(10)]
    # Hot keys are scattered, not the lowest ids.
    assert max(hot_keys) > 100
    assert all(0 <= d < 1000 for d in draws)


def test_latest_generator_prefers_recent():
    latest = LatestGenerator(1000)
    rng = random.Random(8)
    draws = [latest.next(rng) for _ in range(5000)]
    assert sum(1 for d in draws if d >= 900) / len(draws) > 0.5
    latest.set_max(2000)
    assert latest.n == 2000


def test_hotspot_generator_fractions():
    hotspot = HotspotGenerator(1000, hot_set_fraction=0.1,
                               hot_op_fraction=0.9)
    rng = random.Random(9)
    draws = [hotspot.next(rng) for _ in range(10000)]
    hot_share = sum(1 for d in draws if d < 100) / len(draws)
    assert hot_share == pytest.approx(0.9, abs=0.03)
    with pytest.raises(ValueError):
        HotspotGenerator(10, hot_set_fraction=0)
    with pytest.raises(ValueError):
        HotspotGenerator(10, hot_op_fraction=2)


def test_discrete_distribution_probabilities():
    dist = DiscreteDistribution(["a", "b", "c"], [50, 30, 20])
    rng = random.Random(10)
    counts = Counter(dist.sample(rng) for _ in range(20000))
    assert counts["a"] / 20000 == pytest.approx(0.5, abs=0.02)
    assert counts["b"] / 20000 == pytest.approx(0.3, abs=0.02)
    assert dist.probability("a") == pytest.approx(0.5)
    assert dist.probability("zz") == 0.0


def test_discrete_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution([], [])
    with pytest.raises(ValueError):
        DiscreteDistribution(["a"], [1, 2])
    with pytest.raises(ValueError):
        DiscreteDistribution(["a"], [-1])
    with pytest.raises(ValueError):
        DiscreteDistribution(["a", "b"], [0, 0])


def test_discrete_distribution_zero_weight_never_sampled():
    dist = DiscreteDistribution(["a", "b"], [100, 0])
    rng = random.Random(11)
    assert all(dist.sample(rng) == "a" for _ in range(200))


def test_exponential_interarrival_mean():
    rng = random.Random(12)
    gaps = [exponential_interarrival(rng, 50.0) for _ in range(20000)]
    assert sum(gaps) / len(gaps) == pytest.approx(1 / 50.0, rel=0.05)
    with pytest.raises(ValueError):
        exponential_interarrival(rng, 0)


def test_make_rng_deterministic_and_salted():
    a = make_rng(42, "x").random()
    b = make_rng(42, "x").random()
    c = make_rng(42, "y").random()
    assert a == b
    assert a != c
    assert make_rng(None) is not None  # unseeded allowed


def test_tpcc_last_name_range():
    names = {tpcc_last_name(i) for i in range(1000)}
    assert len(names) == 1000  # all distinct


@given(n=st.integers(min_value=1, max_value=5000),
       theta=st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=50, deadline=None)
def test_zipf_always_in_bounds(n, theta):
    zipf = ZipfGenerator(n, theta)
    rng = random.Random(0)
    assert all(0 <= zipf.next(rng) < n for _ in range(50))


@given(weights=st.lists(st.floats(min_value=0.0, max_value=100.0),
                        min_size=1, max_size=10).filter(
                            lambda w: sum(w) > 0))
@settings(max_examples=80, deadline=None)
def test_discrete_distribution_only_returns_members(weights):
    values = list(range(len(weights)))
    dist = DiscreteDistribution(values, weights)
    rng = random.Random(1)
    for _ in range(30):
        drawn = dist.sample(rng)
        assert drawn in values
        assert weights[values.index(drawn)] > 0 or len(
            [w for w in weights if w > 0]) == 0
