"""Unit tests for random streams and measurement primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.rng import RandomStreams
from repro.sim.stats import Counter, Histogram, MetricSet, Timer


class TestRandomStreams:
    def test_same_seed_same_sequence(self):
        a = [RandomStreams(7).random("x") for _ in range(1)]
        b = [RandomStreams(7).random("x") for _ in range(1)]
        assert a == b

    def test_streams_are_independent_of_access_order(self):
        r1 = RandomStreams(7)
        first_then_second = (r1.random("a"), r1.random("b"))
        r2 = RandomStreams(7)
        second_then_first = (r2.random("b"), r2.random("a"))
        assert first_then_second[0] == second_then_first[1]
        assert first_then_second[1] == second_then_first[0]

    def test_different_names_differ(self):
        r = RandomStreams(7)
        assert r.random("a") != r.random("b")

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_any_seed_name_pair_is_stable(self, seed, name):
        assert (RandomStreams(seed).random(name)
                == RandomStreams(seed).random(name))

    def test_randint_bounds(self):
        r = RandomStreams(3)
        for _ in range(100):
            assert 5 <= r.randint("k", 5, 9) <= 9


class TestCounter:
    def test_add_and_reset(self):
        c = Counter("c")
        c.add()
        c.add(4)
        assert c.value == 5
        c.reset()
        assert c.value == 0


class TestTimer:
    def test_aggregates(self):
        t = Timer("t")
        for v in (10, 20, 30):
            t.record(v)
        assert t.count == 3
        assert t.total == 60
        assert t.mean == 20
        assert t.min == 10 and t.max == 30

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Timer("t").record(-1)

    def test_empty_mean_is_zero(self):
        assert Timer("t").mean == 0.0

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1))
    def test_mean_between_min_and_max(self, values):
        t = Timer("t")
        for v in values:
            t.record(v)
        assert t.min <= t.mean <= t.max


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("h", [10, 100])
        for v in (5, 50, 500):
            h.record(v)
        assert h.counts == [1, 1, 1]
        assert h.total == 3

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", [100, 10])

    def test_boundary_value_goes_low(self):
        h = Histogram("h", [10])
        h.record(10)
        assert h.counts == [1, 0]

    def test_percentiles_at_bucket_resolution(self):
        h = Histogram("h", [10, 100, 1000])
        for v in range(1, 101):  # 1..100: half <=10 is false; 10 in low
            h.record(v)
        # Ranked sample 50 falls in the <=100 bucket; its upper bound
        # is clamped to the observed max.
        assert h.percentile(50) == 100.0
        assert h.percentile(95) == 100.0
        assert h.percentile(100) == 100.0
        assert h.mean == pytest.approx(50.5)

    def test_percentile_overflow_bucket_reports_true_max(self):
        h = Histogram("h", [10])
        h.record(5)
        h.record(99_999)
        assert h.percentile(95) == 99_999.0

    def test_empty_percentile_is_zero(self):
        assert Histogram("h", [10]).percentile(50) == 0.0

    def test_snapshot_keys(self):
        h = Histogram("h", [10, 100])
        for v in (5, 50, 500):
            h.record(v)
        snap = h.snapshot()
        assert snap["n"] == 3
        assert snap["le_10"] == 1
        assert snap["le_100"] == 1
        assert snap["overflow"] == 1
        assert snap["max"] == 500.0
        assert snap["min"] == 5.0
        assert snap["mean"] == pytest.approx(555 / 3)


class TestSampler:
    """Sampled values go into a :class:`Histogram` (``Sampler`` went in
    PR 21); it reports the same mean, max and count."""

    def test_mean_and_max(self):
        s = Histogram("s", [])
        for v in (10, 20, 30):
            s.record(v)
        assert s.mean == 20.0
        assert s.max == 30
        assert s.total == 3

    def test_empty_sampler(self):
        snap = Histogram("s", []).snapshot()
        assert snap["mean"] == 0.0 and snap["max"] == 0.0


class TestMetricSet:
    def test_lazy_creation_and_reuse(self):
        m = MetricSet("m")
        assert m.counter("a") is m.counter("a")
        assert m.histogram("b_ns") is m.histogram("b_ns")

    def test_snapshot_flattens(self):
        m = MetricSet("m")
        m.counter("hits").add(3)
        m.histogram("lat_ns").record(100)
        snap = m.snapshot()
        assert snap["hits.count"] == 3
        assert snap["lat_ns.n"] == 1
        assert snap["lat_ns.mean"] == 100

    def test_histogram_lazy_creation_and_reuse(self):
        m = MetricSet("m")
        h = m.histogram("lat", [10, 100])
        assert m.histogram("lat") is h
        assert isinstance(h, Histogram)

    def test_snapshot_merges_histograms(self):
        m = MetricSet("m")
        h = m.histogram("lat", [10, 100])
        for v in (5, 50, 500):
            h.record(v)
        snap = m.snapshot()
        assert snap["lat.n"] == 3
        assert snap["lat.le_10"] == 1
        assert snap["lat.overflow"] == 1
        assert snap["lat.p95"] == 500.0
