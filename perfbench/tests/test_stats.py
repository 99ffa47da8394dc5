"""Tests for the benchmark's statistics helpers and span self time.

Run with ``python -m pytest perfbench/tests``.
"""

import random
import statistics
import threading
from collections import Counter

import pytest

from stats import TAIL_PERCENTILES, percentile, self_times, tail, union_length
from tracer import Tracer, count_hooks


# ----------------------------------------------------------------------
# tail estimator
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [21, 22, 39, 40, 41, 99, 100, 250, 1000, 5000])
def test_tail_never_below_p50_and_carries_its_count(n):
    rng = random.Random(n)
    for _ in range(20):
        xs = [rng.lognormvariate(0.0, 1.5) for _ in range(n)]
        value, pct, count = tail(xs)
        assert value >= statistics.median(xs)
        assert count == n
        assert pct in TAIL_PERCENTILES


@pytest.mark.parametrize("n", [1, 5, 10, 11, 19])
def test_tail_refuses_too_few_samples_instead_of_falling_back(n):
    # with fewer than 20 samples not even the median has 10 beyond it;
    # the old estimator returned the minimum here
    xs = list(range(n, 0, -1))
    with pytest.raises(ValueError):
        tail(xs)


def test_tail_is_highest_percentile_with_ten_beyond():
    xs = [float(i) for i in range(1000)]
    value, pct, _ = tail(xs)
    # p99.9 has one sample above it, p99 exactly ten
    assert pct == 99.0
    assert sum(1 for x in xs if x > value) == 10
    assert value == pytest.approx(percentile(xs, 99.0))


@pytest.mark.parametrize("n,expected", [(20, 50.0), (21, 50.0), (37, 50.0),
                                        (38, 75.0), (91, 75.0), (92, 90.0),
                                        (1000, 99.0)])
def test_tail_percentile_follows_the_ten_beyond_rule(n, expected):
    xs = [float(i) for i in range(n)]
    _, pct, _ = tail(xs)
    assert pct == expected
    for higher in TAIL_PERCENTILES:
        if higher > pct:
            v = percentile(xs, higher)
            assert sum(1 for x in xs if x > v) < 10


def test_tail_with_ties_does_not_count_equal_samples_as_beyond():
    xs = [1.0] * 15 + [2.0] * 6
    with pytest.raises(ValueError):
        tail(xs)


def test_percentile_50_is_the_median():
    rng = random.Random(7)
    for n in (1, 2, 3, 10, 11):
        xs = [rng.random() for _ in range(n)]
        assert percentile(xs, 50.0) == statistics.median(xs)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------

def test_union_length_merges_and_clips():
    assert union_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert union_length([], 0, 10) == 0
    assert union_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_exactly_the_children_cover():
    spans = [
        ("parent", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),      # overlaps a: [1, 5] counted once
        ("c", 8.0, 12.0, 0),     # reaches past the parent: only [8, 10]
        ("grandchild", 1.5, 2.5, 1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)


def test_self_times_sum_to_the_root_interval_when_children_nest():
    spans = [("root", 0.0, 9.0, -1), ("x", 1.0, 4.0, 0), ("y", 2.0, 3.0, 1),
             ("z", 5.0, 8.0, 0)]
    assert sum(self_times(spans)) == pytest.approx(9.0)


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_tracer_self_seconds_and_outermost_counts():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def inner():
        clock.t += 2.0

    traced_inner = tr.wrap("inner", inner)

    def outer():
        clock.t += 1.0
        traced_inner()
        clock.t += 3.0

    traced_outer = tr.wrap("outer", outer)
    same = tr.wrap("outer", traced_outer)   # nested same-name wrapper
    same()
    own = tr.self_seconds()
    assert own["outer"] == pytest.approx(4.0)
    assert own["inner"] == pytest.approx(2.0)
    assert tr.counts["outer"] == 1          # nested same name counted once
    assert tr.counts["inner"] == 1


def test_tracer_keeps_threads_apart():
    tr = Tracer()
    work = tr.wrap("work", lambda: sum(range(1000)))
    threads = [threading.Thread(target=lambda: [work() for _ in range(200)])
               for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert tr.counts["work"] == 800
    assert all(s[3] == -1 for s in tr.spans)   # no cross-thread parents


def test_count_hooks_counts_every_call():
    class Runtime:
        def crit_enter(self):
            return "in"

        def chunk(self, tid, n):
            return (tid, n)

    counts = Counter()
    count_hooks(Runtime, counts, names=("crit_enter", "chunk", "missing"))
    rt = Runtime()
    bound = getattr(rt, "crit_enter")   # kernels look hooks up by name
    assert [bound() for _ in range(3)] == ["in"] * 3
    assert rt.chunk(1, 5) == (1, 5)
    assert counts == {"crit_enter": 3, "chunk": 1}
