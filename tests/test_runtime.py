"""Tests for the simulated OpenMP runtime (RegionExecutor)."""

import math

import pytest

from repro.errors import SimulatedCrash, SimulatedHang
from repro.sim.counters import PerfCounters
from repro.sim.events import ProfileRecorder
from repro.sim.lower import CostState, RegionMeta
from repro.sim.runtime import RegionExecutor
from repro.vendors import CLANG, GCC, INTEL


def _executor(vendor=GCC, *, regions=None, threads=4, **kw):
    regions = regions if regions is not None else [RegionMeta(n_threads=threads)]
    cost = CostState()
    return RegionExecutor(vendor, regions, cost, PerfCounters(),
                          ProfileRecorder(binary_name="t"),
                          wrap_fn=lambda x: x, **kw), cost


class TestChunking:
    @pytest.mark.parametrize("n,threads", [(0, 4), (1, 4), (13, 4), (16, 4),
                                           (100, 32), (3, 8)])
    def test_chunks_partition_range(self, n, threads):
        ex, _ = _executor(threads=threads)
        ex.region_enter(0)
        covered = []
        for tid in range(threads):
            lo, hi = ex.chunk(tid, n)
            assert lo <= hi
            covered.extend(range(lo, hi))
        assert covered == list(range(n))

    def test_chunks_are_balanced(self):
        ex, _ = _executor(threads=4)
        ex.region_enter(0)
        sizes = [hi - lo for lo, hi in (ex.chunk(t, 14) for t in range(4))]
        assert max(sizes) - min(sizes) <= 1


class TestRegionAccounting:
    def test_elapsed_is_max_thread_plus_overheads(self):
        ex, cost = _executor(threads=2)
        ex.region_enter(0)
        # thread 0 computes 1000 cycles, thread 1 computes 3000
        for tid, work in ((0, 1000.0), (1, 3000.0)):
            ex.thread_begin(tid)
            cost.cy += work
            ex.thread_end(tid)
        before = cost.cy
        ex.region_exit(0, 0.0, None, None)
        # cycles were replaced by snapshot + elapsed, not the 4000 sum
        region_elapsed = cost.cy
        assert region_elapsed < 4000.0 + ex.vendor.runtime.spawn_cold_cycles \
            + 100_000
        assert region_elapsed >= 3000.0  # at least the slowest thread

    def test_critical_time_serializes(self):
        ex, cost = _executor(threads=2)
        ex.region_enter(0)
        for tid in (0, 1):
            ex.thread_begin(tid)
            ex.crit_enter()
            cost.ccy += 500.0
            ex.thread_end(tid)
        ex.region_exit(0, 0.0, None, None)
        # both threads' critical bodies must appear in elapsed (serialized)
        assert cost.cy >= 1000.0
        assert cost.ccy == 0.0  # folded back

    def test_cold_then_warm_spawn(self):
        ex, _ = _executor(vendor=GCC)
        ex.region_enter(0)
        ex.region_exit(0, 0.0, None, None)
        pf_after_cold = ex.counters.page_faults
        ex.region_enter(0)
        ex.region_exit(0, 0.0, None, None)
        pf_after_warm = ex.counters.page_faults
        assert pf_after_cold == GCC.runtime.spawn_cold_page_faults
        assert pf_after_warm - pf_after_cold == GCC.runtime.spawn_warm_page_faults

    def test_clang_thrash_mode_engages_after_threshold(self):
        ex, cost = _executor(vendor=CLANG)
        costs = []
        for i in range(CLANG.runtime.spawn_thrash_threshold + 3):
            before = cost.cy
            ex.region_enter(0)
            ex.region_exit(0, 0.0, None, None)
            costs.append(cost.cy - before)
        # entries beyond the threshold pay the thrash cost
        assert costs[-1] > costs[2] * 3

    def test_nested_region_enter_rejected(self):
        ex, _ = _executor()
        ex.region_enter(0)
        with pytest.raises(RuntimeError):
            ex.region_enter(0)

    def test_event_outside_region_rejected(self):
        ex, _ = _executor()
        with pytest.raises(RuntimeError):
            ex.crit_enter()


class TestReductionCombining:
    def test_linear_combine_order(self):
        ex, _ = _executor(vendor=GCC)
        out = ex._combine_reduction(1.0, [2.0, 3.0, 4.0], "+", tree=False)
        assert out == ((1.0 + 2.0) + 3.0) + 4.0

    def test_tree_combine_order(self):
        ex, _ = _executor(vendor=INTEL)
        out = ex._combine_reduction(1.0, [2.0, 3.0, 4.0, 5.0], "+", tree=True)
        assert out == 1.0 + ((2.0 + 3.0) + (4.0 + 5.0))

    def test_orders_can_differ_numerically(self):
        ex, _ = _executor()
        partials = [1e16, 1.0, 1.0, 1.0, -1e16, 1.0, 1.0, 1.0]
        lin = ex._combine_reduction(0.0, partials, "+", tree=False)
        tree = ex._combine_reduction(0.0, partials, "+", tree=True)
        assert lin != tree

    def test_product_combine(self):
        ex, _ = _executor()
        assert ex._combine_reduction(2.0, [3.0, 4.0], "*", tree=False) == 24.0

    def test_empty_partials(self):
        ex, _ = _executor()
        assert ex._combine_reduction(7.0, [], "+", tree=True) == 7.0


class TestFaults:
    def test_crash_on_region_enter(self):
        ex, _ = _executor(crash_active=True)
        with pytest.raises(SimulatedCrash) as exc:
            ex.region_enter(0)
        assert exc.value.signal_name == "SIGSEGV"

    def test_crash_in_prologue_when_no_regions(self):
        ex, _ = _executor(regions=[], crash_active=True)
        with pytest.raises(SimulatedCrash):
            ex.prologue()

    def test_no_crash_when_inactive(self):
        ex, _ = _executor(crash_active=False)
        ex.prologue()
        ex.region_enter(0)

    def test_hang_after_threshold_acquires(self):
        ex, _ = _executor(vendor=INTEL, threads=32, hang_active=True)
        ex.region_enter(0)
        ex.thread_begin(0)
        with pytest.raises(SimulatedHang) as exc:
            for _ in range(INTEL.faults.hang_min_acquires + 1):
                ex.crit_enter()
        states = exc.value.thread_states
        assert sum(len(v) for v in states.values()) == 32
        assert "__kmp_eq_4" in states
        assert INTEL.symbols.yield_ in states

    def test_no_hang_when_inactive(self):
        ex, _ = _executor(vendor=INTEL, hang_active=False)
        ex.region_enter(0)
        ex.thread_begin(0)
        for _ in range(INTEL.faults.hang_min_acquires + 10):
            ex.crit_enter()


class TestWaitSideEffects:
    def test_intel_lock_waiting_generates_counters(self):
        ex, _ = _executor(vendor=INTEL)
        ex._apply_wait_side_effects(10_000_000.0, reschedules=True)
        assert ex.counters.context_switches > 100
        assert ex.counters.cpu_migrations > 50
        assert ex.c.ins > 1_000_000

    def test_barrier_waiting_only_spins(self):
        ex, _ = _executor(vendor=INTEL)
        ex._apply_wait_side_effects(10_000_000.0, reschedules=False)
        assert ex.counters.context_switches == 0
        assert ex.counters.cpu_migrations == 0
        assert ex.c.ins > 1_000_000  # spinning still burns instructions

    def test_gcc_waiting_is_quiet(self):
        ex, _ = _executor(vendor=GCC)
        ex._apply_wait_side_effects(10_000_000.0, reschedules=True)
        assert ex.counters.context_switches < 100
        assert ex.counters.cpu_migrations == 0

    def test_profile_receives_wait_symbols(self):
        ex, cost = _executor(vendor=INTEL, threads=2)
        ex.region_enter(0)
        for tid in (0, 1):
            ex.thread_begin(tid)
            ex.crit_enter()
            cost.ccy += 10_000.0
            ex.thread_end(tid)
        ex.region_exit(0, 0.0, None, None)
        symbols = {sym for _, sym in ex.profile.samples}
        assert INTEL.symbols.wait_primary in symbols
        assert INTEL.symbols.lock in symbols
