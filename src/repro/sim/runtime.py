"""The simulated OpenMP runtime: team, worksharing, locks, faults.

One :class:`RegionExecutor` instance drives a single execution of a
lowered binary.  The lowered code calls into it at every OpenMP event
(region enter/exit, per-thread begin/end, ``omp for`` chunking, critical
entry); the executor converts those events into

* **virtual time** — a region's elapsed cycles are
  ``spawn + sched + max(per-thread compute) + serialized critical time +
  lock overhead + barriers`` (threads run concurrently, critical sections
  serialize),
* **perf counters** — wait time generates context switches / migrations /
  page faults / spin instructions at vendor-specific rates,
* **profile samples** — cycles are charged to the vendor's runtime symbol
  names so Fig. 6/7 listings can be rendered,
* **fault behaviour** — deterministic crash (miscompile) and livelock
  (queuing-lock hang, Fig. 9) triggers.

Hook classification (the lowered code mirrors the :class:`CostState`
lanes in fast locals and synchronizes them only where required):

* **cost-observing/mutating** — ``prologue``, ``region_enter``,
  ``thread_begin``/``thread_end``, ``region_exit``, and ``crit_enter``
  (it can abort with a partial cost): lowered code flushes its local
  accumulators before the call and reloads after the ones that mutate;
* **cost-transparent** — ``chunk``, ``assign``, ``omp_for_done``,
  ``barrier``, ``atomic_update``, ``single_done``, ``sections_done``,
  ``task_spawn``, ``taskwait``: these must never read
  or write ``CostState`` (their per-event cycle charges are baked into
  the kernel's ``_K`` constants by the cost pass).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from typing import TYPE_CHECKING

from ..errors import SimulatedCrash, SimulatedHang
from ..rng import stable_hash
from .counters import PerfCounters
from .events import ProfileRecorder
from .lower import CostState, RegionMeta

if TYPE_CHECKING:  # typing-only: breaks the sim <-> vendors import cycle
    from ..vendors.base import VendorModel


#: memo of worksharing assignments: (kind, chunk, n, t) -> (per-tid
#: iteration tuples, per-tid owned-chunk counts).  Every thread of every
#: run recomputed the identical chunk walk before this cache; the mapping
#: is a pure function of its key, so entries never go stale — the LRU
#: bound only caps memory (an entry holds at most ``n`` indices).
_ASSIGN_CACHE: OrderedDict = OrderedDict()
_ASSIGN_CACHE_CAP = 128
_ASSIGN_LOCK = threading.Lock()


def _assigned_iterations(kind: str, chunk: int, n: int, t: int):
    key = (kind, chunk, n, t)
    with _ASSIGN_LOCK:
        hit = _ASSIGN_CACHE.get(key)
        if hit is not None:
            _ASSIGN_CACHE.move_to_end(key)
            return hit
    per: list[list[int]] = [[] for _ in range(t)]
    owned = [0] * t
    if kind == "static":  # schedule(static, chunk): round-robin chunks
        for tid in range(t):
            for start in range(tid * chunk, n, chunk * t):
                per[tid].extend(range(start, min(start + chunk, n)))
    else:
        if kind == "dynamic":
            c = chunk if chunk > 0 else 1
            sizes = [min(c, n - s) for s in range(0, n, c)]
        else:  # guided
            c_min = chunk if chunk > 0 else 1
            sizes = []
            remaining = n
            while remaining > 0:
                size = min(remaining, max(c_min, -(-remaining // (2 * t))))
                sizes.append(size)
                remaining -= size
        start = 0
        for i, size in enumerate(sizes):
            tid = i % t
            per[tid].extend(range(start, start + size))
            owned[tid] += 1
            start += size
    entry = (tuple(tuple(p) for p in per), tuple(owned))
    with _ASSIGN_LOCK:
        _ASSIGN_CACHE[key] = entry
        _ASSIGN_CACHE.move_to_end(key)
        while len(_ASSIGN_CACHE) > _ASSIGN_CACHE_CAP:
            _ASSIGN_CACHE.popitem(last=False)
    return entry


@dataclass(slots=True)
class _RegionAccounting:
    """Scratch state while executing one region entry."""

    rid: int
    snap_cy: float
    snap_ccy: float
    spawn_cycles: float = 0.0
    sched_cycles: float = 0.0
    omp_for_rounds: int = 0
    single_rounds: int = 0
    barrier_rounds: int = 0
    sections_rounds: int = 0
    tasks_spawned: int = 0
    taskwaits: int = 0
    atomics: int = 0
    acquires: int = 0
    compute: list[float] = field(default_factory=list)
    critical: list[float] = field(default_factory=list)
    _t_cy: float = 0.0
    _t_ccy: float = 0.0


class RegionExecutor:
    """Vendor runtime model bound to one run of one binary."""

    def __init__(
        self,
        vendor: VendorModel,
        regions: list[RegionMeta],
        cost: CostState,
        counters: PerfCounters,
        profile: ProfileRecorder,
        *,
        wrap_fn: Callable[[float], float],
        crash_active: bool = False,
        hang_active: bool = False,
        slow_armed: bool = False,
        fingerprint: str = "",
    ):
        self.vendor = vendor
        self.regions = regions
        self.c = cost
        self.counters = counters
        self.profile = profile
        self.wrap = wrap_fn
        self.crash_active = crash_active
        self.hang_active = hang_active
        self.slow_armed = slow_armed
        self.fingerprint = fingerprint

        self._entries = 0
        self._acq_total = 0
        self._cur: _RegionAccounting | None = None
        #: cycles attributed to parallel regions (driver derives serial time)
        self.region_cycles_total = 0.0

    # ------------------------------------------------------------------
    # kernel prologue
    # ------------------------------------------------------------------
    def prologue(self) -> None:
        """Called at kernel entry; hosts the no-region crash fallback."""
        if self.crash_active and not self.regions:
            self._crash()

    def _crash(self) -> None:
        # a miscompiled store: charge a little work, then "segfault"
        self.c.cy += 5_000.0
        raise SimulatedCrash("SIGSEGV", "latent miscompile store out of bounds")

    # ------------------------------------------------------------------
    # region lifecycle
    # ------------------------------------------------------------------
    def region_enter(self, rid: int) -> None:
        if self._cur is not None:
            raise RuntimeError("nested parallel regions are not supported")
        if self.crash_active:
            self._crash()
        rt = self.vendor.runtime
        sym = self.vendor.symbols
        self._entries += 1

        acc = _RegionAccounting(rid=rid, snap_cy=self.c.cy, snap_ccy=self.c.ccy)
        if self._entries == 1:
            acc.spawn_cycles = rt.spawn_cold_cycles
            self.counters.page_faults += rt.spawn_cold_page_faults
            spawn_instr = rt.spawn_cold_instr
        elif self._entries > rt.spawn_thrash_threshold:
            # repeated re-entry (region inside a serial loop): runtimes that
            # do not reuse team resources cleanly pay per-entry allocation
            acc.spawn_cycles = rt.spawn_thrash_cycles
            self.counters.page_faults += rt.spawn_warm_page_faults
            spawn_instr = rt.spawn_warm_instr
        else:
            acc.spawn_cycles = rt.spawn_warm_cycles
            self.counters.page_faults += rt.spawn_warm_page_faults
            spawn_instr = rt.spawn_warm_instr
        self.c.ins += spawn_instr
        # allocator/bookkeeping code is branch-heavy (Table III shows the
        # clang binary's branches scaling with its instruction explosion)
        self.c.br += spawn_instr * 0.25
        self.counters.branch_misses += int(spawn_instr * 0.25 * 0.02)
        self.counters.context_switches += rt.spawn_ctx_switches
        alloc = acc.spawn_cycles * rt.spawn_alloc_fraction
        self.profile.charge(sym.shared_object, sym.spawn,
                            acc.spawn_cycles - alloc)
        self.profile.charge("libc-2.28.so", sym.alloc, alloc)
        self._cur = acc

    def thread_begin(self, tid: int) -> None:
        acc = self._require_region()
        acc._t_cy = self.c.cy
        acc._t_ccy = self.c.ccy

    def thread_end(self, tid: int) -> None:
        acc = self._require_region()
        acc.compute.append(self.c.cy - acc._t_cy)
        acc.critical.append(self.c.ccy - acc._t_ccy)

    @staticmethod
    def _static_span(tid: int, n: int, t: int) -> tuple[int, int]:
        """The default-schedule contiguous block of thread ``tid`` —
        the same split every major runtime uses (first ``n % t`` threads
        take one extra iteration)."""
        base, rem = divmod(n, t)
        lo = tid * base + min(tid, rem)
        hi = lo + base + (1 if tid < rem else 0)
        return lo, hi

    def chunk(self, tid: int, n: int) -> tuple[int, int]:
        """Static contiguous chunking of an ``omp for`` with no explicit
        schedule clause (static is every implementation's default)."""
        acc = self._require_region()
        acc.sched_cycles += self.vendor.runtime.omp_for_sched_cycles
        meta = self.regions[acc.rid]
        n = max(0, int(n))
        return self._static_span(tid, n, meta.n_threads)

    def assign(self, tid: int, n: int, kind: str, chunk: int):
        """Iterations of an explicitly scheduled ``omp for`` executed by
        thread ``tid``.

        ``schedule(static, c)`` follows the specified round-robin chunk
        mapping exactly, so the simulation matches a real runtime
        bit-for-bit.  ``dynamic``/``guided`` hand chunks out
        first-come-first-served in reality; the simulator models them
        with a deterministic round-robin over the same chunk sequence —
        every simulated vendor uses the identical model, so verdicts
        stay reproducible while the *costs* (per-chunk dispatch on a
        contended counter) remain schedule-specific.
        """
        acc = self._require_region()
        rt = self.vendor.runtime
        meta = self.regions[acc.rid]
        t = meta.n_threads
        n = max(0, int(n))
        if kind == "static":
            acc.sched_cycles += rt.omp_for_sched_cycles
            if chunk <= 0:
                lo, hi = self._static_span(tid, n, t)
                return range(lo, hi)
            per, _owned = _assigned_iterations(kind, chunk, n, t)
            return per[tid]
        if kind not in ("dynamic", "guided"):
            raise ValueError(f"unknown schedule kind {kind!r}")
        per, owned = _assigned_iterations(kind, chunk, n, t)
        # one contended-counter dispatch per chunk this thread grabbed;
        # repeated += (not a single multiply) keeps the exact FP
        # accumulation the per-chunk loop performed
        d = rt.omp_for_dispatch_cycles
        for _ in range(owned[tid]):
            acc.sched_cycles += d
        return per[tid]

    def omp_for_done(self, tid: int) -> None:
        """Implicit barrier bookkeeping at the end of an ``omp for``."""
        acc = self._require_region()
        acc.omp_for_rounds += 1

    # ------------------------------------------------------------------
    # atomics / single / explicit barriers
    # ------------------------------------------------------------------
    def atomic_update(self) -> None:
        """One ``#pragma omp atomic`` RMW (cost-transparent hook).

        The uncontended RMW cost (``atomic_rmw_cycles``) is charged by
        the lowered code on the executing thread's lane; this hook only
        counts the event — contention is folded in at region exit where
        the team size is known."""
        acc = self._cur  # hot hook: _require_region() inlined
        if acc is None:
            raise RuntimeError("OpenMP event outside a parallel region")
        acc.atomics += 1
        self.counters.atomic_updates += 1

    def single_done(self, tid: int) -> None:
        """Implicit barrier bookkeeping at the end of a ``single``; every
        thread calls this once per encounter (cost-transparent hook —
        the arrival-election cycles are charged by the lowered code)."""
        acc = self._require_region()
        acc.single_rounds += 1

    def sections_done(self, tid: int) -> None:
        """Implicit barrier bookkeeping at the end of a ``sections``
        construct; every thread calls this once per encounter
        (cost-transparent — the dispatch cycles are charged inline)."""
        acc = self._require_region()
        acc.sections_rounds += 1

    def task_spawn(self, tid: int) -> None:
        """One explicit task deferred onto the encountering thread's
        queue (cost-transparent — spawn cycles are charged inline)."""
        acc = self._require_region()
        acc.tasks_spawned += 1

    def taskwait(self, tid: int) -> None:
        """``taskwait`` join point; called by the encountering thread
        only, right before its queue drains (cost-transparent — the
        join cycles are charged inline)."""
        acc = self._require_region()
        acc.taskwaits += 1

    def barrier(self, tid: int) -> None:
        """Explicit ``#pragma omp barrier``; called once per thread."""
        acc = self._cur  # hot hook: _require_region() inlined
        if acc is None:
            raise RuntimeError("OpenMP event outside a parallel region")
        acc.barrier_rounds += 1

    # ------------------------------------------------------------------
    # critical sections
    # ------------------------------------------------------------------
    def crit_enter(self) -> None:
        # the hottest hook (once per critical-section entry, inside
        # loops): region-local counting only; the perf counter and the
        # run-wide acquire total are derived at region exit / only when
        # the livelock fault is armed
        acc = self._cur
        if acc is None:
            raise RuntimeError("OpenMP event outside a parallel region")
        acc.acquires += 1
        if self.hang_active:
            self._acq_total += 1
            if self._acq_total >= self.vendor.faults.hang_min_acquires:
                self._hang()

    def _hang(self) -> None:
        """The Case-Study-3 livelock: every thread stuck acquiring the
        queuing lock, split across the three states of the paper's Fig. 9."""
        if self._cur is not None:
            # the abort skips region_exit's derivation of this counter
            self.counters.critical_acquires += self._cur.acquires
        meta = self.regions[self._cur.rid] if self._cur else RegionMeta()
        t = meta.n_threads
        sym = self.vendor.symbols
        # faults are functions of the program text, never of the fuzzer's
        # RNG mode: pin the compat derivation explicitly
        h = stable_hash("hang-split", self.fingerprint, mode="compat")
        g1 = max(1, t // 2 + (h % 3) - 1)
        g2 = max(1, (t - g1) // 2)
        g3 = max(0, t - g1 - g2)
        states = {
            sym.wait_secondary: list(range(g1)),
            "__kmp_eq_4": list(range(g1, g1 + g2)),
            sym.yield_: list(range(g1 + g2, g1 + g2 + g3)),
        }
        raise SimulatedHang(elapsed_us=float("inf"), thread_states=states)

    # ------------------------------------------------------------------
    # region exit: fold per-thread lanes into elapsed time + counters
    # ------------------------------------------------------------------
    def region_exit(self, rid: int, comp: float, partials: list[float] | None,
                    op: str | None) -> float:
        acc = self._require_region()
        rt = self.vendor.runtime
        sym = self.vendor.symbols
        meta = self.regions[rid]
        t = meta.n_threads
        self.counters.critical_acquires += acc.acquires

        compute_max = max(acc.compute, default=0.0)
        compute_sum = sum(acc.compute)
        crit_total = sum(acc.critical)

        lock_cost = acc.acquires * (rt.lock_base_cycles
                                    + (t - 1) * rt.lock_contention_cycles)
        # cache-line ping-pong of contended atomic RMWs, serialized like
        # lock traffic (each update invalidates every other core's copy)
        atomic_cost = acc.atomics * (t - 1) * rt.atomic_contention_cycles
        # implicit barriers: region end, each omp-for end, each single
        # end, each sections end, plus the explicit barrier rounds
        sync_rounds = (acc.omp_for_rounds + acc.single_rounds
                       + acc.barrier_rounds + acc.sections_rounds)
        barrier_events = 1 + sync_rounds // max(1, t)
        barrier_cost = barrier_events * rt.barrier_cycles_per_thread * t

        # reduction combine — the combine *order* is implementation-defined
        # (libgomp: linear in thread order; KMP: pairwise tree), and FP
        # non-associativity makes the orders print different values
        combine_cost = 0.0
        if partials is not None and op is not None:
            comp = self._combine_reduction(comp, partials, op,
                                           tree=rt.reduction_tree)
            combine_cost = rt.reduction_combine_cycles_per_thread * t

        # waiting splits into two regimes:
        #  - lock waiting: long queues make KMP sleep -> context switches,
        #    migrations, page faults (the Table II mechanism)
        #  - barrier/imbalance waiting: within the runtime's blocktime the
        #    threads pure-spin -> instructions only
        imbalance = sum(compute_max - x for x in acc.compute)
        lock_wait = (t - 1) * crit_total + lock_cost + atomic_cost
        barrier_wait = imbalance + barrier_cost
        self._apply_wait_side_effects(lock_wait, reschedules=True)
        self._apply_wait_side_effects(barrier_wait, reschedules=False)
        wait = lock_wait + barrier_wait

        elapsed = (acc.spawn_cycles + acc.sched_cycles + compute_max
                   + crit_total + lock_cost + atomic_cost + barrier_cost
                   + combine_cost)
        if self.slow_armed:
            # the pathological path also inflates the runtime-side costs
            # (per-thread compute is already scaled at lowering time)
            elapsed += (acc.spawn_cycles + lock_cost + barrier_cost) \
                * (self.vendor.faults.slow_factor - 1.0)

        # replace the summed per-thread cycles with the concurrent elapsed
        self.c.cy = acc.snap_cy + elapsed
        self.c.ccy = acc.snap_ccy
        self.region_cycles_total += elapsed

        # profile: thread-time view (sums, like perf across 32 threads)
        self.profile.charge(self.profile.binary_name, sym.compute,
                            compute_sum + crit_total)
        self.profile.charge(sym.shared_object, sym.invoke,
                            0.06 * (compute_sum + crit_total))
        self.profile.charge(sym.shared_object, sym.lock, lock_cost)
        self.profile.charge(sym.shared_object, sym.wait_primary,
                            wait * rt.wait_primary_share)
        self.profile.charge(sym.shared_object, sym.wait_secondary,
                            wait * (1.0 - rt.wait_primary_share) * 0.8)
        self.profile.charge("[kernel]", sym.yield_,
                            wait * (1.0 - rt.wait_primary_share) * 0.2)
        self.profile.charge(sym.shared_object, sym.barrier, barrier_cost)

        self._cur = None
        return comp

    def _combine_reduction(self, comp: float, partials: list[float],
                           op: str, *, tree: bool) -> float:
        if not partials:
            return comp
        if op in ("min", "max"):
            # min/max select one of their operands: no rounding, and the
            # combine order cannot change the value (unlike +/*), so the
            # linear and tree strategies coincide
            pick = min if op == "min" else max
            for p in partials:
                comp = pick(comp, p)
            return comp
        apply = ((lambda a, b: self.wrap(a + b)) if op == "+"
                 else (lambda a, b: self.wrap(a * b)))
        if not tree:
            for p in partials:  # linear, thread order (libgomp)
                comp = apply(comp, p)
            return comp
        level = list(partials)  # pairwise tree (KMP lineage)
        while len(level) > 1:
            nxt = [apply(level[i], level[i + 1])
                   for i in range(0, len(level) - 1, 2)]
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return apply(comp, level[0])

    def _apply_wait_side_effects(self, wait_cycles: float, *,
                                 reschedules: bool) -> None:
        rt = self.vendor.runtime
        spin_instr = wait_cycles / 1_000.0 * rt.wait_spin_instr_per_kcycle
        self.c.ins += spin_instr
        # spin loops are branch-heavy and mispredict on their exit path
        self.c.br += spin_instr * 0.4
        self.counters.branch_misses += int(spin_instr * 0.02)
        if reschedules:
            m = wait_cycles / 1_000_000.0
            self.counters.context_switches += int(m * rt.wait_ctx_per_mcycle)
            self.counters.cpu_migrations += int(m * rt.wait_migration_per_mcycle)
            self.counters.page_faults += int(m * rt.wait_pf_per_mcycle)

    # ------------------------------------------------------------------
    def _require_region(self) -> _RegionAccounting:
        if self._cur is None:
            raise RuntimeError("OpenMP event outside a parallel region")
        return self._cur
