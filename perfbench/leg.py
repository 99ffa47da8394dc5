"""One benchmark process: a timed leg, a preparation job or a reference.

Usage: ``python perfbench/leg.py SPEC.json OUT.json`` — ``run.py``
writes the spec and reads the result; nothing here is meant to be run
by hand.  Roles:

``leg``          one leg of a workload, in mode ``plain`` (timed,
                 tracing off), ``trace`` (layer spans) or ``hooks``
                 (runtime-hook call counts only)
``fresh-ref``    size-matched program choice for a fresh seed, and its
                 verdict digests under the interp kernel backend
``pool``         the warm pool's grid: under ``c`` it fills the pool
                 cache, under interp it gives the reference digests
``triage-prep``  the finding campaign: which injected faults it flags
``triage-ref``   the outliers' reductions under interp

The process environment (private ``REPRO_NATIVE_CACHE`` and ``TMPDIR``,
``REPRO_KERNEL_BACKEND``, ``REPRO_OBS``, ``PYTHONHASHSEED``) is set by
``run.py``; this file only reads it.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import json
import os
import resource
import shutil
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import workloads as W

clock = time.monotonic


# ----------------------------------------------------------------------
# setup timing
# ----------------------------------------------------------------------

class _NativeLoadTimer(importlib.abc.MetaPathFinder):
    """Times ``repro.sim._native.load()``, which runs while ``repro`` is
    imported (the native value helpers), by wrapping it right after its
    module executes."""

    def __init__(self):
        self.seconds = 0.0

    def find_spec(self, fullname, path, target=None):
        if fullname != "repro.sim._native":
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        timer = self

        def timed_exec(module):
            exec_module(module)
            load = module.load

            def timed_load():
                t = clock()
                try:
                    return load()
                finally:
                    timer.seconds += clock() - t
            module.load = timed_load

        spec.loader.exec_module = timed_exec
        return spec


def _cache_usage(path: str) -> tuple[int, int]:
    files = size = 0
    for root, _dirs, names in os.walk(path):
        for name in names:
            try:
                size += os.stat(os.path.join(root, name)).st_size
                files += 1
            except OSError:
                pass
    return files, size


def _vm_hwm_kb() -> int:
    """Peak resident set of this process (``VmHWM``), in KiB."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ----------------------------------------------------------------------
# instrumentation
# ----------------------------------------------------------------------

class Probe:
    """Clocks and counters of one leg: always-on unit clocks and build
    counters, plus the layer tracer or hook counter of the mode."""

    def __init__(self, mode: str):
        from tracer import Tracer

        self.mode = mode
        self.tracer = Tracer(clock=clock)
        self.counts: Counter = self.tracer.counts
        self.hooks: Counter = Counter()
        self.unit_spans: list[tuple[float, float]] = []
        self.lease_t: dict[int, float] = {}
        self.done_t: dict[int, float] = {}
        self.first_dispatch: float | None = None

    # -- always on: failure counters and unit clocks --------------------
    def install_counters(self) -> None:
        from repro.sim import _native

        from tracer import patch_function

        counts = self.counts

        def make(fn):
            def build_shared_object(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["sim.cc_builds"] += 1
                counts["sim.cc_build_failures"] += not result[0]
                return result
            return build_shared_object

        patch_function(_native, "build_shared_object", make)

    def install_triage_clock(self) -> None:
        """Every differential re-run of the reduction oracle is a test; a
        unit is a re-run that built a new kernel shape, timed from its
        start to its verdict.  Re-runs served from the cache (input
        shrinking keeps the program) take about a millisecond against
        half a second for a build, so mixing the two would put the
        median in the gap between them."""
        from repro.reduce.reducer import ReductionOracle

        from tracer import patch_method

        spans = self.unit_spans
        counts = self.counts

        def make(fn):
            def run_differential(self_, *args, **kwargs):
                counts["reduce.oracle_runs"] += 1
                builds = counts["sim.cc_builds"]
                t = clock()
                try:
                    return fn(self_, *args, **kwargs)
                finally:
                    if counts["sim.cc_builds"] > builds:
                        spans.append((t, clock()))
            return run_differential

        patch_method(ReductionOracle, "run_differential", make)

    def install_fleet_clock(self) -> None:
        from repro.fleet.queue import WorkQueue

        from tracer import patch_method

        probe = self

        def make_lease(fn):
            def lease(self_, n, worker_id):
                leases = fn(self_, n, worker_id)
                if leases:
                    t = clock()
                    if probe.first_dispatch is None:
                        probe.first_dispatch = t
                    for item in leases:
                        probe.lease_t.setdefault(item.unit_id, t)
                return leases
            return lease

        def make_complete(fn):
            def complete(self_, unit_id, payload, worker_id="?"):
                fresh = fn(self_, unit_id, payload, worker_id)
                if fresh:
                    probe.done_t.setdefault(unit_id, clock())
                else:
                    probe.counts["fleet.queue.duplicates"] += 1
                return fresh
            return complete

        patch_method(WorkQueue, "lease", make_lease)
        patch_method(WorkQueue, "complete", make_complete)

    # -- trace mode: layer spans ---------------------------------------
    def install_tracer(self) -> None:
        import repro.analysis.outliers as outliers
        import repro.backends.fault as fault
        import repro.backends.registry as registry
        import repro.codegen.emit_main as emit_main
        import repro.core.generator as generator
        import repro.core.races as races
        import repro.corpus as corpus
        import repro.driver.engine as engine
        import repro.fleet.coordinator as coordinator
        import repro.fleet.queue as queue
        import repro.fleet.store as store
        import repro.reduce.reducer as reducer
        import repro.reduce.triage as triage
        import repro.sim._native as native
        import repro.sim.ckernel as ckernel
        import repro.vendors.toolchain as toolchain

        from tracer import patch_function, patch_method

        tr = self.tracer

        def fn(module, name, layer, on=None):
            patch_function(module, name, lambda f: tr.wrap(layer, f, on))

        def meth(cls, name, layer, on=None):
            patch_method(cls, name, lambda f: tr.wrap(layer, f, on))

        def races_found(c, result, _args):
            if result:
                c["core.race_filtered"] += 1

        def accepted(c, result, _args):
            if result is not None:
                c["reduce.accepted"] += 1

        def leased(c, result, _args):
            c["fleet.queue.leases"] += len(result)

        fn(engine, "plan_units", "corpus.plan")
        meth(generator.ProgramGenerator, "generate", "core.generate")
        fn(corpus, "materialize_spec", "core.generate")
        fn(races, "find_races", "core.race_check", races_found)
        fn(emit_main, "emit_translation_unit", "codegen.emit_cpp")
        fn(toolchain, "compile_binary", "vendors.lower")
        fn(ckernel, "emit_c", "sim.emit_c")
        fn(native, "build_shared_object", "sim.cc_build")
        fn(native, "import_shared_object", "sim.so_load")
        meth(registry.SimulatedBackend, "execute", "driver.execute")
        meth(fault.FaultInjectedBackend, "execute", "driver.execute")
        fn(outliers, "analyze_test", "analysis.verdict")
        fn(triage, "assemble_report", "analysis.bucket")
        fn(triage, "triaged_from_result", "analysis.bucket")
        fn(reducer, "reduce_case", "reduce.case")
        meth(reducer.ReductionOracle, "gates_pass", "reduce.gates")
        meth(reducer.ReductionOracle, "reproduces", "reduce.oracle",
             accepted)
        meth(queue.WorkQueue, "lease", "fleet.queue.lease", leased)
        meth(queue.WorkQueue, "complete", "fleet.queue.complete")
        meth(store.ResultStore, "record_unit", "fleet.store.write")
        meth(coordinator.FleetCoordinator, "poll", "fleet.poll")

    def install_hooks(self) -> None:
        from repro.sim.runtime import RegionExecutor

        from tracer import count_hooks

        count_hooks(RegionExecutor, self.hooks)

    def install(self, workload: str) -> None:
        self.install_counters()
        if workload == "triage":
            self.install_triage_clock()
        if workload == "fleet":
            self.install_fleet_clock()
        if self.mode == "trace":
            self.install_tracer()
        elif self.mode == "hooks":
            self.install_hooks()


class Snapshot:
    """Process-level counters read before and after the timed window."""

    def __init__(self):
        from repro.sim import ckernel
        from repro.sim.kcache import get_kernel_cache

        self.kcache = get_kernel_cache().snapshot()
        info = ckernel.build_info()
        self.compiled = info["compiled"]
        self.failed = info["failed"]

    def delta(self) -> dict:
        end = Snapshot()
        k = end.kcache.since(self.kcache)
        return {"structural_hits": k.structural_hits,
                "structural_misses": k.structural_misses,
                "kernel_hits": k.kernel_hits,
                "kernel_misses": k.kernel_misses,
                "c_kernels": (end.compiled - self.compiled
                              + end.failed - self.failed),
                "c_fallbacks": end.failed - self.failed}


def _backend_state() -> dict:
    from repro.sim import _native
    from repro.sim.backend import kernel_backend_info

    info = kernel_backend_info()
    return {"active": info["active"], "reason": info["reason"],
            "toolchain": _native._find_cc() is not None}


def _process_summary(probe: Probe, snap: Snapshot, first_span: int = 0,
                     counts0: Counter | None = None) -> dict:
    """What one process measured: its layers, counters and peak memory."""
    counts = Counter(probe.counts)
    if counts0 is not None:
        counts.subtract(counts0)
    layers = probe.tracer.self_seconds(first_span)
    return {"layers": dict(layers), "counts": dict(+counts),
            "hooks": dict(probe.hooks), "sim": snap.delta(),
            "backend": _backend_state(), "rss_kb": _vm_hwm_kb()}


# ----------------------------------------------------------------------
# workload bodies
# ----------------------------------------------------------------------

def _serial(config, units):
    from repro.driver.engine import ExecutionPlan, SerialEngine

    plan = ExecutionPlan(config=config)
    latencies, outcomes = [], []
    t_first = t_prev = clock()
    for outcome in SerialEngine().run(plan, units):
        t = clock()
        latencies.append(t - t_prev)
        t_prev = t
        outcomes.append(outcome)
    return outcomes, latencies, t_first, t_prev


def _digests(outcomes) -> dict:
    import work

    out: dict = {}
    for outcome in outcomes:
        out.update(work.outcome_digests(outcome))
    return out


def body_fresh(spec, probe):
    import repro.driver.engine as engine
    import work

    config = work.fresh_config(spec["seed"])
    t_ready = clock()
    planned = {u.program_index: u for u in engine.plan_units(config)}
    units = [planned[i] for i in spec["programs"]]
    outcomes, lat, t_first, t_done = _serial(config, units)
    return dict(t_ready=t_ready, t_first=t_first, t_done=t_done,
                latencies=lat, tests=sum(len(o.verdicts) for o in outcomes),
                digests=_digests(outcomes))


def body_warm(spec, probe):
    import repro.driver.engine as engine
    import work

    config = work.pool_config()
    t_ready = clock()
    engine.plan_units(config)  # the campaign's plan; run one input a unit
    units = work.warm_leg_units(spec["seed"], spec["leg"])
    outcomes, lat, t_first, t_done = _serial(config, units)
    return dict(t_ready=t_ready, t_first=t_first, t_done=t_done,
                latencies=lat, tests=sum(len(o.verdicts) for o in outcomes),
                digests=_digests(outcomes))


def body_triage(spec, probe):
    from repro.reduce.jobs import TriageJob, run_triage_job
    from repro.reduce.triage import assemble_report

    import work

    config = work.triage_config()
    coords = spec["outlier"]
    t_ready = clock()
    triaged = run_triage_job(TriageJob(config, *coords))
    report = assemble_report([triaged])
    t_done = clock()
    errors = []
    signatures = sorted(b.signature for b in report.buckets)
    if signatures != ([triaged.signature] if triaged.result.confirmed
                      else []):
        errors.append(f"bucket signatures {signatures} do not match the "
                      f"reduced outlier's {triaged.signature}")
    return dict(t_ready=t_ready, t_first=t_ready, t_done=t_done,
                latencies=[b - a for a, b in probe.unit_spans],
                tests=probe.counts["reduce.oracle_runs"],
                digests={W.triage_key(coords):
                         work.triaged_digest(triaged)},
                errors=errors,
                attempts={"reductions": 1},
                failures={"reductions": int(not triaged.result.confirmed)},
                triage_s=t_done - t_ready)


def _install_worker_dump(probe: Probe, out_dir: str) -> None:
    """Forked fleet workers inherit this process's wrappers; make each
    one write what it measured (layers, counters, peak memory) when its
    loop ends, so the leg can sum the coordinator and its workers."""
    import repro.fleet.worker as worker

    from tracer import patch_function

    def make(fn):
        def worker_loop(*args, **kwargs):
            first = len(probe.tracer.spans)
            counts0 = Counter(probe.counts)
            probe.hooks.clear()
            snap = Snapshot()
            try:
                return fn(*args, **kwargs)
            finally:
                summary = _process_summary(probe, snap, first, counts0)
                path = Path(out_dir) / f"perfbench-worker-{os.getpid()}.json"
                path.write_text(json.dumps(summary))
        return worker_loop

    patch_function(worker, "worker_loop", make)


def body_fleet(spec, probe):
    import multiprocessing as mp

    from repro.fleet.coordinator import FleetCoordinator
    from repro.fleet.store import ResultStore
    from repro.obs import metrics as obs

    import work

    if mp.get_start_method() != "fork":
        raise RuntimeError("the fleet leg needs the fork start method so "
                           "workers inherit the benchmark's wrappers")
    tmp = os.environ["TMPDIR"]
    _install_worker_dump(probe, tmp)
    config = work.pool_config(inputs=1)
    errors: list[str] = []
    store = ResultStore(Path(tmp) / "fleet.db")
    try:
        t_ready = clock()
        coord = FleetCoordinator(config, store=store)
        try:
            coord.serve()
            procs = coord.spawn_workers(spec["workers"])
            result = coord.wait(poll_s=0.01)
            t_done = clock()
            dead = coord.queue.dead_units()
            telemetry = coord.telemetry() if obs.enabled() else None
            for proc in procs:
                proc.join(timeout=30)
        finally:
            coord.close()
        alive = [p.pid for p in procs if p.is_alive()]
        if alive:
            errors.append(f"fleet workers still alive after the leg: {alive}")
        cid = coord.campaign_id
        stored = store.completed_indices(cid)
        if stored != set(range(config.n_programs)) or not coord.session.done:
            errors.append(f"store holds units {sorted(stored)} of "
                          f"{config.n_programs}; session done: "
                          f"{coord.session.done}")
        if store.verdict_count(cid) != len(result.verdicts):
            errors.append(f"store holds {store.verdict_count(cid)} verdicts, "
                          f"session {len(result.verdicts)}")
        outcomes = store.outcomes(cid)
    finally:
        store.close()
    latencies = [probe.done_t[u] - probe.lease_t[u] for u in probe.done_t]
    workers = [json.loads(p.read_text())
               for p in sorted(Path(tmp).glob("perfbench-worker-*.json"))]
    if len(workers) != len(procs):
        errors.append(f"{len(workers)} of {len(procs)} workers reported")
    extra = {}
    if telemetry is not None:
        extra["worker_stage_s"] = _stage_seconds(telemetry)
    return dict(t_ready=t_ready,
                t_first=probe.first_dispatch or t_done, t_done=t_done,
                latencies=latencies, tests=len(result.verdicts),
                digests=_digests(outcomes), errors=errors,
                attempts={"fleet_units": config.n_programs},
                failures={"fleet_units": len(dead)},
                workers=workers, **extra)


def _stage_seconds(snapshot: dict) -> dict:
    """Seconds per stage from the ``repro_stage_seconds`` histograms."""
    out: Counter = Counter()
    for key, hist in snapshot.get("hists", {}).items():
        name, _, rest = key.partition("|")
        if name != "repro_stage_seconds":
            continue
        labels = dict(part.split("=", 1) for part in rest.split("|") if part)
        out[labels.get("stage", "?")] += hist["sum"]
    return dict(out)


BODIES = {"fresh": body_fresh, "warm": body_warm, "triage": body_triage,
          "fleet": body_fleet}


def role_leg(spec: dict) -> dict:
    probe = Probe(spec["mode"])
    probe.install(spec["workload"])
    snap = Snapshot()
    body = BODIES[spec["workload"]](spec, probe)
    summary = _process_summary(probe, snap)
    main = threading.main_thread().ident
    wall = body["t_done"] - body["t_ready"]
    covered = sum(probe.tracer.self_seconds(thread=main).values())
    files, size = _cache_usage(os.environ["REPRO_NATIVE_CACHE"])
    body.update(summary, coverage=covered / wall if wall > 0 else 0.0,
                cache_files=files, cache_bytes=size,
                cache_dir=os.environ["REPRO_NATIVE_CACHE"])
    return body


# ----------------------------------------------------------------------
# preparation and references
# ----------------------------------------------------------------------

def _grid_digests(config, jobs: int) -> dict:
    """Run a whole grid on ``jobs`` processes; its verdict digests."""
    from repro.driver.engine import (ExecutionPlan, ProcessPoolEngine,
                                     plan_units)

    return _digests(ProcessPoolEngine(jobs).run(ExecutionPlan(config=config),
                                                plan_units(config)))


def _timed_unit(item):
    """One work unit and the seconds it took (a process-pool task)."""
    from repro.driver.engine import ExecutionPlan, execute_unit

    config, unit = item
    t = clock()
    outcome = execute_unit(ExecutionPlan(config=config), unit)
    return outcome, clock() - t


def role_fresh_ref(spec: dict) -> dict:
    """Interp digests of a fresh seed's programs, run on ``jobs``
    processes.  Interp throughput is reported serial-equivalent: tests
    over the summed unit times."""
    import repro.driver.engine as engine
    import work

    selection = work.fresh_selection(spec["seed"])
    config = work.fresh_config(spec["seed"])
    planned = {u.program_index: u for u in engine.plan_units(config)}
    timed = list(engine.ProcessPoolEngine(spec["jobs"]).map_unordered(
        _timed_unit, [(config, planned[i]) for i in selection]))
    outcomes = [outcome for outcome, _t in timed]
    tests = sum(len(o.verdicts) for o in outcomes)
    return {"selection": selection, "digests": _digests(outcomes),
            "interp_tests_per_s": tests / sum(t for _o, t in timed),
            "backend": _backend_state()}


def role_pool(spec: dict) -> dict:
    """Run the warm pool's grid: builds its shared objects into the
    cache under ``c``, gives the reference digests under interp."""
    import work

    return {"digests": _grid_digests(work.pool_config(), spec["jobs"]),
            "backend": _backend_state()}


def role_triage_prep(spec: dict) -> dict:
    from repro.harness.session import CampaignSession

    import work

    config = work.triage_config()
    session = CampaignSession(config, engine="process",
                              jobs=spec["jobs"])
    session.run()
    outliers = [list(c) for c in session.outlier_coordinates()
                if c[2] == W.TRIAGE_FAULT_BACKEND
                and c[3] == W.TRIAGE_FAULT[1]]
    return {"outliers": outliers, "backend": _backend_state()}


def role_triage_ref(spec: dict) -> dict:
    from repro.driver.engine import ProcessPoolEngine
    from repro.reduce.jobs import TriageJob, run_triage_job

    import work

    config = work.triage_config()
    jobs = [TriageJob(config, *c) for c in spec["outliers"]]
    digests = {}
    for triaged in ProcessPoolEngine(spec["jobs"]).map_unordered(
            run_triage_job, jobs):
        coords = [triaged.program_index, triaged.input_index,
                  triaged.vendor, triaged.kind.value]
        digests[W.triage_key(coords)] = work.triaged_digest(triaged)
    return {"digests": digests, "backend": _backend_state()}


ROLES = {"leg": role_leg, "fresh-ref": role_fresh_ref, "pool": role_pool,
         "triage-prep": role_triage_prep, "triage-ref": role_triage_ref}


def main(argv: list[str]) -> int:
    t_main = clock()
    spec = json.loads(Path(argv[1]).read_text())
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    pool_s = 0.0
    if spec.get("pool_cache"):
        t = clock()
        shutil.copytree(spec["pool_cache"], os.environ["REPRO_NATIVE_CACHE"],
                        dirs_exist_ok=True)
        pool_s = clock() - t
    timer = _NativeLoadTimer()
    sys.meta_path.insert(0, timer)
    t = clock()
    import repro  # noqa: F401  (imports the value helpers)
    import repro.fleet  # noqa: F401
    import repro.reduce  # noqa: F401

    import work  # noqa: F401
    import_s = clock() - t
    sys.meta_path.remove(timer)
    out = ROLES[spec["role"]](spec)
    out["setup"] = {"main_t": t_main, "pool_s": pool_s,
                    "native_values_s": timer.seconds,
                    "import_s": import_s - timer.seconds}
    Path(argv[2]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
