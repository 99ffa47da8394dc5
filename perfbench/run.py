"""Repository benchmark: fixed-work workloads with a traced layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload fresh --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload with tracing off and prints every
end-to-end metric; ``--trace 1`` runs one leg untraced, the same leg
traced and the same leg again counting runtime hooks, and prints the
per-layer metrics.  Both check every leg's outputs against an
interp-backend reference.  The last line of standard output is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``); the lines
before it are the human-readable report.  See ``perfbench/README.md``.

Everything the benchmark writes stays under ``.perfbench/`` in the
current directory: the once-per-checkout preparation (warm pool, triage
outliers, references — re-made when the source changes) and each leg's
private native cache and ``TMPDIR``, removed when the leg ends.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads as W  # noqa: E402

ROOT = Path.cwd()
STATE = ROOT / ".perfbench"
LEG_TIMEOUT_S = 170
PREP_TIMEOUT_S = 800

HOOK_METRICS = ("crit_enter", "crit_exit", "chunk", "thread_begin",
                "thread_end", "omp_for_done", "atomic_update", "barrier",
                "single_done", "region_enter", "region_exit")

END_TO_END = {"tests_per_s": "tests/s", "unit_p50_ms": "ms",
              "unit_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
              "native_cache_mb": "MB"}


class BenchError(RuntimeError):
    """A job crashed or timed out: the run has no result."""


# ----------------------------------------------------------------------
# jobs: one subprocess each, with a private cache and TMPDIR
# ----------------------------------------------------------------------

def _become_subreaper() -> None:
    """Orphaned grandchildren (fleet workers) re-parent to us, so a leg
    that leaks one can be found and reaped."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap_group(pgid: int) -> int:
    """Kill and reap whatever is left of a job's process group; return
    how many processes had outlived the job."""
    leftover = 0
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return leftover
        except PermissionError:
            return leftover
        leftover = max(leftover, 1)
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return leftover
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        if time.monotonic() > deadline:
            raise BenchError(f"processes of group {pgid} would not exit")
        time.sleep(0.05)


class Jobs:
    """Spawns leg.py processes and keeps every file under ``.perfbench``."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.n = 0
        self.leftover = 0

    def workdir(self, name: str) -> Path:
        self.n += 1
        path = self.run_dir / f"{self.n:03d}-{name}"
        path.mkdir(parents=True)
        return path

    def run(self, spec: dict, *, cache: Path, backend: str | None = None,
            obs: bool = False, timeout: float = LEG_TIMEOUT_S,
            keep_cache: bool = True) -> dict:
        work = self.workdir(spec["role"])
        tmp = work / "tmp"
        tmp.mkdir()
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONHASHSEED="0", REPRO_NATIVE_CACHE=str(cache),
                   TMPDIR=str(tmp), REPRO_OBS="1" if obs else "0")
        if backend is not None:
            env["REPRO_KERNEL_BACKEND"] = backend
        spec_path, out_path = work / "spec.json", work / "out.json"
        log_path = work / "log.txt"
        spec_path.write_text(json.dumps(spec))
        with open(log_path, "wb") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "leg.py"), str(spec_path),
                 str(out_path)], env=env, stdout=log, stderr=log,
                stdin=subprocess.DEVNULL, start_new_session=True)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                self.leftover += _reap_group(proc.pid)
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0 or not out_path.exists():
            tail = log_path.read_text(errors="replace")[-2000:]
            raise BenchError(f"{spec['role']} job "
                             f"{'timed out' if code is None else f'exited {code}'}"
                             f"\n{tail}")
        out = json.loads(out_path.read_text())
        out["t_spawn"] = t_spawn
        shutil.rmtree(work)
        if not keep_cache:
            shutil.rmtree(cache, ignore_errors=True)
        return out


# ----------------------------------------------------------------------
# once per checkout: pool, outliers, references
# ----------------------------------------------------------------------

def source_hash() -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Prepared:
    """The checkout's prepared state, keyed by the source hash."""

    def __init__(self, jobs: Jobs):
        self.jobs = jobs
        self.dir = STATE / source_hash()
        self.pool_cache = self.dir / "pool"
        self.triage_cache = self.dir / "triage"

    def ensure(self) -> None:
        ready = self.dir / "ready.json"
        if ready.exists():
            self.info = json.loads(ready.read_text())
            return
        for old in STATE.iterdir() if STATE.exists() else ():
            if old.is_dir() and old.name != "runs":
                shutil.rmtree(old)
        self.dir.mkdir(parents=True)
        jobs = _worker_count()
        t = time.monotonic()
        prep = self.jobs.run({"role": "pool", "jobs": jobs},
                             cache=self.pool_cache, timeout=PREP_TIMEOUT_S)
        _require_c(prep, "pool preparation")
        pool_ref = self.jobs.run({"role": "pool", "jobs": jobs},
                                 cache=self.jobs.workdir("cache"),
                                 backend="interp", timeout=PREP_TIMEOUT_S,
                                 keep_cache=False)
        found = self.jobs.run({"role": "triage-prep", "jobs": jobs},
                              cache=self.triage_cache, timeout=PREP_TIMEOUT_S)
        _require_c(found, "triage finding campaign")
        outliers = found["outliers"]
        if len(outliers) != W.TRIAGE_OUTLIERS:
            raise BenchError(f"the finding campaign flagged {len(outliers)} "
                             f"injected-fault outliers, expected "
                             f"{W.TRIAGE_OUTLIERS}")
        triage_ref = self.jobs.run(
            {"role": "triage-ref", "jobs": jobs, "outliers": outliers},
            cache=self.jobs.workdir("cache"), backend="interp",
            timeout=PREP_TIMEOUT_S, keep_cache=False)
        self.info = {"outliers": outliers, "pool_digests": pool_ref["digests"],
                     "triage_digests": triage_ref["digests"],
                     "prepare_s": time.monotonic() - t}
        ready.write_text(json.dumps(self.info))
        print(f"prepared checkout state in {self.info['prepare_s']:.1f} s",
              file=sys.stderr)

    def fresh_reference(self, seed: int) -> dict:
        """Size-matched programs and interp digests for one fresh seed."""
        path = self.dir / f"fresh-{seed}.json"
        if path.exists():
            return json.loads(path.read_text())
        ref = self.jobs.run({"role": "fresh-ref", "seed": seed,
                             "jobs": _worker_count()},
                            cache=self.jobs.workdir("cache"),
                            backend="interp", keep_cache=False)
        path.write_text(json.dumps(ref))
        return ref


def _worker_count() -> int:
    return max(1, min(W.MAX_WORKERS, os.cpu_count() or 1))


def _require_c(out: dict, what: str) -> None:
    backend = out["backend"]
    if backend["toolchain"] and backend["active"] != "c":
        raise BenchError(f"{what} did not run compiled kernels: "
                         f"{backend['reason']}")


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------

class Run:
    """One workload run: its legs, their checks and its metrics."""

    def __init__(self, workload: str, seed: int, jobs: Jobs,
                 prepared: Prepared):
        self.workload = workload
        self.seed = seed
        self.jobs = jobs
        self.prepared = prepared
        self.attempts: dict[str, int] = {}
        self.failures: dict[str, int] = {}
        self.problems: list[str] = []
        self.run_digests: dict[str, str] = {}
        self.interp_tests_per_s: float | None = None
        if workload == "fresh":
            ref = prepared.fresh_reference(seed)
            self.reference = ref["digests"]
            self.selection = ref["selection"]
            self.interp_tests_per_s = ref["interp_tests_per_s"]
        elif workload == "triage":
            self.reference = prepared.info["triage_digests"]
        else:
            self.reference = prepared.info["pool_digests"]

    def count(self, what: str, attempted: int, failed: int = 0) -> None:
        self.attempts[what] = self.attempts.get(what, 0) + attempted
        self.failures[what] = self.failures.get(what, 0) + failed

    def leg_spec(self, leg: int, mode: str) -> dict:
        spec = {"role": "leg", "workload": self.workload, "seed": self.seed,
                "leg": leg, "mode": mode, "workers": _worker_count()}
        if self.workload == "fresh":
            spec["programs"] = W.fresh_leg_programs(self.selection,
                                                   self.seed, leg)
        elif self.workload == "triage":
            spec["outlier"] = W.triage_leg_outlier(
                self.prepared.info["outliers"], self.seed, leg)
            spec["pool_cache"] = str(self.prepared.triage_cache)
        else:
            spec["pool_cache"] = str(self.prepared.pool_cache)
        return spec

    def leg(self, leg: int, mode: str, cache: Path | None = None,
            keep_cache: bool = False) -> dict:
        """Run one leg; ``cache`` reuses a cache an earlier leg left."""
        spec = self.leg_spec(leg, mode)
        if cache is None:
            cache = self.jobs.workdir("cache")
        else:
            spec.pop("pool_cache", None)
        out = self.jobs.run(spec, cache=cache, obs=(mode == "trace"),
                            keep_cache=keep_cache)
        self.check_leg(out, spec)
        return out

    # -- correctness ---------------------------------------------------
    def check_leg(self, out: dict, spec: dict) -> None:
        processes = [out] + out.get("workers", [])
        self.count("legs", len(processes), sum(
            1 for p in processes
            if p["backend"]["toolchain"] and p["backend"]["active"] != "c"))
        for p in processes:
            if p["backend"]["toolchain"] and p["backend"]["active"] != "c":
                self.problems.append(f"kernel backend resolved to "
                                     f"{p['backend']['active']}: "
                                     f"{p['backend']['reason']}")
        self.count("cc_builds",
                   sum(p["counts"].get("sim.cc_builds", 0)
                       for p in processes),
                   sum(p["counts"].get("sim.cc_build_failures", 0)
                       for p in processes))
        self.count("c_kernels", sum(p["sim"]["c_kernels"] for p in processes),
                   sum(p["sim"]["c_fallbacks"] for p in processes))
        for what, n in out.get("attempts", {}).items():
            self.count(what, n, out["failures"].get(what, 0))
        for err in out.get("errors", []):
            self.count("checks", 1, 1)
            self.problems.append(err)
        digests = out["digests"]
        expected = self.expected_keys(spec)
        bad = [k for k in expected if digests.get(k) != self.reference.get(k)]
        extra = set(digests) - expected
        self.count("digests", len(expected) + len(extra),
                   len(bad) + len(extra))
        if bad or extra:
            self.problems.append(f"{len(bad)} digest mismatches against the "
                                 f"interp reference, {len(extra)} unexpected "
                                 f"(e.g. {sorted(bad + list(extra))[:3]})")
        self.run_digests.update(digests)

    def expected_keys(self, spec: dict) -> set[str]:
        """The reference keys (``program:input``) one leg must produce."""
        if self.workload in ("fresh", "warm"):
            programs = set(spec["programs"] if self.workload == "fresh"
                           else W.warm_leg_programs(self.seed, spec["leg"]))
            return {k for k in self.reference
                    if int(k.split(":")[0]) in programs}
        if self.workload == "fleet":
            return {k for k in self.reference
                    if k.endswith(":0") or k.endswith(":rf")}
        return {W.triage_key(spec["outlier"])}

    def check_pinned(self) -> None:
        pinned = json.loads((HERE / "pinned.json").read_text())
        key = (f"fresh:{self.seed}" if self.workload == "fresh"
               else self.workload)
        if key not in pinned:
            return
        got = W.combined(self.run_digests)
        self.count("digests", 1, int(got != pinned[key]))
        if got != pinned[key]:
            self.problems.append(f"digest {got} differs from the pinned "
                                 f"{pinned[key]} for {key}")

    # -- the two kinds of run ------------------------------------------
    def untraced(self) -> dict:
        legs = [self.leg(k, "plain") for k in range(W.LEGS[self.workload])]
        self.check_pinned()
        return self.end_to_end(legs)

    def traced(self) -> dict:
        plain = self.leg(0, "plain")
        traced = self.leg(0, "trace", keep_cache=True)
        hooks = self.leg(0, "hooks", cache=Path(traced["cache_dir"]))
        return self.per_layer(plain, traced, hooks)

    # -- metrics -------------------------------------------------------
    def end_to_end(self, legs: list[dict]) -> dict:
        wall = sum(leg["t_done"] - leg["t_ready"] for leg in legs)
        tests = sum(leg["tests"] for leg in legs)
        latencies = [x * 1e3 for leg in legs for x in leg["latencies"]]
        try:
            tail, pct, n = stats.tail(latencies)
        except ValueError as exc:
            raise BenchError(str(exc)) from None
        setup = [leg["t_first"] - leg["t_spawn"] for leg in legs]
        rss = [(leg["rss_kb"] + sum(w["rss_kb"]
                                    for w in leg.get("workers", ())))
               / 1024.0 for leg in legs]
        cache = [leg["cache_bytes"] / 1e6 for leg in legs]
        self.report = [
            f"{len(legs)} legs, {tests} tests, {n} units, "
            f"{wall:.2f} s timed",
            f"unit_tail_ms is the p{pct:g} of {n} unit samples "
            f"(p50 {statistics.median(latencies):.3f} ms)"]
        if self.workload == "triage":
            per = sum(leg["triage_s"] for leg in legs) / len(legs)
            self.report.append(f"triage_s_per_outlier {per:.3f} s "
                               f"({len(legs)} outliers)")
        if self.interp_tests_per_s is not None:
            self.report.append(
                f"diagnostic (not gated): fresh under forced interp "
                f"{self.interp_tests_per_s:.3f} tests/s vs auto "
                f"{tests / wall:.3f} tests/s")
        return {"tests_per_s": tests / wall,
                "unit_p50_ms": statistics.median(latencies),
                "unit_tail_ms": tail,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": max(rss),
                "native_cache_mb": statistics.fmean(cache)}

    def per_layer(self, plain: dict, traced: dict, hooks: dict) -> dict:
        procs = [traced] + traced.get("workers", [])
        layers: dict[str, float] = {}
        counts: dict[str, int] = {}
        sim: dict[str, int] = {}
        for p in procs:
            for k, v in p["layers"].items():
                layers[k] = layers.get(k, 0.0) + v
            for k, v in p["counts"].items():
                counts[k] = counts.get(k, 0) + v
            for k, v in p["sim"].items():
                sim[k] = sim.get(k, 0) + v
        hook_counts: dict[str, int] = {}
        for p in [hooks] + hooks.get("workers", []):
            for k, v in p["hooks"].items():
                hook_counts[k] = hook_counts.get(k, 0) + v

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def s(layer: str) -> float:
            return layers.get(layer, 0.0)

        def c(name: str) -> int:
            return counts.get(name, 0)

        wall_plain = plain["t_done"] - plain["t_ready"]
        wall_traced = traced["t_done"] - traced["t_ready"]
        stage = traced.get("worker_stage_s", {})
        m = {
            "corpus.plan_s": s("corpus.plan"),
            "core.generate_s": s("core.generate"),
            "core.programs": c("core.generate"),
            "core.race_check_s": s("core.race_check"),
            "core.race_checks": c("core.race_check"),
            "core.race_filtered": c("core.race_filtered"),
            "codegen.emit_cpp_s": s("codegen.emit_cpp"),
            "vendors.lower_s": s("vendors.lower"),
            "vendors.compiles": c("vendors.lower"),
            "sim.kcache.structural_hit_ratio": ratio(
                sim["structural_hits"],
                sim["structural_hits"] + sim["structural_misses"]),
            "sim.kcache.kernel_hit_ratio": ratio(
                sim["kernel_hits"], sim["kernel_hits"] + sim["kernel_misses"]),
            "sim.emit_c_s": s("sim.emit_c"),
            "sim.emit_c_calls": c("sim.emit_c"),
            "sim.cc_build_s": s("sim.cc_build"),
            "sim.cc_builds": c("sim.cc_builds"),
            "sim.cc_build_failures": c("sim.cc_build_failures"),
            "sim.so_load_s": s("sim.so_load"),
            "sim.so_loads": c("sim.so_load"),
            "sim.c_fallbacks": sim["c_fallbacks"],
            "sim.native_cache_files": traced["cache_files"],
            "sim.runtime.hook_calls": sum(hook_counts.values()),
            **{f"sim.runtime.{h}_calls": hook_counts.get(h, 0)
               for h in HOOK_METRICS},
            "driver.execute_s": s("driver.execute"),
            "driver.executions": c("driver.execute"),
            "analysis.verdict_s": s("analysis.verdict"),
            "analysis.bucket_s": s("analysis.bucket"),
            "reduce.case_s": s("reduce.case"),
            "reduce.gates_s": s("reduce.gates"),
            "reduce.candidates": c("reduce.oracle"),
            "reduce.oracle_s": s("reduce.oracle"),
            "reduce.oracle_runs": c("reduce.oracle_runs"),
            "reduce.accept_ratio": ratio(c("reduce.accepted"),
                                         c("reduce.oracle_runs")),
            "fleet.queue.lease_s": s("fleet.queue.lease"),
            "fleet.queue.leases": c("fleet.queue.leases"),
            "fleet.queue.complete_s": s("fleet.queue.complete"),
            "fleet.queue.duplicates": c("fleet.queue.duplicates"),
            "fleet.store.write_s": s("fleet.store.write"),
            "fleet.store.writes": c("fleet.store.write"),
            "fleet.poll_s": s("fleet.poll"),
            "fleet.worker.compile_s": stage.get("compile", 0.0),
            "fleet.worker.execute_s": stage.get("execute", 0.0),
            "setup.import_s": plain["setup"]["import_s"],
            "setup.native_values_s": plain["setup"]["native_values_s"],
            "setup.pool_s": plain["setup"]["pool_s"],
            "trace.coverage": traced["coverage"],
            "trace.overhead": wall_traced / wall_plain - 1.0,
            "triage_s_per_outlier": (plain["triage_s"]
                                     if self.workload == "triage" else 0.0),
            "diag.fresh_interp_tests_per_s": self.interp_tests_per_s or 0.0,
        }
        top = sorted(((v, k) for k, v in m.items()
                      if k.endswith("_s") and k.split(".")[0] in
                      ("corpus", "core", "codegen", "vendors", "sim",
                       "driver", "analysis", "reduce", "fleet")),
                     reverse=True)[:3]
        self.report = [
            f"traced leg 0: {wall_traced:.2f} s traced vs {wall_plain:.2f} s "
            f"untraced; layers cover {traced['coverage']:.1%} of it",
            "largest self times: " + ", ".join(f"{k} {v:.3f} s"
                                               for v, k in top)]
        return m


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _remove_stale_runs() -> None:
    """Remove the work directories of runs killed before they cleaned up."""
    runs = STATE / "runs"
    for path in runs.iterdir() if runs.exists() else ():
        try:
            os.kill(int(path.name), 0)
        except (ValueError, ProcessLookupError):
            shutil.rmtree(path, ignore_errors=True)
        except PermissionError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30,
                        help="nominal measured seconds per run; the work "
                             "itself is fixed (see README)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this run's digests in pinned.json "
                             "(only when they match the reference)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/repro is "
              "missing", file=sys.stderr)
        return 2
    _become_subreaper()
    # SIGTERM unwinds like an exception, so the running leg's process
    # group is reaped and this run's work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _remove_stale_runs()
    run_dir = STATE / "runs" / str(os.getpid())
    run_dir.mkdir(parents=True)
    jobs = Jobs(run_dir)
    try:
        prepared = Prepared(jobs)
        prepared.ensure()
        run = Run(args.workload, args.seed, jobs, prepared)
        metrics = run.traced() if args.trace else run.untraced()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    run.count("legs", 0, jobs.leftover)
    if jobs.leftover:
        run.problems.append(f"{jobs.leftover} process group(s) outlived "
                            f"their leg")
    if args.pin and not run.problems:
        path = HERE / "pinned.json"
        pinned = json.loads(path.read_text()) if path.exists() else {}
        key = (f"fresh:{args.seed}" if args.workload == "fresh"
               else args.workload)
        pinned[key] = W.combined(run.run_digests)
        path.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    attempted = sum(run.attempts.values())
    failed = sum(run.failures.values())
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: " + "; ".join(run.report[:1]))
    for line in run.report[1:]:
        print(f"  {line}")
    for name, value in metrics.items():
        unit = END_TO_END.get(name, _layer_unit(name))
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print("  failed/attempted: " + ", ".join(
        f"{k} {run.failures[k]}/{run.attempts[k]}" for k in sorted(run.attempts)))
    for problem in run.problems:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({
        "correct": failed == 0 and not run.problems,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": END_TO_END.get(name, _layer_unit(name))}
                    for name, value in metrics.items()}}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "tests/s"
    if name.endswith("_s") or name == "triage_s_per_outlier":
        return "s"
    if name.endswith("ratio") or name in ("trace.coverage", "trace.overhead"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
