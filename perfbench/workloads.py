"""Workload constants shared by the runner (``run.py``) and the legs.

Everything that fixes *what work a run does* lives here, so a change to
the amount of work is one reviewed diff.  No program import happens in
this module: the runner reads it without importing the program.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("fresh", "warm", "triage", "fleet")

#: the seed the pinned digests (``pinned.json``) were recorded with
DEFAULT_SEED = 1

#: legs (fresh processes) per untraced run; setup_s is their median.
#: A triage run reduces each fixed outlier once, one per leg.
LEGS = {"fresh": 3, "warm": 3, "fleet": 5, "triage": 2}

#: the percentile grid and sample rule of the tail live in stats.py

# --- fresh: unseen seed-drawn paper-mix programs, cold private cache ---
FRESH_MIX = "paper"
FRESH_PROGRAMS = 20          # >= 20 units, or the tail is undefined
FRESH_INPUTS = 3
#: candidates drawn from the seed stream per run; the run keeps the
#: FRESH_PROGRAMS whose emitted C++ size is closest to fixed targets
FRESH_CANDIDATES = 80
#: seed of the fixed reference draw the size targets come from
FRESH_TARGET_SEED = 20240915

# --- warm / fleet: a fixed full-mix pool, .so files prepared once ---
POOL_MIX = "full"
POOL_SEED = 99
POOL_PROGRAMS = 24
POOL_INPUTS = 6              # warm: 6 single-input units per program

# --- triage: fixed injected-fault outliers, found once per checkout ---
TRIAGE_SEED = 1
TRIAGE_PROGRAMS = 2          # the finding campaign's grid
TRIAGE_OUTLIERS = 2          # injected-fault outliers that grid flags
TRIAGE_FAULT_BACKEND = "perfbench-buggy"
TRIAGE_FAULT = ("intel", "crash", "n_atomic")   # inner backend, kind, trigger
TRIAGE_COMPILERS = ("gcc", "clang", TRIAGE_FAULT_BACKEND)
TRIAGE_GENERATOR = dict(max_total_iterations=1500, loop_trip_max=30,
                        num_threads=8)

#: worker processes for the fleet workload and for preparation jobs
MAX_WORKERS = 2


# ----------------------------------------------------------------------
# which share of a run each leg does (seed-ordered, never seed-sized)
# ----------------------------------------------------------------------

def fresh_leg_programs(selection: list[int], seed: int, leg: int) -> list[int]:
    """Size targets are dealt round-robin, so every leg gets small and
    large programs; the seed orders them within the leg."""
    mine = selection[leg::LEGS["fresh"]]
    random.Random(f"fresh:{seed}:{leg}").shuffle(mine)
    return mine


def warm_leg_programs(seed: int, leg: int) -> list[int]:
    programs = list(range(POOL_PROGRAMS))
    random.Random(f"warm:{seed}").shuffle(programs)
    return programs[leg::LEGS["warm"]]


def triage_leg_outlier(outliers: list, seed: int, leg: int) -> list:
    """Every run reduces each outlier once; the seed orders the legs."""
    order = sorted(outliers)
    random.Random(f"triage:{seed}").shuffle(order)
    return order[leg]


def triage_key(coords) -> str:
    """Digest key of one outlier: ``program:input:vendor:kind``."""
    return ":".join(str(c) for c in coords)


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def combined(digests: dict[str, str]) -> str:
    """One digest over a whole key set (the pinned copies)."""
    return digest(sorted(digests.items()))
