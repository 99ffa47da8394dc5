"""Workload definitions and correctness digests (imports the program).

Every function here derives its work from the constants in
``workloads.py`` and the run's seed, so the legs, the preparation jobs
and the interp references all agree on which units a run executes.
"""

from __future__ import annotations

import random

from repro.backends import InjectedFault, register_fault_backend
from repro.codegen.emit_main import emit_translation_unit
from repro.config import CampaignConfig, GeneratorConfig
from repro.core.generator import ProgramGenerator
from repro.driver.engine import WorkUnit

import workloads as W
from stats import percentile


# ----------------------------------------------------------------------
# configs
# ----------------------------------------------------------------------

def fresh_config(seed: int, n_programs: int = W.FRESH_CANDIDATES):
    return CampaignConfig(n_programs=n_programs,
                          inputs_per_program=W.FRESH_INPUTS, seed=seed,
                          directive_mix=W.FRESH_MIX)


def pool_config(inputs: int = W.POOL_INPUTS) -> CampaignConfig:
    return CampaignConfig(n_programs=W.POOL_PROGRAMS,
                          inputs_per_program=inputs, seed=W.POOL_SEED,
                          directive_mix=W.POOL_MIX)


def triage_config() -> CampaignConfig:
    """The finding campaign; registers the fault-injected vendor."""
    inner, kind, trigger = W.TRIAGE_FAULT
    register_fault_backend(inner, InjectedFault(kind=kind, trigger=trigger),
                           name=W.TRIAGE_FAULT_BACKEND, replace=True)
    return CampaignConfig(
        n_programs=W.TRIAGE_PROGRAMS, inputs_per_program=1,
        seed=W.TRIAGE_SEED, generator=GeneratorConfig(**W.TRIAGE_GENERATOR),
        directive_mix="sync", compilers=W.TRIAGE_COMPILERS)


# ----------------------------------------------------------------------
# which units each leg runs
# ----------------------------------------------------------------------

def _emitted_sizes(config: CampaignConfig) -> list[int]:
    gen = ProgramGenerator(config.generator, seed=config.seed)
    return [len(emit_translation_unit(gen.generate(i)))
            for i in range(config.n_programs)]


def fresh_selection(seed: int) -> list[int]:
    """Program indices of one fresh run, size-matched to fixed targets.

    The seed's stream supplies :data:`FRESH_CANDIDATES` unseen programs;
    for each target size (quantiles of a fixed reference draw) the
    closest unused candidate is kept.  Build time follows emitted size
    closely, so runs on different seeds do comparable work while every
    program still comes from the seed.
    """
    ref = sorted(_emitted_sizes(fresh_config(W.FRESH_TARGET_SEED)))
    n = W.FRESH_PROGRAMS
    targets = [percentile(ref, 100.0 * (k + 0.5) / n) for k in range(n)]
    sizes = _emitted_sizes(fresh_config(seed))
    free = set(range(len(sizes)))
    chosen = []
    for target in targets:
        best = min(free, key=lambda i: (abs(sizes[i] - target), i))
        free.remove(best)
        chosen.append(best)
    return chosen


def warm_leg_units(seed: int, leg: int) -> list[WorkUnit]:
    """Single-input units of this leg's share of the pool, seed-ordered."""
    units = [WorkUnit(p, (j,)) for p in W.warm_leg_programs(seed, leg)
             for j in range(W.POOL_INPUTS)]
    random.Random(f"warm:{seed}:{leg}").shuffle(units)
    return units


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------

def outcome_digests(outcome) -> dict[str, str]:
    """One digest per differential test, over every record bit."""
    if outcome.race_filtered:
        return {f"{outcome.program_index}:rf": "race-filtered"}
    return {f"{outcome.program_index}:{v.input_index}":
            W.digest([r.to_row() for r in v.records]) for v in outcome.verdicts}


def triaged_digest(triaged) -> str:
    """Reduced program, reduced input, bucket signature and the search
    path length of one reduction."""
    res = triaged.result
    return W.digest({
        "confirmed": res.confirmed,
        "program": emit_translation_unit(res.reduced_program),
        "input": res.reduced_input.to_payload(res.reduced_program),
        "signature": triaged.signature,
        "statements": [res.original_statements, res.reduced_statements],
        "candidates": res.candidates_tried,
    })
