"""Which public entry points the traced run wraps, and the per-layer metrics.

:func:`install` puts one span name on each layer boundary; every span
name ``<name>`` gives exactly one self-time metric ``<name>.s``, so the
self times plus ``untraced.s`` add up to the traced ``solve_s``.  Metrics
the program reports itself (pool counters, per-shard runtimes, cascade
attempt records, cache counters) are read from its return values and
objects, never from inside it.

All counts and seconds are per timed unit of work (mean over the traced
units), so they do not depend on how many units fit in a run.
"""

from __future__ import annotations

import importlib
import statistics
from typing import Any

from spans import Tracer

#: span name -> call-count metric name
CALL_METRICS = {
    "core.try_add": "core.try_add.calls",
    "core.snapshot": "core.snapshot.calls",
    "core.restore": "core.restore.calls",
    "batch": "batch.calls",
    "profile": "profile.lookups",
    "imr": "imr.calls",
    "ordering": "ordering.calls",
    "service.working_model": "service.working_model.calls",
    "carry_forward": "carry_forward.calls",
    "faults.inject": "faults.inject.calls",
    "journal.append": "journal.appends",
    "fleet.materialize": "fleet.materialize.calls",
}

#: Layer metrics of work that fleet-large runs inside pool workers, where
#: the parent's wrappers cannot see it.  A separate inline pass
#: (``n_workers=1``, identical shard results) reports them as
#: ``inline.<name>``; the unprefixed names cover the parent process only.
INLINE_METRICS = (
    "core.try_add.calls", "core.try_add.s", "core.try_add.accept_frac",
    "profile.lookups", "profile.s", "profile.hit_frac",
    "imr.calls", "imr.s", "ordering.calls", "ordering.s",
)

TIERS = {"psg": "psg", "mwf+ls": "mwf_ls", "mwf": "mwf", "tf": "tf"}
WINNERS = {**TIERS, "carry-forward": "carry_forward"}


def _count_accept(c: dict, args: tuple, kwargs: dict, result: Any,
                  token: Any) -> None:
    c["core.try_add.accepted"] += bool(result)


def _lane_ops(c: dict, args: tuple, kwargs: dict, result: Any,
              token: Any) -> None:
    c["batch.lane_ops"] += len(result)


def _profile_hits(args: tuple) -> int:
    return args[0].hits


def _count_hit(c: dict, args: tuple, kwargs: dict, result: Any,
               token: Any) -> None:
    c["profile.hits"] += args[0].hits > token


def _genitor_run(c: dict, args: tuple, kwargs: dict, result: Any,
                 token: Any) -> None:
    c["genitor.runs"] += 1
    c["genitor.evaluations"] += args[0].stats.evaluations


def _cascade_tiers(c: dict, args: tuple, kwargs: dict, result: Any,
                   token: Any) -> None:
    for attempt in result.attempts:
        if attempt.tier in TIERS:
            c[f"cascade.tier.{TIERS[attempt.tier]}.s"] += (
                attempt.runtime_seconds
            )


def _journal_bytes(c: dict, args: tuple, kwargs: dict, result: Any,
                   token: Any) -> None:
    from repro.service.journal import encode_frame

    c["journal.bytes"] += len(encode_frame(args[1]))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are defined on."""
    def mod(name: str) -> Any:
        return importlib.import_module(f"repro.{name}")

    profile, state, state_batch, state_jit, state_sanitize, state_soa = (
        mod(f"core.{m}") for m in (
            "profile", "state", "state_batch", "state_jit",
            "state_sanitize", "state_soa",
        )
    )
    imr, ordering, projection_cache = (
        mod(f"heuristics.{m}") for m in ("imr", "ordering", "projection_cache")
    )
    cascade, controller, journal = (
        mod(f"service.{m}") for m in ("cascade", "controller", "journal")
    )
    partition, rebalance, solver = (
        mod(f"fleet.{m}") for m in ("partition", "rebalance", "solver")
    )
    broadcast, supervisor = (
        mod(f"parallel.{m}") for m in ("broadcast", "supervisor")
    )
    policies = mod("dynamic.policies")
    injector = mod("faults.injector")
    engine = mod("genitor.engine")
    fleet = mod("workload.fleet")

    kernels = (
        state.RecordAllocationState,
        state_soa.SoaAllocationState,
        state_sanitize.SanitizeAllocationState,
    )
    for cls in (*kernels, state_jit.JitAllocationState):
        tracer.wrap_method(cls, "try_add", "core.try_add",
                           after=_count_accept)
    for cls in kernels:  # the jit kernel inherits these from soa
        tracer.wrap_method(cls, "snapshot", "core.snapshot")
        tracer.wrap_method(cls, "restore", "core.restore")
    tracer.wrap_method(state_batch.BatchSoaState, "try_add_batch", "batch",
                       after=_lane_ops)
    tracer.wrap_function(state_batch.probe_try_add, "batch", after=_lane_ops)
    tracer.wrap_method(profile.ProfileCache, "get_or_compute", "profile",
                       before=_profile_hits, after=_count_hit)
    tracer.wrap_function(imr.imr_map_string, "imr")
    tracer.wrap_function(ordering.allocate_sequence, "ordering")
    pc = projection_cache.ProjectionCache
    for method in ("lookup", "store_snapshot", "maybe_evict"):
        tracer.wrap_method(pc, method, "prefix")
    tracer.register(pc)
    tracer.wrap_method(engine.GenitorEngine, "run", "genitor",
                       after=_genitor_run)

    tracer.wrap_method(controller.MissionController, "handle",
                       "service.handle")
    tracer.wrap_function(controller.build_working_model,
                         "service.working_model")
    tracer.wrap_function(policies.carry_forward, "carry_forward")
    tracer.wrap_function(injector.inject, "faults.inject")
    tracer.wrap_method(cascade.SolverCascade, "solve", "cascade.solve",
                       after=_cascade_tiers)
    tracer.wrap_method(journal.JournalStore, "append", "journal.append",
                       after=_journal_bytes)
    tracer.wrap_method(journal.JournalStore, "write_snapshot",
                       "journal.snapshot")

    tracer.wrap_function(fleet.materialize_model, "fleet.materialize")
    tracer.wrap_function(partition.partition_fleet, "fleet.partition")
    tracer.wrap_function(solver.compose, "fleet.compose")
    tracer.wrap_function(solver.validate_result, "fleet.validate")
    tracer.wrap_function(rebalance.rebalance, "rebalance")
    tracer.wrap_method(supervisor.SupervisedPool, "run", "pool.run")
    tracer.wrap_method(broadcast.SharedModelGroup, "__init__",
                       "broadcast.setup")
    tracer.wrap_method(broadcast.SharedModelGroup, "__enter__",
                       "broadcast.setup")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(tracer: Tracer, runs: set[int]) -> dict[str, float]:
    """Self times, call counts and wrapper counters, per unit of ``runs``."""
    n = max(len(runs), 1)
    seconds, calls, _ = tracer.self_times(runs)
    c = tracer.counters
    out: dict[str, float] = {}
    for span in tracer.names:
        out[f"{span}.s"] = seconds[span] / n
    for span, metric in CALL_METRICS.items():
        out[metric] = calls.get(span, 0) / n
    out["core.try_add.accept_frac"] = _ratio(
        c["core.try_add.accepted"], calls.get("core.try_add", 0)
    )
    out["batch.lane_ops"] = c["batch.lane_ops"] / n
    out["profile.hit_frac"] = _ratio(
        c["profile.hits"], calls.get("profile", 0)
    )
    out["genitor.runs"] = c["genitor.runs"] / n
    out["genitor.evaluations"] = c["genitor.evaluations"] / n
    for tier in TIERS.values():
        key = f"cascade.tier.{tier}.s"
        out[key] = c[key] / n
    out["journal.bytes"] = c["journal.bytes"] / n

    caches = tracer.instances["ProjectionCache"]
    lookups = sum(pc.lookups for pc in caches)
    out["prefix.lookups"] = lookups / n
    out["prefix.mean_hit_depth"] = _ratio(
        sum(pc.hit_depth_sum for pc in caches), lookups
    )
    out["prefix.fail_short_circuits"] = (
        sum(pc.fail_short_circuits for pc in caches) / n
    )
    out["prefix.nodes"] = sum(pc.n_nodes for pc in caches) / n
    return out


def outcome_metrics(outcomes: list[Any], n_units: int) -> dict[str, float]:
    """Service counters from the controller's returned outcomes."""
    n = max(n_units, 1)
    out = {
        "service.admitted": sum(len(o.admitted) for o in outcomes) / n,
        "service.rejected": sum(len(o.rejected) for o in outcomes) / n,
        "service.shed": sum(len(o.shed) for o in outcomes) / n,
    }
    for tier, key in WINNERS.items():
        out[f"cascade.wins.{key}"] = (
            sum(o.tier_used == tier for o in outcomes) / n
        )
    return out


def fleet_metrics(results: list[Any]) -> dict[str, float]:
    """Shard, rebalance and pool counters the fleet solver reports."""
    n = max(len(results), 1)
    out: dict[str, float] = {}
    shard_sum = []
    shard_max = []
    straggler = []
    for r in results:
        runtimes = [s.runtime_seconds for s in r.shard_solutions]
        shard_sum.append(sum(runtimes))
        shard_max.append(max(runtimes))
        straggler.append(max(runtimes) / statistics.median(runtimes))
    out["fleet.shard.sum_s"] = statistics.fmean(shard_sum)
    out["fleet.shard.max_s"] = statistics.fmean(shard_max)
    out["fleet.shard.straggler_ratio"] = statistics.fmean(straggler)
    reb = [r.stats.get("rebalance", {}) for r in results]
    attempted = sum(s.get("attempted", 0) for s in reb)
    migrated = sum(s.get("migrated", 0) for s in reb)
    out["rebalance.attempted"] = attempted / n
    out["rebalance.migrated"] = migrated / n
    out["rebalance.migrated_frac"] = _ratio(migrated, attempted)
    out["rebalance.pool_overflow"] = (
        sum(s.get("pool_overflow", 0) for s in reb) / n
    )
    pool = [r.stats.get("pool", {}) for r in results]
    for key in ("tasks", "retries", "worker_deaths"):
        out[f"pool.{key}"] = sum(p.get(key, 0) for p in pool) / n
    out["fleet.min_slackness"] = statistics.fmean(
        r.min_slackness for r in results
    )
    return out
