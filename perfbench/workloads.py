"""The three benchmark workloads, driven through the public API only.

Each workload builds its inputs from the run seed, then repeats one fixed
unit of work.  Stopping rules count iterations and budgets never bind, so
a unit does the same work on every host and its worth and slackness are
deterministic; repeated units of one instance must agree exactly.

A workload cycles through ``n_instances`` seed-derived instances so one
run averages over several inputs, and runs each of them at least twice
so every instance's output is checked against a repeat of itself.
Quality metrics (``worth_frac``, ``slackness``) come from the first unit
of each instance.
"""

from __future__ import annotations

import dataclasses
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any

import numpy as np

import layers
from repro.core.feasibility import analyze
from repro.core.numeric import isclose
from repro.core.state import resolve_auto_backend
from repro.fleet import partition_fleet, solve_fleet
from repro.fleet.solver import validate_result
from repro.genitor import GenitorConfig
from repro.genitor.stopping import StoppingRules
from repro.heuristics import best_of_trials, seeded_psg
from repro.service.cascade import CascadeConfig
from repro.service.controller import ServiceConfig
from repro.service.durable import DurableMissionController
from repro.service.events import generate_scenario
from repro.workload import generate_model, get_scenario
from repro.workload.fleet import FLEET_LARGE, generate_fleet


@dataclass
class UnitRecord:
    """What one unit of work did, as the benchmark observed it."""

    seconds: float
    #: work items done: GENITOR evaluations, events, or fleet strings
    ops: int
    #: per-operation latencies (ms): GENITOR trials, events, shard solves
    latencies_ms: list[float]
    attempted: int
    #: operations that raised, plus one per failed check
    failed: int
    #: failed correctness checks, as messages
    problems: list[str] = field(default_factory=list)
    #: (worth_frac, slackness) of this unit's output
    quality: tuple[float, float] = (0.0, 0.0)
    #: equal for every unit of the same instance when output is deterministic
    digest: Any = None
    #: program output kept for the traced run's per-layer metrics
    output: Any = None
    #: peak RSS (MB) of the process during the unit, or of pool children
    peak_rss_mb: float = 0.0
    #: mean host-probe time (s) around the unit (see bench.probe_s)
    probe_s: float = 0.0


def _instance_seeds(seed: int, tag: int, n: int) -> list[int]:
    state = np.random.SeedSequence([seed, tag]).generate_state(n)
    return [int(s) for s in state]


class Workload:
    """One benchmark workload: set-up, a repeatable unit, checks."""

    name = ""
    n_instances = 1

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        """Build every input from the seed (timed as ``setup_s``)."""
        raise NotImplementedError

    def prepare(self, instance: int) -> None:
        """Untimed set-up of one unit on ``instance``."""

    def run(self, instance: int) -> Any:
        """The timed work of one unit; returns the program's output."""
        raise NotImplementedError

    def finish(self, instance: int, output: Any, seconds: float) -> UnitRecord:
        """Untimed: check ``output`` and summarize the unit."""
        raise NotImplementedError

    def kernels(self) -> dict[str, Any]:
        """The state kernel ``auto`` resolves to for the run's models."""
        raise NotImplementedError

    def layer_metrics(self, outputs: list[Any], setup_times: list[float],
                      spans: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics from the traced units' outputs and ``spans``."""
        return {}

    def inline_pass(self) -> Any | None:
        """Run the unit's work in-process, when it normally uses workers."""
        return None

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


# -- plan-psg -----------------------------------------------------------------


class PlanPsg(Workload):
    """Offline planning: best of two seeded-PSG trials per instance."""

    name = "plan-psg"
    n_instances = 10
    n_strings = 50
    n_machines = 8
    config = GenitorConfig(
        population_size=20,
        rules=StoppingRules(max_iterations=100, max_stale_iterations=10**9),
    )

    def setup(self) -> None:
        params = get_scenario("1").scaled(
            n_strings=self.n_strings, n_machines=self.n_machines
        )
        self.seeds = _instance_seeds(self.seed, 0x50A9, self.n_instances)
        self.models = [generate_model(params, seed=s) for s in self.seeds]

    def run(self, instance: int) -> Any:
        i = instance
        return best_of_trials(
            seeded_psg,
            self.models[i],
            n_trials=2,
            rng=self.seeds[i],
            n_workers=1,
            config=self.config,
        )

    def finish(self, instance: int, output: Any, seconds: float) -> UnitRecord:
        model = self.models[instance]
        problems = []
        report = analyze(output.allocation)
        if not report.feasible:
            problems.append(f"elite infeasible: {report.violations[:2]}")
        if not isclose(output.allocation.total_worth(), output.fitness.worth):
            problems.append(
                f"elite worth {output.allocation.total_worth()} != "
                f"reported {output.fitness.worth}"
            )
        offered = sum(s.worth for s in model.strings)
        # (worth, slackness) of each trial's best; the elite is one of them
        trial_fitnesses = output.stats["trial_fitnesses"]
        trials = int(output.stats["n_trials"])
        # per-trial runtimes: the elite's own, and the rest of the total
        best_s = output.runtime_seconds
        other_s = output.stats["total_runtime_seconds"] - best_s
        return UnitRecord(
            seconds=seconds,
            ops=int(output.stats["total_evaluations"]),
            latencies_ms=[best_s * 1e3, other_s * 1e3],
            attempted=trials,
            failed=int(output.stats["trial_failures"]) + len(problems),
            problems=problems,
            quality=(
                statistics.fmean(f[0] for f in trial_fitnesses) / offered,
                statistics.fmean(f[1] for f in trial_fitnesses),
            ),
            digest=(
                output.fitness.as_tuple(),
                tuple(output.order),
                tuple(trial_fitnesses),
            ),
        )

    def kernels(self) -> dict[str, Any]:
        return {"instances": sorted({resolve_auto_backend(m)
                                     for m in self.models})}


# -- mission-stream -----------------------------------------------------------


class MissionStream(Workload):
    """Online service: a seeded event stream through a durable controller.

    One caller, closed loop: the next event is sent when the previous
    ``handle`` returns.  The request budget never binds, so every tier
    stops on its iteration count.
    """

    name = "mission-stream"
    n_instances = 7
    n_services = 30
    n_machines = 8
    n_events = 10
    snapshot_every = 5
    config = ServiceConfig(
        default_budget=1e6,
        cascade=CascadeConfig(ga_population=20, ga_max_iterations=30),
    )

    def setup(self) -> None:
        params = dataclasses.replace(
            get_scenario("1"),
            n_strings=self.n_services,
            n_machines=self.n_machines,
        )
        self.seeds = _instance_seeds(self.seed, 0x3155, self.n_instances)
        self.catalogs = []
        self.initial = []
        self.streams = []
        for s in self.seeds:
            catalog = generate_model(params, seed=s)
            by_worth = sorted(
                range(catalog.n_strings),
                key=lambda k: (-catalog.strings[k].worth, k),
            )
            self.catalogs.append(catalog)
            self.initial.append(sorted(by_worth[: self.n_services // 2]))
            self.streams.append(
                generate_scenario(catalog, self.n_events, rng=s)
            )
        # opening a fresh store (meta write + fsync, recovery scan) is
        # part of set-up; every unit then opens its own fresh store
        self.journal = self.work_dir / "journal"
        shutil.rmtree(self.journal, ignore_errors=True)
        self._open(0, self.journal).close()
        shutil.rmtree(self.journal)
        self.recover_s: list[float] = []

    def _open(self, instance: int, journal_dir: Path) -> Any:
        return DurableMissionController(
            self.catalogs[instance],
            self.config,
            rng=self.seeds[instance],
            journal_dir=journal_dir,
            initial_active=self.initial[instance],
            snapshot_every=self.snapshot_every,
        )

    def prepare(self, instance: int) -> None:
        shutil.rmtree(self.journal, ignore_errors=True)
        self.controller = self._open(instance, self.journal)
        self.latencies: list[float] = []

    def run(self, instance: int) -> Any:
        outcomes = []
        errors = []
        latencies = self.latencies
        handle = self.controller.handle
        for event in self.streams[instance]:
            t0 = perf_counter()
            try:
                outcomes.append(handle(event))
            except Exception as exc:  # counted as a failed operation
                errors.append(repr(exc))
            latencies.append((perf_counter() - t0) * 1e3)
        return outcomes, errors

    def finish(self, instance: int, output: Any, seconds: float) -> UnitRecord:
        outcomes, errors = output
        catalog = self.catalogs[instance]
        problems = list(errors)
        missed = sum(not o.deadline_hit for o in outcomes)
        if missed:
            problems.append(f"{missed} outcome(s) missed the deadline")
        live = self.controller.allocation_snapshot()
        self.controller.close()
        t0 = perf_counter()
        reopened = self._open(instance, self.journal)
        self.recover_s.append(perf_counter() - t0)
        diverged = reopened.allocation_snapshot() != live
        if diverged:
            problems.append("reopened journal differs from live allocation")
        reopened.close()
        shutil.rmtree(self.journal, ignore_errors=True)

        served = []
        slack = []
        for o in outcomes:
            asked = o.worth + sum(
                catalog.strings[sid].worth for sid in (*o.shed, *o.rejected)
            )
            if asked > 0:
                served.append(o.worth / asked)
                slack.append(o.slackness)
        return UnitRecord(
            seconds=seconds,
            ops=len(outcomes),
            latencies_ms=self.latencies,
            attempted=len(self.streams[instance]),
            failed=len(errors) + missed + diverged,
            problems=problems,
            quality=(statistics.fmean(served), statistics.fmean(slack)),
            digest=(
                tuple((o.worth, o.slackness, o.tier_used) for o in outcomes),
                sorted(live.items()),
            ),
            output=outcomes,
        )

    def layer_metrics(self, outputs: list[Any], setup_times: list[float],
                      spans: dict[str, float]) -> dict[str, float]:
        metrics = layers.outcome_metrics(
            [o for outcomes in outputs for o in outcomes], len(outputs)
        )
        metrics["durable.recover.s"] = statistics.fmean(self.recover_s)
        return metrics

    def kernels(self) -> dict[str, Any]:
        # auto picks per working model; report the catalog and the
        # initial active set, the two ends of the range a stream visits
        def pick(n: int, m: int) -> str:
            return resolve_auto_backend(
                SimpleNamespace(n_strings=n, n_machines=m)
            )

        return {
            "catalog": pick(self.n_services, self.n_machines),
            "initial": pick(self.n_services // 2, self.n_machines),
        }


# -- fleet-large --------------------------------------------------------------


class FleetLarge(Workload):
    """Fleet-scale solve: 1 000 machines / 10 000 strings in 64 shards."""

    name = "fleet-large"
    n_instances = 2
    n_shards = 64
    n_workers = 2
    solver = "skip-ahead"

    def setup(self) -> None:
        self.fleets = [
            generate_fleet(FLEET_LARGE, seed=s)
            for s in _instance_seeds(self.seed, 0xF1EE, self.n_instances)
        ]
        self.checked: set[str] = set()

    def run(self, instance: int) -> Any:
        return solve_fleet(
            self.fleets[instance],
            self.n_shards,
            solver=self.solver,
            n_workers=self.n_workers,
        )

    def layer_metrics(self, outputs: list[Any], setup_times: list[float],
                      spans: dict[str, float]) -> dict[str, float]:
        metrics = layers.fleet_metrics(outputs)
        # time in pool.run beyond the workers' share of shard solving
        metrics["pool.wait.s"] = (
            spans["pool.run.s"] - metrics["fleet.shard.sum_s"] / self.n_workers
        )
        # set-up is generating the fleets and nothing else
        metrics["fleet.generate.s"] = (
            statistics.median(setup_times) / self.n_instances
        )
        return metrics

    def inline_pass(self) -> Any:
        return solve_fleet(
            self.fleets[0], self.n_shards, solver=self.solver, n_workers=1
        )

    def finish(self, instance: int, output: Any, seconds: float) -> UnitRecord:
        fleet = self.fleets[instance]
        problems = []
        signature = output.signature()
        if signature not in self.checked:
            # deep validation re-runs feasibility per shard; once per
            # distinct result is enough, repeats are compared by signature
            partition = partition_fleet(fleet, self.n_shards, seed=fleet.seed)
            try:
                validate_result(fleet, partition, output, deep=True)
                self.checked.add(signature)
            except Exception as exc:  # a failed check, not a crash
                problems.append(f"validate_result: {exc!r}")
        offered = sum(s.worth for s in fleet.strings)
        runtimes = [s.runtime_seconds for s in output.shard_solutions]
        pool = output.stats.get("pool", {})
        return UnitRecord(
            seconds=seconds,
            ops=fleet.n_strings,
            latencies_ms=[r * 1e3 for r in runtimes],
            attempted=len(runtimes),
            failed=int(pool.get("task_errors", 0)) + len(problems),
            problems=problems,
            quality=(
                output.total_worth / offered,
                statistics.fmean(s.slackness for s in output.shard_solutions),
            ),
            digest=signature,
            output=output,
        )

    def kernels(self) -> dict[str, Any]:
        picks = {
            resolve_auto_backend(
                SimpleNamespace(n_strings=s.n_strings, n_machines=s.n_machines)
            )
            for fleet in self.fleets
            for s in partition_fleet(fleet, self.n_shards, seed=fleet.seed).shards
        }
        return {"shards": sorted(picks)}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PlanPsg, MissionStream, FleetLarge)
}
