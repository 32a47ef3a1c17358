"""Run loop, metrics and output of the repository benchmark (see run.py)."""

from __future__ import annotations

import ctypes
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy

import layers
from repro.core.state import get_default_state_backend
from spans import Tracer
from workloads import WORKLOADS, UnitRecord, Workload

#: timed units run every instance at least this many times, so each
#: instance's output is checked against a repeat of itself
UNIT_MIN_ROUNDS = 2

#: untraced/traced unit pairs a traced run makes at least
TRACED_MIN_PAIRS = 2

#: run id of the fleet-large inline pass in the span table
INLINE_RUN = 1_000_000

#: iterations of the host-speed probe loop
PROBE_ITERATIONS = 250_000

#: seconds the probe loop takes on the reference host: a 2-vCPU 2.1 GHz
#: Xeon VM, Python 3.11.7, at its usual speed
PROBE_REF_S = 0.025


def probe_s() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's speed.

    On a shared host the same work runs up to twice as slow in some
    seconds as in others.  The benchmark times this loop twice just
    before and twice just after each unit; their mean tells how fast the
    host was while the unit ran.  The loop runs no program code, so a
    change to the program does not move it.
    """
    t0 = perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x += i * i % 7
    return perf_counter() - t0


def reset_peak_rss() -> None:
    """Start a new peak-RSS window; :func:`peak_rss_mb` reads it.

    Every unit reports its own peak: a run-wide maximum would be set by
    the one instance with the largest search caches.  Linux and glibc
    only; the files are the process's own /proc entries.
    """
    # hand memory freed by earlier units back to the system first, or
    # the current RSS the peak is reset to stays at the largest unit's
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")  # resets VmHWM to the current RSS


def peak_rss_mb() -> float:
    """Peak RSS since the last reset, or of finished children if higher."""
    with open("/proc/self/status") as f:
        own = next(int(line.split()[1]) for line in f
                   if line.startswith("VmHWM:"))
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # both in KiB


def environment(workload: Workload) -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "REPRO_STATE_BACKEND": os.environ.get("REPRO_STATE_BACKEND", ""),
        "default_backend": get_default_state_backend(),
        "auto_kernels": workload.kernels(),
    }


class SetupTimer:
    """Times set-ups of fresh workloads; ``setup_s`` is their median.

    The run's own set-up is timed, and an untraced run times one more
    after every unit, so the median samples the host over the whole run
    rather than one moment of it.  Every set-up builds a new workload
    object after a garbage collection, so none pays for freeing or
    scanning another's inputs.
    """

    def __init__(self, make: Callable[[Path], Workload],
                 spare_dir: Path) -> None:
        self.make = make
        self.spare_dir = spare_dir
        self.times: list[float] = []

    def setup(self, work_dir: Path) -> Workload:
        workload = self.make(work_dir)
        gc.collect()
        t0 = perf_counter()
        workload.setup()
        self.times.append(perf_counter() - t0)
        return workload

    def spare(self) -> None:
        """One more timed set-up, of a workload that is then dropped."""
        self.setup(self.spare_dir).close()


class Runner:
    """Runs units of one workload and applies the cross-unit checks."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.reference: dict[int, Any] = {}
        self.quality: dict[int, tuple[float, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def unit(self, instance: int, tracer: Tracer | None = None,
             run_id: int = 0) -> UnitRecord:
        """One unit on ``instance``; traced under ``run_id`` if a tracer."""
        w = self.workload
        try:
            w.prepare(instance)
            reset_peak_rss()
            probe_before = probe_s() + probe_s()
            if tracer is not None:
                tracer.run_id = run_id
            t0 = perf_counter()
            try:
                output = w.run(instance)
            finally:
                seconds = perf_counter() - t0
                peak_mb = peak_rss_mb()
                if tracer is not None:
                    tracer.run_id = -1
            probe_mean = (probe_before + probe_s() + probe_s()) / 4
            rec = w.finish(instance, output, seconds)
            rec.peak_rss_mb = peak_mb
            rec.probe_s = probe_mean
        except Exception as exc:  # the unit failed as a whole
            rec = UnitRecord(seconds=0.0, ops=0, latencies_ms=[],
                             attempted=1, failed=1,
                             problems=[f"{w.name} unit: {exc!r}"])
        if rec.digest is not None:
            ref = self.reference.setdefault(instance, rec.digest)
            if ref != rec.digest:
                rec.problems.append(
                    f"output differs from an earlier unit of instance "
                    f"{instance}"
                )
                rec.failed += 1
            self.quality.setdefault(instance, rec.quality)
        self.attempted += rec.attempted
        self.failed += min(rec.failed, rec.attempted)
        self.problems.extend(rec.problems)
        return rec

    def quality_metrics(self) -> dict[str, float]:
        """Means over instances: the per-instance values spread evenly,
        and their mean moves less across seeds than their median."""
        values = list(self.quality.values())
        return {
            "worth_frac": statistics.fmean(v[0] for v in values),
            "slackness": statistics.fmean(v[1] for v in values),
        }


def time_metrics(units: list[UnitRecord],
                 scale: list[float]) -> dict[str, float]:
    """The time metrics of ``units``, each unit's times times its scale.

    ``solve_s`` is the mean over the units and ``ops_per_s`` their total
    work over their total time: the instances differ in size, and a mean
    over all of them moves less across seeds than a median.
    """
    unit_s = [r.seconds * k for r, k in zip(units, scale)]
    latencies = [x * k for r, k in zip(units, scale) for x in r.latencies_ms]
    return {
        "solve_s": statistics.fmean(unit_s),
        "ops_per_s": sum(r.ops for r in units) / sum(unit_s),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8],
    }


def measure(runner: Runner, seconds: float,
            setup: SetupTimer) -> dict[str, float]:
    """Untraced units for ``seconds``: the end-to-end metrics.

    Times are in reference-host seconds: each unit's wall time, and its
    operations' latencies, times ``PROBE_REF_S`` over the probe time
    around that unit.  A unit that ran while the host was slow counts as
    the time it would have taken at the reference speed.  The plain
    wall-clock figures are printed alongside.
    """
    w = runner.workload
    units = []
    deadline = perf_counter() + seconds
    min_units = UNIT_MIN_ROUNDS * w.n_instances
    while len(units) < min_units or perf_counter() < deadline:
        units.append(runner.unit(len(units) % w.n_instances))
        setup.spare()
    timed = [r for r in units if r.seconds > 0]
    probes = [r.probe_s * 1e3 for r in timed]
    print(f"units: {len(timed)}  "
          f"op latency samples: {sum(len(r.latencies_ms) for r in timed)}  "
          f"host probe: median {statistics.median(probes):.1f} ms, "
          f"range {min(probes):.1f}-{max(probes):.1f} ms "
          f"(reference {PROBE_REF_S * 1e3:.1f} ms)")
    wall = time_metrics(timed, [1.0] * len(timed))
    print("wall clock: " + "  ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    return {
        "setup_s": statistics.median(setup.times),
        **time_metrics(timed, [PROBE_REF_S / r.probe_s for r in timed]),
        **runner.quality_metrics(),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in timed),
    }


def measure_traced(runner: Runner, seconds: float, setup: SetupTimer,
                   tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from pairs of untraced and traced units.

    Each pair runs one instance twice, first untraced and then traced,
    so the tracing overhead compares like with like.  The wrappers are
    installed around the traced unit only, so the untraced unit pays
    nothing for them.
    """
    w = runner.workload
    plain: list[UnitRecord] = []
    traced: list[UnitRecord] = []
    deadline = perf_counter() + seconds
    while len(traced) < TRACED_MIN_PAIRS or perf_counter() < deadline:
        instance = len(traced) % w.n_instances
        plain.append(runner.unit(instance))
        layers.install(tracer)
        try:
            traced.append(runner.unit(instance, tracer, run_id=len(traced)))
        finally:
            tracer.uninstall()
    runs = set(range(len(traced)))
    metrics = layers.span_metrics(tracer, runs)
    n = len(traced)
    traced_s = sum(r.seconds for r in traced) / n
    plain_s = sum(r.seconds for r in plain) / n
    metrics["trace.solve_s"] = traced_s
    metrics["trace.untraced_solve_s"] = plain_s
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    in_spans = tracer.self_times(runs)[2]  # = sum of all self times
    metrics["untraced.s"] = traced_s - in_spans / n

    metrics.update(
        w.layer_metrics([r.output for r in traced if r.output is not None],
                        setup.times, metrics)
    )
    # work a workload hands to pool workers is invisible to the parent's
    # wrappers: trace one inline pass of the same unit, which must give
    # an identical result
    tracer.reset()
    layers.install(tracer)
    tracer.run_id = INLINE_RUN
    t0 = perf_counter()
    try:
        inline = w.inline_pass()
    finally:
        inline_s = perf_counter() - t0
        tracer.run_id = -1
        tracer.uninstall()
    if inline is not None:
        if inline.signature() != runner.reference[0]:
            runner.problems.append("inline pass differs from pool solve")
            runner.failed += 1
        worker = layers.span_metrics(tracer, {INLINE_RUN})
        metrics["inline.solve_s"] = inline_s
        metrics.update({
            f"inline.{k}": worker[k] for k in layers.INLINE_METRICS
        })
    return metrics


def main(workload_name: str, seed: int, seconds: float, trace: bool,
         root: Path) -> int:
    declared = json.loads((root / "BENCHMARK.json").read_text())
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    work_dir = root / ".perfbench-work" / f"{workload_name}-{os.getpid()}"
    setup = SetupTimer(
        lambda d: WORKLOADS[workload_name](seed, d),
        work_dir.with_name(work_dir.name + "-setup"),
    )
    workload = setup.setup(work_dir)
    try:
        runner = Runner(workload)
        env = environment(workload)
        print("env: " + json.dumps(env, sort_keys=True))
        runner.unit(0)  # warm-up, and the reference output of instance 0
        if trace:
            tracer = Tracer()
            metrics = measure_traced(runner, seconds, setup, tracer)
        else:
            metrics = measure(runner, seconds, setup)
    finally:
        workload.close()

    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    for name, value in metrics.items():
        if value != value or value in (float("inf"), float("-inf")):
            runner.problems.append(f"metric {name} is {value}")
            runner.failed += 1
    correct = not runner.problems
    for problem in runner.problems:
        print(f"CHECK FAILED: {problem}")
    fail_frac = runner.failed / max(runner.attempted, 1)
    print(f"fail_frac: {fail_frac:.6f} ratio "
          f"({runner.failed} of {runner.attempted})")
    for name in units:
        print(f"{name}: {metrics.get(name, 0.0):.6g} {units[name]}")
    if trace:
        out = root / ".perfbench-out" / f"trace-{workload_name}-{seed}.npz"
        tracer.save(out, {"env": env, "metrics": metrics})
        print(f"spans: {len(tracer.start)} written to "
              f"{out.relative_to(root)}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1
