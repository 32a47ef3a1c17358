"""repro — reproduction of *Resource Allocation for Periodic Applications
in a Shipboard Environment* (Shestak, Chong, Maciejewski, Siegel,
Benmohamed, Wang, Daley — IPPS 2005).

The library implements the paper's Total Ship Computing Environment
model, its two-stage allocation feasibility analysis, the four proposed
mapping heuristics (MWF, TF, PSG, Seeded PSG built on the Incremental
Mapping Routine), the fractional-mapping LP upper bound, the synthetic
workload generator behind the paper's three evaluation scenarios, and a
discrete-event simulator validating the analytic timing model.

Quickstart
----------
>>> from repro import workload, heuristics
>>> model = workload.generate_model(workload.SCENARIO_3, seed=0)
>>> result = heuristics.most_worth_first(model)
>>> result.fitness.worth > 0
True

See ``examples/`` for complete scenarios and ``DESIGN.md`` for the
paper-to-module map.
"""

from . import (
    analysis,
    core,
    des,
    dynamic,
    experiments,
    genitor,
    heuristics,
    io_utils,
    lp,
    robustness,
    service,
    workload,
)
from ._version import __version__
from .core import (
    Allocation,
    AllocationState,
    AppString,
    Fitness,
    Network,
    SystemModel,
    analyze,
    is_feasible,
)

__all__ = [
    "Allocation",
    "AllocationState",
    "AppString",
    "Fitness",
    "Network",
    "SystemModel",
    "__version__",
    "analysis",
    "analyze",
    "core",
    "des",
    "dynamic",
    "experiments",
    "genitor",
    "heuristics",
    "io_utils",
    "is_feasible",
    "lp",
    "robustness",
    "service",
    "workload",
]
