"""Benchmarks of the LP upper-bound substrate.

The paper's Lingo runs solved the full-scale LP in under two seconds;
these benchmarks track our HiGHS substitute at two scales plus the
in-house dense simplex on a small instance (the cross-validation
reference).
"""

from __future__ import annotations

import pytest

from repro.lp import build_upper_bound_lp, solve_dense_lp, upper_bound
from repro.workload import SCENARIO_1, SCENARIO_3, generate_model


@pytest.fixture(scope="module")
def small_model():
    return generate_model(
        SCENARIO_1.scaled(n_strings=20, n_machines=4), seed=3
    )


def test_lp_build_small(benchmark, small_model):
    problem = benchmark(build_upper_bound_lp, small_model, "partial")
    assert problem.n_vars > 0


def test_lp_solve_highs_small(benchmark, small_model):
    result = benchmark(upper_bound, small_model, "partial")
    assert result.value > 0


def test_lp_solve_simplex_tiny(benchmark):
    model = generate_model(
        SCENARIO_1.scaled(n_strings=4, n_machines=3), seed=4
    )
    problem = build_upper_bound_lp(model, objective="partial")
    x = benchmark.pedantic(
        lambda: solve_dense_lp(problem), rounds=1, iterations=1
    )
    reference = upper_bound(model, objective="partial")
    assert float(problem.c @ x) == pytest.approx(reference.value, rel=1e-6)


def test_lp_solve_complete_scenario3(benchmark):
    """Scenario-3 slackness bound at the paper's 25-string size."""
    model = generate_model(SCENARIO_3, seed=5)
    result = benchmark.pedantic(
        lambda: upper_bound(model, objective="complete"),
        rounds=1,
        iterations=1,
    )
    assert 0.0 < result.value <= 1.0
