"""Shared fixtures for the benchmark harness.

The expensive part — profiling, compiling and executing all 17 programs
under local/ideal/fast/slow — runs once per pytest session and is shared by
every table/figure benchmark through :func:`repro.eval.evaluate_suite`'s
cache.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.eval import evaluate_suite
from repro.workloads import workload


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ is a paper-evaluation run, distinct
    from the fast unit tests in tests/ — mark it so `-m paper_eval` (or
    `-m 'not paper_eval'` in a mixed invocation) can select on it."""
    for item in items:
        item.add_marker(pytest.mark.paper_eval)


@pytest.fixture(scope="session")
def suite():
    """All 17 SPEC-like programs, fully evaluated (cached)."""
    return evaluate_suite(verbose=True)


@pytest.fixture(scope="session")
def games(suite):
    return {name: suite[name] for name in ("458.sjeng", "445.gobmk")}


def build_on_profiling_input(name, compiler_options=None):
    """A registry program built and then *evaluated* on its smaller
    profiling input — for the ablations and sweeps that run one program
    under many session variants."""
    spec = workload(name)
    return dataclasses.replace(
        spec, eval_stdin=spec.profile_stdin,
        eval_files=spec.profile_files).build(compiler_options)


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a regeneration step exactly once (simulation results are
    deterministic; repeated rounds add nothing)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)
