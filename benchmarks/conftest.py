"""Shared fixtures for the benchmark harness.

Every benchmark prints the rows/series of the corresponding paper table or
figure and wraps the headline computation in ``pytest-benchmark``.  The files
are named ``bench_*.py``, which pytest's default ``test_*.py`` pattern does
not collect, so ``pytest benchmarks/`` runs nothing: pass the files
explicitly, e.g. ``PYTHONPATH=src pytest benchmarks/bench_fig3_improvement_cdf.py
--benchmark-only``.  The performance gates (``bench_planner.py``,
``bench_exec_kernels.py``, ...) are scripts: run them with ``python``.

The workloads here are scaled down (both in data size and in number of
queries/executions) so the full suite completes in minutes on a laptop; the
*shape* of each result — who wins, by roughly what factor — is the
reproduction target, not the absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.core import BayesQOConfig, ExecutionServiceConfig, VAETrainingConfig
from repro.harness import prepare_schema_model
from repro.workloads import build_job_workload, build_stack_workload

#: Number of queries sampled from each workload for the comparison benches.
BENCH_QUERIES = 4
#: Per-query execution budget for the comparison benches.
BENCH_EXECUTIONS = 35
#: One-pass batch execution of each round's q proposals (shared join subtrees
#: execute once; traces stay bit-for-bit).  Benches that need per-plan
#: fan-out instead (CPU-burn wrappers) override this to False explicitly.
BENCH_BATCH_EXECUTION = True


@pytest.fixture(scope="session")
def job_workload():
    """Scaled-down JOB workload shared by most benches."""
    return build_job_workload(scale=0.15, seed=0, num_queries=40)


@pytest.fixture(scope="session")
def stack_workload():
    """Scaled-down Stack workload (used by the drift benches)."""
    return build_stack_workload(scale=0.08, seed=0, num_templates=8, num_queries=24)


@pytest.fixture(scope="session")
def job_schema_model(job_workload):
    """The per-schema VAE/latent space for the JOB workload (trained once)."""
    return prepare_schema_model(
        job_workload,
        VAETrainingConfig(training_steps=1600, corpus_queries=120, latent_dim=16, hidden_dim=192),
    )


@pytest.fixture(scope="session")
def bench_bayes_config():
    return BayesQOConfig(max_executions=BENCH_EXECUTIONS, num_candidates=96, seed=0)


@pytest.fixture
def bench_exec_config():
    """Baseline execution-service config for benches that drive a session.

    ``batch_execution`` is surfaced here so a bench can flip the one-pass
    q-batch grouping with a single override.  Note the fallback: at q=1
    (``batch_size=1``, the default) each round issues a single proposal, so
    there is nothing to group and submission stays per-request regardless of
    the knob.
    """
    return ExecutionServiceConfig(batch_execution=BENCH_BATCH_EXECUTION)
