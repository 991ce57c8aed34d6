"""Planner benchmark: the one-pass bitmask DP against the per-hint-set reference DP.

BayesQO's default initializer, Bao, LimeQO and the VAE corpus all ask the
default optimizer for hinted plans, so the planner runs on every path of a
paper-shaped run.  This bench keeps the slow reference planner of
``tests/planner_reference.py`` as its oracle arm and gates two claims:

* **identical plans** — for every (query, hint set) on JOB (40 queries,
  scale 0.15), Stack (scale 0.05), DSB (scale 0.1) and sampled VAE-corpus
  queries, :meth:`PlanOptimizer.plan` returns the oracle's plan, operator for
  operator;
* **bao_init_speedup_ratio** — :func:`bao_initialization` over the JOB
  queries (49 hint sets each, cold plan memo) is at least
  ``REQUIRED_SPEEDUP`` times faster than with the oracle planner.

Each timed arm starts from an empty plan memo, so a query's first hint set
pays for the enumeration that serves its other 48.

Run:  PYTHONPATH=src python benchmarks/bench_planner.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from planner_reference import reference_plan  # noqa: E402

from repro.core.initialization import bao_initialization  # noqa: E402
from repro.db.optimizer import PlanOptimizer  # noqa: E402
from repro.plans.hints import bao_hint_sets  # noqa: E402
from repro.utils import get_logger  # noqa: E402
from repro.vae.dataset import diversification_hint_sets  # noqa: E402
from repro.workloads import (  # noqa: E402
    build_dsb_workload,
    build_job_workload,
    build_stack_workload,
)
from repro.workloads.generator import RandomQuerySampler  # noqa: E402

REQUIRED_SPEEDUP = 10.0
#: (JOB queries, Stack queries, DSB queries, corpus queries) per mode.
FULL_SIZES = (40, 12, 90, 60)
SMOKE_SIZES = (4, 4, 12, 10)


class _Planner:
    """The one method of :class:`Database` that ``bao_initialization`` calls."""

    def __init__(self, plan) -> None:
        self.plan = plan


def _fresh(optimizer: PlanOptimizer) -> PlanOptimizer:
    """An optimizer over the same statistics with an empty plan memo."""
    return PlanOptimizer(optimizer.schema, optimizer.stats, optimizer.cost_params)


def compare(optimizer: PlanOptimizer, queries, hint_sets) -> dict:
    """Time both planners over every (query, hint set) and count plan mismatches."""
    planner = _fresh(optimizer)
    start = time.perf_counter()
    planned = [[planner.plan(query, hint_set) for hint_set in hint_sets] for query in queries]
    planner_s = time.perf_counter() - start
    start = time.perf_counter()
    oracle = [[reference_plan(optimizer, query, hint_set) for hint_set in hint_sets]
              for query in queries]
    oracle_s = time.perf_counter() - start
    mismatches = [
        f"{query.name} {hint_set.name}"
        for query, got_row, want_row in zip(queries, planned, oracle)
        for hint_set, got, want in zip(hint_sets, got_row, want_row)
        if got.canonical() != want.canonical()
    ]
    return {
        "queries": len(queries),
        "pairs": len(queries) * len(hint_sets),
        "mismatches": mismatches,
        "planner_s": planner_s,
        "oracle_s": oracle_s,
        "speedup_ratio": oracle_s / planner_s if planner_s > 0 else float("inf"),
    }


def bao_init(optimizer: PlanOptimizer, queries) -> dict:
    """Time ``bao_initialization`` over ``queries`` with each planner.

    The oracle arm records its plan for every (query, hint set); the planner
    arm's plans are read back from its (now warm) memo and compared.
    """
    hint_sets = bao_hint_sets()
    planner = _fresh(optimizer)
    start = time.perf_counter()
    for query in queries:
        bao_initialization(_Planner(planner.plan), query)
    planner_s = time.perf_counter() - start

    oracle: dict[tuple[str, str], object] = {}

    def oracle_plan(query, hint_set):
        plan = oracle[query.name, hint_set.name] = reference_plan(optimizer, query, hint_set)
        return plan

    start = time.perf_counter()
    for query in queries:
        bao_initialization(_Planner(oracle_plan), query)
    oracle_s = time.perf_counter() - start
    mismatches = [
        f"{query.name} {hint_set.name}"
        for query in queries
        for hint_set in hint_sets
        if planner.plan(query, hint_set).canonical() != oracle[query.name, hint_set.name].canonical()
    ]
    return {
        "queries": len(queries),
        "pairs": len(queries) * len(hint_sets),
        "mismatches": mismatches,
        "planner_s": planner_s,
        "oracle_s": oracle_s,
        "speedup_ratio": oracle_s / planner_s if planner_s > 0 else float("inf"),
    }


def run_benchmark(smoke: bool) -> dict:
    job_n, stack_n, dsb_n, corpus_n = SMOKE_SIZES if smoke else FULL_SIZES
    hint_sets = bao_hint_sets()
    job = build_job_workload(scale=0.15, seed=0, num_queries=job_n)
    stack = build_stack_workload(scale=0.05, seed=0, num_queries=stack_n)
    dsb = build_dsb_workload(scale=0.1, seed=0)
    sampler = RandomQuerySampler(
        job.database.schema, max_aliases=2, relations=job.database.relations,
        min_tables=3, max_tables=12,
    )
    corpus = sampler.sample(corpus_n, seed=0)
    workloads = {
        "job_bao_init": bao_init(job.database.optimizer, job.queries),
        "stack": compare(stack.database.optimizer, stack.queries, hint_sets),
        "dsb": compare(dsb.database.optimizer, dsb.queries[:dsb_n], hint_sets),
        "vae_corpus": compare(job.database.optimizer, corpus, diversification_hint_sets()),
    }
    return {
        "smoke": smoke,
        "workloads": workloads,
        "pairs": sum(section["pairs"] for section in workloads.values()),
        "mismatches": sum(len(section["mismatches"]) for section in workloads.values()),
        "bao_init_speedup_ratio": workloads["job_bao_init"]["speedup_ratio"],
        "required_speedup": REQUIRED_SPEEDUP,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="fewer queries (CI smoke mode)")
    parser.add_argument("--json", metavar="PATH", help="write the result breakdown to PATH")
    args = parser.parse_args(argv)

    report = run_benchmark(args.smoke)
    print(f"planner vs reference DP ({'smoke' if args.smoke else 'full'})")
    for name, section in report["workloads"].items():
        print(
            f"  {name:<13} {section['queries']:>3} queries {section['pairs']:>5} pairs  "
            f"planner {section['planner_s']:7.3f} s  oracle {section['oracle_s']:8.2f} s  "
            f"x{section['speedup_ratio']:6.1f}  mismatches {len(section['mismatches'])}"
        )
    print(
        f"  bao_initialization speedup {report['bao_init_speedup_ratio']:.1f}x "
        f"(gate >= {REQUIRED_SPEEDUP}x); identical plans on "
        f"{report['pairs'] - report['mismatches']}/{report['pairs']} pairs"
    )

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        get_logger("bench").info("wrote %s", args.json)

    failures = []
    for name, section in report["workloads"].items():
        for pair in section["mismatches"][:5]:
            failures.append(f"{name}: plan differs from the reference for {pair}")
    if report["bao_init_speedup_ratio"] < REQUIRED_SPEEDUP:
        failures.append(
            f"bao_initialization speedup {report['bao_init_speedup_ratio']:.1f}x below the "
            f"required {REQUIRED_SPEEDUP}x"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
