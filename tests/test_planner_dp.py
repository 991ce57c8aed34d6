"""The bitmask planner against the per-hint-set reference DP, and its plan memo.

``planner_reference.reference_plan`` is the frozenset DP the one-pass planner
replaced; every test here asks for the same plan, operator for operator, for
every Bao hint set.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from planner_reference import reference_plan
from repro.db import optimizer as optimizer_module
from repro.db.optimizer import (
    HINT_CLASSES,
    PLAN_MEMO_CAPACITY,
    PlanOptimizer,
    _csg_cmp_pairs,
    _query_key,
    hint_class,
)
from repro.db.plan_cache import query_fingerprint
from repro.db.query import FilterPredicate, JoinPredicate, Query, TableRef
from repro.plans.hints import bao_hint_sets
from repro.workloads import build_dsb_workload, build_job_workload, build_stack_workload
from repro.workloads.drift import rollback_to_date

HINT_SETS = bao_hint_sets()
SRC = Path(__file__).resolve().parents[1] / "src"

#: Columns of the tiny schema that predicates and filters draw from.
_TINY_COLUMNS = {
    "orders": ["id", "customer_id", "product_id", "quantity"],
    "customer": ["id", "region", "segment"],
    "product": ["id", "category", "price"],
    "shipment": ["id", "order_id", "carrier"],
}


def _edges(topology: str, n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    if topology == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if topology == "star":
        return [(0, i) for i in range(1, n)]
    if topology == "cycle":
        return [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    if topology == "clique":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    # disconnected: a random forest over the first part, the rest isolated or paired
    cut = max(1, n // 2)
    edges = [(int(rng.integers(0, i)), i) for i in range(1, cut)]
    edges += [(i, i + 1) for i in range(cut, n - 1, 2)]
    return edges


def _random_query(topology: str, n: int, seed: int, self_join: bool = False) -> Query:
    rng = np.random.default_rng(seed)
    tables = ["orders"] * n if self_join else [str(t) for t in rng.choice(list(_TINY_COLUMNS), n)]
    counts: dict[str, int] = {}
    refs = []
    for table in tables:
        counts[table] = counts.get(table, 0) + 1
        refs.append(TableRef(f"{table}#{counts[table]}", table))
    order = rng.permutation(n)
    refs = [refs[i] for i in order]

    def column(table: str) -> str:
        return "id" if self_join else str(rng.choice(_TINY_COLUMNS[table]))

    predicates = [
        JoinPredicate(refs[i].alias, column(refs[i].table), refs[j].alias, column(refs[j].table))
        for i, j in _edges(topology, n, rng)
    ]
    filters = []
    for ref in refs:
        if self_join:
            filters.append(FilterPredicate(ref.alias, "quantity", "=", 3))
        elif rng.random() < 0.5:
            filters.append(
                FilterPredicate(ref.alias, column(ref.table), "<=", int(rng.integers(1, 50)))
            )
    return Query(f"{topology}{n}_{seed}", refs, predicates, filters)


def _assert_matches_reference(optimizer: PlanOptimizer, query: Query) -> None:
    for hint_set in HINT_SETS:
        got = optimizer.plan(query, hint_set)
        want = reference_plan(optimizer, query, hint_set)
        assert got.canonical() == want.canonical(), (query.name, hint_set.name)


@pytest.fixture()
def optimizer(tiny_database):
    return PlanOptimizer(tiny_database.schema, tiny_database.stats)


class TestDifferential:
    @pytest.mark.parametrize(
        "topology,n",
        [("chain", 2), ("chain", 8), ("star", 5), ("star", 7), ("cycle", 3), ("cycle", 6),
         ("clique", 4), ("clique", 6), ("disconnected", 2), ("disconnected", 4),
         ("disconnected", 6)],
    )
    def test_random_join_graphs(self, optimizer, topology, n):
        for seed in range(2):
            _assert_matches_reference(optimizer, _random_query(topology, n, seed))

    @pytest.mark.parametrize("topology,n", [("star", 6), ("cycle", 5), ("clique", 5), ("disconnected", 6)])
    def test_self_joins_break_exact_ties_like_the_reference(self, optimizer, topology, n):
        _assert_matches_reference(optimizer, _random_query(topology, n, 0, self_join=True))

    def test_greedy_above_table_limit(self, tiny_database):
        optimizer = PlanOptimizer(tiny_database.schema, tiny_database.stats, dp_table_limit=4)
        for topology in ("chain", "clique", "disconnected"):
            _assert_matches_reference(optimizer, _random_query(topology, 6, 3))

    @pytest.mark.parametrize(
        "build,kwargs,name",
        [
            (build_job_workload, dict(scale=0.15, seed=0, num_queries=40), "JOB_5a"),
            (build_stack_workload, dict(scale=0.02, seed=0, num_templates=4, num_queries=4), "STACK_Q2-001"),
            (build_dsb_workload, dict(scale=0.02, seed=0, num_templates=4, queries_per_template=1), "DSB_spj_02_1"),
        ],
    )
    def test_workload_queries(self, build, kwargs, name):
        workload = build(**kwargs)
        query = next(q for q in workload.queries if q.name == name)
        _assert_matches_reference(workload.database.optimizer, query)

    @pytest.mark.parametrize("topology,n", [("chain", 6), ("star", 7), ("cycle", 6), ("clique", 6)])
    def test_pairs_are_every_csg_cmp_pair_once(self, topology, n):
        edges = _edges(topology, n, np.random.default_rng(0))
        full = (1 << n) - 1
        neighbours = [0] * (full + 1)
        for mask in range(1, full + 1):
            for i, j in edges:
                if mask >> i & 1 and not mask >> j & 1:
                    neighbours[mask] |= 1 << j
                if mask >> j & 1 and not mask >> i & 1:
                    neighbours[mask] |= 1 << i

        def connected(mask: int) -> bool:
            reached = mask & -mask
            while True:
                grown = reached | (neighbours[reached] & mask)
                if grown == reached:
                    return reached == mask
                reached = grown

        want = {
            (left, subset ^ left)
            for subset in range(1, full + 1)
            for left in range(1, subset)
            if left & subset == left
            and connected(left)
            and connected(subset ^ left)
            and neighbours[left] & (subset ^ left)
        }
        got = [(left, subset ^ left) for subset, lefts in _csg_cmp_pairs(neighbours, full).items()
               for left in lefts]
        assert len(got) == len(set(got))
        assert set(got) == want


class TestHintClasses:
    def test_bao_hint_sets_cover_the_21_classes(self):
        assert len(HINT_CLASSES) == 21
        assert {hint_class(hint_set) for hint_set in HINT_SETS} == set(HINT_CLASSES)

    def test_one_dp_serves_every_hint_set(self, optimizer, tiny_query, monkeypatch):
        calls = []
        solve = PlanOptimizer._dynamic_programming
        monkeypatch.setattr(
            PlanOptimizer, "_dynamic_programming",
            lambda self, query: calls.append(query.name) or solve(self, query),
        )
        for hint_set in HINT_SETS:
            optimizer.plan(tiny_query, hint_set)
        assert calls == [tiny_query.name]


class TestPlanMemo:
    def test_hit_returns_the_identical_tree(self, optimizer, tiny_query):
        first = optimizer.plan(tiny_query, HINT_SETS[5])
        assert optimizer.plan(tiny_query, HINT_SETS[5]) is first
        greedy = PlanOptimizer(optimizer.schema, optimizer.stats, dp_table_limit=2)
        assert greedy.plan(tiny_query) is greedy.plan(tiny_query)

    def test_database_plan_validates_on_every_call(self, tiny_database, tiny_query, monkeypatch):
        validated = []
        original = Query.validate_against
        monkeypatch.setattr(
            Query, "validate_against",
            lambda self, schema: validated.append(self.name) or original(self, schema),
        )
        database = tiny_database.snapshot()
        database.plan(tiny_query)
        database.plan(tiny_query)
        assert validated == [tiny_query.name] * 2

    def test_derived_databases_start_empty(self, tiny_database, tiny_query):
        database = tiny_database.snapshot()
        database.plan(tiny_query)
        assert database.optimizer._memo
        assert not database.snapshot().optimizer._memo
        assert not database.with_relations(dict(database.relations)).optimizer._memo
        assert not rollback_to_date(database, cutoff=500, date_column="order_date").optimizer._memo

    def test_memo_is_not_pickled(self, tiny_database, tiny_query):
        database = tiny_database.snapshot()
        before = pickle.dumps(database)
        database.plan(tiny_query)
        assert pickle.dumps(database) == before
        assert not pickle.loads(before).optimizer._memo

    def test_alias_order_is_part_of_the_key(self, optimizer, tiny_query):
        reordered = Query(
            tiny_query.name, list(reversed(tiny_query.table_refs)),
            tiny_query.join_predicates, tiny_query.filters,
        )
        assert query_fingerprint(reordered) == query_fingerprint(tiny_query)
        assert _query_key(reordered) != _query_key(tiny_query)
        optimizer.plan(tiny_query)
        optimizer.plan(reordered)
        assert len(optimizer._memo) == 2

    def test_capacity_is_bounded_lru(self, optimizer, tiny_query, monkeypatch):
        assert isinstance(PLAN_MEMO_CAPACITY, int) and PLAN_MEMO_CAPACITY > 0
        monkeypatch.setattr(optimizer_module, "PLAN_MEMO_CAPACITY", 3)
        queries = [
            Query(f"q{value}", tiny_query.table_refs, tiny_query.join_predicates,
                  [FilterPredicate("customer#1", "region", "=", value)])
            for value in range(5)
        ]
        for query in queries[:3]:
            optimizer.plan(query)
        optimizer.plan(queries[0])  # refreshes q0, so q1 is the least recent
        for query in queries[3:]:
            optimizer.plan(query)
            assert len(optimizer._memo) <= 3
        assert set(optimizer._memo) == {_query_key(q) for q in (queries[0], queries[3], queries[4])}


@pytest.mark.slow
def test_plan_does_not_depend_on_the_hash_seed():
    """JOB_5a ties exactly under merge+nl/seq; the tie once followed set order.

    The script also prints the estimator's cardinality of every alias subset
    (the reference DP and the greedy fallback use it), bit for bit.
    """
    script = (
        "from itertools import combinations\n"
        "from repro.workloads import build_job_workload\n"
        "from repro.plans.hints import hint_set_by_name\n"
        "workload = build_job_workload(scale=0.15, seed=0, num_queries=40)\n"
        "query = next(q for q in workload.queries if q.name == 'JOB_5a')\n"
        "hint_set = hint_set_by_name('joins[merge+nl]/scans[seq]')\n"
        "print(workload.database.plan(query, hint_set).canonical())\n"
        "estimator = workload.database.optimizer.estimator\n"
        "print([estimator.estimate_subset(query, frozenset(subset)).hex()\n"
        "       for size in range(2, query.num_tables + 1)\n"
        "       for subset in combinations(query.aliases, size)])\n"
    )
    plans = set()
    for hash_seed in ("0", "10", "27"):
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}, check=True,
        )
        plans.add(result.stdout)
    assert len(plans) == 1
