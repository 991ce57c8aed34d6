"""Reference planner: the per-hint-set frozenset DP the bitmask planner replaced.

:func:`reference_plan` plans one ``(query, hint set)`` the slow, obvious way:
for every subset of aliases (in ``itertools.combinations`` order) it tries
every split, by mask over the subset's sorted aliases, and keeps the first
strictly cheaper candidate, operators in ``JOIN_OPS`` order.  Cross joins are
allowed only where the join graph forces them.  It shares the optimizer's
cost helpers and greedy fallback, so a differential test against it checks
the enumeration, the tie-breaking and the hint handling of
:meth:`repro.db.optimizer.PlanOptimizer.plan`.

The tests and ``benchmarks/bench_planner.py`` use it as their oracle; it is
not part of the shipped package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.db.optimizer import PlanOptimizer
from repro.db.query import Query
from repro.exceptions import QueryError
from repro.plans.hints import HintSet
from repro.plans.jointree import JOIN_OPS, JoinOp, JoinTree


@dataclass
class _PartialPlan:
    tree: JoinTree
    cost: float
    rows: float


def reference_plan(optimizer: PlanOptimizer, query: Query, hint_set: HintSet) -> JoinTree:
    """The plan ``optimizer`` must return for ``query`` under ``hint_set``."""
    if query.num_tables == 0:
        raise QueryError(f"query {query.name!r} joins no tables")
    if query.num_tables == 1:
        return JoinTree.leaf(query.aliases[0])
    if query.num_tables <= optimizer.dp_table_limit:
        return _dynamic_programming(optimizer, query, hint_set)
    return optimizer._greedy(query, hint_set)


def _dynamic_programming(optimizer: PlanOptimizer, query: Query, hint_set: HintSet) -> JoinTree:
    aliases = query.aliases
    allowed_ops = [op for op in JOIN_OPS if hint_set.allows_join(op)]
    best: dict[frozenset[str], _PartialPlan] = {}
    for alias in aliases:
        best[frozenset([alias])] = _PartialPlan(
            tree=JoinTree.leaf(alias),
            cost=optimizer._scan_cost(query, alias, hint_set),
            rows=optimizer.estimator.base_estimate(query, alias).rows,
        )
    connected = query.is_connected()
    for size in range(2, len(aliases) + 1):
        for subset in _subsets_of_size(aliases, size):
            candidate = _best_split(optimizer, query, subset, best, allowed_ops, require_predicate=True)
            if candidate is None and (not connected or size == len(aliases)):
                # Allow cross joins only when the join graph forces them.
                candidate = _best_split(
                    optimizer, query, subset, best, allowed_ops, require_predicate=False
                )
            if candidate is not None:
                best[subset] = candidate
    full = frozenset(aliases)
    if full not in best:
        return optimizer._greedy(query, hint_set)
    return best[full].tree


def _best_split(
    optimizer: PlanOptimizer,
    query: Query,
    subset: frozenset[str],
    best: dict[frozenset[str], _PartialPlan],
    allowed_ops: list[JoinOp],
    require_predicate: bool,
) -> _PartialPlan | None:
    winner: _PartialPlan | None = None
    rows = optimizer.estimator.estimate_subset(query, subset)
    for left in _proper_subsets(subset):
        right = subset - left
        left_plan = best.get(left)
        right_plan = best.get(right)
        if left_plan is None or right_plan is None:
            continue
        if require_predicate and not query.predicates_between(set(left), set(right)):
            continue
        for op in allowed_ops:
            cost = (
                left_plan.cost
                + right_plan.cost
                + optimizer._join_cost(query, op, left, right, left_plan.rows, right_plan.rows, rows)
            )
            if winner is None or cost < winner.cost:
                winner = _PartialPlan(
                    tree=JoinTree.join(left_plan.tree, right_plan.tree, op), cost=cost, rows=rows
                )
    return winner


def _subsets_of_size(aliases: list[str], size: int):
    for combo in combinations(aliases, size):
        yield frozenset(combo)


def _proper_subsets(subset: frozenset[str]):
    items = sorted(subset)
    n = len(items)
    for mask in range(1, (1 << n) - 1):
        yield frozenset(items[i] for i in range(n) if mask & (1 << i))
