"""The default query optimizer: a one-pass bitmask DP over every hint set.

This plays the role PostgreSQL's planner plays in the paper: it produces a
"reasonable but not globally optimal" plan for any query, quickly, from
statistics alone.  It supports Bao-style hint sets (restricting which join
operators and scan methods may be used), which is how both the Bao baseline
and BayesQO's initializer obtain their 49 candidate plans per query.

A hint set reaches the planner only through its *hint class*: the allowed
join operators, whether seq scans are allowed and whether index scans are.
The 49 Bao hint sets fall into 21 classes.  Planning is staged the way
PostBOUND stages it — join order first, operators second — so every class
shares one join-order enumeration.  For a query joining at most
:attr:`PlanOptimizer.dp_table_limit` tables one dynamic program solves every
class at once:

* each alias gets one bit, in sorted-alias order, and the DP enumerates only
  connected csg–cmp pairs (DPccp; Moerkotte & Neumann, VLDB 2006).  A pair's
  cardinalities, inner-index facts and three join costs are worked out once
  and shared by every class.  A query whose join graph is disconnected is
  solved over all subsets instead, with a cross join allowed only inside a
  subset that no join predicate can split;
* each subset keeps, per class, the candidate that is minimal by (cost, left
  submask, operator index) — the first strictly cheaper candidate in split
  order, also when every candidate costs infinity — as a back-pointer, and
  the join trees are built once at the end.

Above the table limit the optimizer falls back to a greedy constructive
search (the analogue of PostgreSQL's GEQO threshold), one class at a time.

Finished plans are memoized per optimizer, and so per :class:`Database`, in
a bounded LRU of :data:`PLAN_MEMO_CAPACITY` queries.  The key is the query's
content in its own alias, predicate and filter order, because greedy
tie-breaks and float products follow that order.  Every database built over
other data (a snapshot, drifted relations, an unpickled replica) builds a
new optimizer, so its memo starts empty.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.db.cardinality import MIN_ROWS, CardinalityEstimator
from repro.db.catalog import Schema
from repro.db.cost import CostParams, DEFAULT_COST_PARAMS, index_scan_cost, join_cost, seq_scan_cost
from repro.db.query import Query
from repro.db.statistics import TableStats
from repro.exceptions import PlanError, QueryError
from repro.plans.hints import DEFAULT_HINT_SET, HintSet, bao_hint_sets
from repro.plans.jointree import JOIN_OPS, JoinOp, JoinTree

#: Queries whose plans one optimizer keeps; each entry holds the plan of
#: every hint class.  The least recently planned query is evicted first.
PLAN_MEMO_CAPACITY = 512

#: (allowed join operators in ``JOIN_OPS`` order, seq scans allowed, index
#: scans allowed): everything the planner reads from a hint set.
HintClass = tuple[tuple[JoinOp, ...], bool, bool]


def hint_class(hint_set: HintSet) -> HintClass:
    """The planning problem ``hint_set`` poses; equal classes get equal plans."""
    return (
        tuple(op for op in JOIN_OPS if hint_set.allows_join(op)),
        hint_set.allows_seq_scan(),
        hint_set.allows_index_scan(),
    )


#: A representative hint set of every class a :class:`HintSet` can fall in:
#: the 49 Bao hint sets cover all 21 (7 operator subsets x 3 scan modes).
HINT_CLASSES: dict[HintClass, HintSet] = {
    hint_class(hint_set): hint_set for hint_set in reversed(bao_hint_sets())
}


@dataclass
class _PartialPlan:
    """Best plan found so far for one subset of aliases (greedy search)."""

    tree: JoinTree
    cost: float
    rows: float


class PlanOptimizer:
    """Cost-based plan search over join orders and physical operators."""

    def __init__(
        self,
        schema: Schema,
        stats: dict[str, TableStats],
        cost_params: CostParams = DEFAULT_COST_PARAMS,
        dp_table_limit: int = 10,
    ) -> None:
        self.schema = schema
        self.stats = stats
        self.estimator = CardinalityEstimator(stats)
        self.cost_params = cost_params
        self.dp_table_limit = dp_table_limit
        self._memo: OrderedDict[tuple, dict[HintClass, JoinTree]] = OrderedDict()
        self._memo_lock = threading.Lock()

    # ------------------------------------------------------------------ public API
    def plan(self, query: Query, hint_set: HintSet = DEFAULT_HINT_SET) -> JoinTree:
        """Return the optimizer's chosen join tree for ``query`` under ``hint_set``."""
        if query.num_tables == 0:
            raise QueryError(f"query {query.name!r} joins no tables")
        if query.num_tables == 1:
            return JoinTree.leaf(query.aliases[0])
        key = _query_key(query)
        with self._memo_lock:
            plans = self._memo.get(key)
            if plans is not None:
                self._memo.move_to_end(key)
        if plans is None:
            plans = self._dynamic_programming(query) if query.num_tables <= self.dp_table_limit else {}
            with self._memo_lock:
                self._memo[key] = plans
                while len(self._memo) > PLAN_MEMO_CAPACITY:
                    self._memo.popitem(last=False)
        problem = hint_class(hint_set)
        tree = plans.get(problem)
        if tree is None:
            # Above the DP limit each class is planned greedily on first use.
            tree = plans[problem] = self._greedy(query, hint_set)
        return tree

    def estimated_cost(self, query: Query, tree: JoinTree, hint_set: HintSet = DEFAULT_HINT_SET) -> float:
        """Estimated total cost of executing ``tree`` (scan costs included)."""
        tree.validate_for_query(query)
        total = 0.0
        for alias in tree.leaf_aliases():
            total += self._scan_cost(query, alias, hint_set)
        for node in tree.join_nodes():
            left = frozenset(node.left.leaf_aliases())  # type: ignore[union-attr]
            right = frozenset(node.right.leaf_aliases())  # type: ignore[union-attr]
            left_rows, right_rows, output_rows = self.estimator.estimate_join(query, left, right)
            total += self._join_cost(query, node.op, left, right, left_rows, right_rows, output_rows)
        return total

    # ------------------------------------------------------------------ cost helpers
    def _allowed_ops(self, hint_set: HintSet) -> list[JoinOp]:
        return [op for op in JOIN_OPS if hint_set.allows_join(op)]

    def _scan_cost(self, query: Query, alias: str, hint_set: HintSet) -> float:
        table = query.table_of(alias)
        table_rows = float(self.stats[table].num_rows)
        estimate = self.estimator.base_estimate(query, alias)
        indexed_filter = any(
            self.schema.has_index(table, flt.column) for flt in query.filters_for(alias)
        )
        index_cost = (
            index_scan_cost(table_rows, estimate.rows, self.cost_params)
            if indexed_filter and hint_set.allows_index_scan()
            else float("inf")
        )
        seq_cost = (
            seq_scan_cost(table_rows, self.cost_params)
            if hint_set.allows_seq_scan()
            else float("inf")
        )
        best = min(index_cost, seq_cost)
        if best == float("inf"):
            # The hint set disabled every applicable scan; fall back to a seq scan,
            # mirroring PostgreSQL's behaviour of treating enable_* as a soft penalty.
            best = seq_scan_cost(table_rows, self.cost_params) * 100.0
        return best

    def _inner_index_info(self, query: Query, right: frozenset[str]) -> tuple[bool, float]:
        """Whether the inner side is a single base table with an index on a join column."""
        if len(right) != 1:
            return False, 0.0
        alias = next(iter(right))
        table = query.table_of(alias)
        table_rows = float(self.stats[table].num_rows)
        for predicate in query.join_predicates:
            if predicate.left_alias == alias:
                column = predicate.left_column
            elif predicate.right_alias == alias:
                column = predicate.right_column
            else:
                continue
            if self.schema.has_index(table, column):
                return True, table_rows
        return False, table_rows

    def _join_cost(
        self,
        query: Query,
        op: JoinOp,
        left: frozenset[str],
        right: frozenset[str],
        left_rows: float,
        right_rows: float,
        output_rows: float,
    ) -> float:
        inner_indexed, inner_table_rows = self._inner_index_info(query, right)
        return join_cost(
            op,
            left_rows,
            right_rows,
            output_rows,
            inner_indexed=inner_indexed,
            inner_table_rows=inner_table_rows,
            params=self.cost_params,
        )

    # ------------------------------------------------------------------ DP search
    def _dynamic_programming(self, query: Query) -> dict[HintClass, JoinTree]:
        """Plan ``query`` under every hint class in one enumeration."""
        aliases = sorted(query.aliases)
        bit = {alias: 1 << i for i, alias in enumerate(aliases)}
        full = (1 << len(aliases)) - 1

        neighbours = [0] * (full + 1)
        for predicate in query.join_predicates:
            left, right = bit[predicate.left_alias], bit[predicate.right_alias]
            if left != right:
                neighbours[left] |= right
                neighbours[right] |= left
        for mask in range(3, full + 1):
            low = mask & -mask
            neighbours[mask] = neighbours[mask ^ low] | neighbours[low]
        for mask in range(1, full + 1):
            neighbours[mask] &= ~mask

        # Cardinalities, in CardinalityEstimator.estimate_subset's order: base
        # rows by ascending bit (= sorted alias), then predicates in query order.
        base_rows = [self.estimator.base_estimate(query, alias).rows for alias in aliases]
        factors = [
            (bit[p.left_alias] | bit[p.right_alias], self.estimator.predicate_selectivity(query, p))
            for p in query.join_predicates
        ]
        products = [1.0] * (full + 1)
        for mask in range(1, full + 1):
            top = mask.bit_length() - 1
            products[mask] = products[mask ^ (1 << top)] * base_rows[top]
        rows: dict[int, float] = {1 << i: base_rows[i] for i in range(len(aliases))}
        inner = {
            1 << i: self._inner_index_info(query, frozenset([alias]))
            for i, alias in enumerate(aliases)
        }

        # Classes with the same operators and the same scan costs are one problem;
        # scan costs depend only on the scan mode.
        scans_by_mode: dict[tuple[bool, bool], tuple[float, ...]] = {}
        problems: dict[tuple, list[HintClass]] = {}
        for problem, hint_set in HINT_CLASSES.items():
            mode = problem[1:]
            if mode not in scans_by_mode:
                scans_by_mode[mode] = tuple(
                    self._scan_cost(query, alias, hint_set) for alias in aliases
                )
            op_indices = tuple(JOIN_OPS.index(op) for op in problem[0])
            problems.setdefault((op_indices, scans_by_mode[mode]), []).append(problem)
        # Per problem: allowed operator indices, cost per subset, back-pointer per subset.
        solved = []
        for op_indices, scans in problems:
            cost = [0.0] * (full + 1)
            for i, scan in enumerate(scans):
                cost[1 << i] = scan
            solved.append((op_indices, cost, {}))

        connected = _reachable(neighbours, 1, full) == full
        pairs = _csg_cmp_pairs(neighbours, full) if connected else _all_splits(neighbours, full)
        for subset in sorted(pairs):
            rows_out = products[subset]
            for pair_mask, selectivity in factors:
                if pair_mask & subset == pair_mask:
                    rows_out *= selectivity
            rows_out = rows[subset] = max(rows_out, MIN_ROWS)
            splits = []
            for left in sorted(pairs[subset]):
                right = subset ^ left
                indexed, table_rows = inner.get(right, (False, 0.0))
                left_rows, right_rows = rows[left], rows[right]
                splits.append((left, right, tuple(
                    join_cost(op, left_rows, right_rows, rows_out, indexed, table_rows, self.cost_params)
                    for op in JOIN_OPS
                )))
            # Splits ascend by left submask and operators by index, so keeping
            # the first strictly cheaper candidate keeps the minimum by (cost,
            # left submask, operator) -- the first candidate if all are infinite.
            for op_indices, cost, choice in solved:
                best = winner = None
                for left, right, join_costs in splits:
                    both = cost[left] + cost[right]
                    for index in op_indices:
                        candidate = both + join_costs[index]
                        if winner is None or candidate < best:
                            best, winner = candidate, (left, index)
                cost[subset] = best
                choice[subset] = winner

        leaves = {1 << i: JoinTree.leaf(alias) for i, alias in enumerate(aliases)}

        def build(choice: dict, subset: int) -> JoinTree:
            if subset in leaves:
                return leaves[subset]
            left, index = choice[subset]
            return JoinTree.join(build(choice, left), build(choice, subset ^ left), JOIN_OPS[index])

        plans: dict[HintClass, JoinTree] = {}
        for (_, _, choice), classes in zip(solved, problems.values()):
            tree = build(choice, full)
            for problem in classes:
                plans[problem] = tree
        return plans

    # ------------------------------------------------------------------ greedy fallback
    def _greedy(self, query: Query, hint_set: HintSet) -> JoinTree:
        """Greedy constructive search used above the DP table limit."""
        allowed_ops = self._allowed_ops(hint_set)
        components: dict[frozenset[str], _PartialPlan] = {}
        for alias in query.aliases:
            subset = frozenset([alias])
            components[subset] = _PartialPlan(
                tree=JoinTree.leaf(alias),
                cost=self._scan_cost(query, alias, hint_set),
                rows=self.estimator.base_estimate(query, alias).rows,
            )
        while len(components) > 1:
            choice = self._cheapest_merge(query, components, allowed_ops, require_predicate=True)
            if choice is None:
                choice = self._cheapest_merge(query, components, allowed_ops, require_predicate=False)
            if choice is None:
                raise PlanError(f"greedy search failed for query {query.name!r}")
            left_key, right_key, plan = choice
            del components[left_key]
            del components[right_key]
            components[left_key | right_key] = plan
        return next(iter(components.values())).tree

    def _cheapest_merge(
        self,
        query: Query,
        components: dict[frozenset[str], _PartialPlan],
        allowed_ops: list[JoinOp],
        require_predicate: bool,
    ) -> tuple[frozenset[str], frozenset[str], _PartialPlan] | None:
        winner: tuple[frozenset[str], frozenset[str], _PartialPlan] | None = None
        keys = list(components)
        for i, left_key in enumerate(keys):
            for right_key in keys[i + 1 :]:
                if require_predicate and not query.predicates_between(set(left_key), set(right_key)):
                    continue
                rows = self.estimator.estimate_subset(query, left_key | right_key)
                left_plan = components[left_key]
                right_plan = components[right_key]
                for left, right, lp, rp in (
                    (left_key, right_key, left_plan, right_plan),
                    (right_key, left_key, right_plan, left_plan),
                ):
                    for op in allowed_ops:
                        cost = lp.cost + rp.cost + self._join_cost(
                            query, op, left, right, lp.rows, rp.rows, rows
                        )
                        if winner is None or cost < winner[2].cost:
                            winner = (
                                left,
                                right,
                                _PartialPlan(
                                    tree=JoinTree.join(lp.tree, rp.tree, op), cost=cost, rows=rows
                                ),
                            )
        return winner


def _query_key(query: Query) -> tuple:
    """The query's content in its own order (unlike the sorted ``query_fingerprint``)."""
    return (
        tuple(query.table_refs),
        tuple(query.join_predicates),
        tuple((flt.alias, flt.column, flt.op, repr(flt.value)) for flt in query.filters),
    )


def _submasks(mask: int):
    """Every non-empty submask of ``mask``."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _reachable(neighbours: list[int], start: int, within: int) -> int:
    """Aliases of ``within`` reachable from ``start`` along join predicates."""
    reached = start
    frontier = neighbours[reached] & within
    while frontier:
        reached |= frontier
        frontier = neighbours[reached] & within
    return reached


def _csg_cmp_pairs(neighbours: list[int], full: int) -> dict[int, list[int]]:
    """DPccp over a connected join graph: every csg–cmp pair, as left submasks per union.

    Each unordered pair of disjoint connected subsets joined by a predicate is
    enumerated once (Moerkotte & Neumann's EnumerateCsg / EnumerateCmp) and
    recorded in both orientations under the union of its two sides.
    """
    pairs: dict[int, list[int]] = {}

    def connected(start: int, excluded: int) -> list[int]:
        """``start`` and its connected supersets that avoid ``excluded`` (EnumerateCsgRec)."""
        found = [start]
        pending = [(start, excluded)]
        while pending:
            subset, excluded = pending.pop()
            frontier = neighbours[subset] & ~excluded
            for extension in _submasks(frontier):
                found.append(subset | extension)
                pending.append((subset | extension, excluded | frontier))
        return found

    for index in range(full.bit_length() - 1, -1, -1):
        node = 1 << index
        for csg in connected(node, (node << 1) - 1):
            low = csg & -csg
            excluded = ((low << 1) - 1) | csg
            frontier = neighbours[csg] & ~excluded
            for cmp_index in range(frontier.bit_length() - 1, -1, -1):
                cmp_node = 1 << cmp_index
                if frontier & cmp_node:
                    for cmp in connected(cmp_node, excluded | (frontier & ((cmp_node << 1) - 1))):
                        pairs.setdefault(csg | cmp, []).extend((csg, cmp))
    return pairs


def _all_splits(neighbours: list[int], full: int) -> dict[int, list[int]]:
    """Splits of every subset of a disconnected join graph, as left submasks per subset.

    A subset that some split can join with a predicate uses only such splits;
    any other subset may be split anywhere (a cross join).
    """
    pairs: dict[int, list[int]] = {}
    for subset in range(1, full + 1):
        if subset & (subset - 1) == 0:
            continue
        splits = [left for left in _submasks(subset) if left != subset]
        joined = [left for left in splits if neighbours[left] & (subset ^ left)]
        pairs[subset] = joined or splits
    return pairs
