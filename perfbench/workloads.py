"""The three benchmark workloads: set-up, timed phase, checks and metrics.

Every workload is built from the benchmark seed alone.  The data, the query
slices and the optimizers' own RNG seeds are fixed (seed 0, the setting of
the paper-figure benches), so every seed asks the optimizer for the same
amount of work.  The seed drives the simulated DBMS's latency noise (the
log-normal factor every execution's latency carries, fixed per plan) and,
for the plan-serving stream, which query each arrival asks for.  A seed
thereby changes the latencies the optimizers observe and the decisions they
take, without turning a run into a different workload.

``run`` is the timed phase.  ``evaluate`` runs after it, outside the timing:
it computes the default-plan baselines and asserts the correctness checks,
raising :class:`CheckFailed` on the first violation.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

from repro.baselines.random_search import RandomSearch
from repro.core import BayesQOConfig, ExecutionServiceConfig, VAETrainingConfig
from repro.core.optimizer import BayesQO
from repro.db.engine import Database
from repro.harness import BudgetSpec, WorkloadSession
from repro.obs import Tracer
from repro.serve import (
    DriftEvent,
    PlanServer,
    ServeConfig,
    TrafficConfig,
    TrafficGenerator,
    drive_stream,
)
from repro.workloads import build_job_workload
from repro.workloads.drift import rollback_to_date
from repro.workloads.imdb import build_imdb_database
from repro.workloads.stack import STACK_DATE_2017, build_stack_database, build_stack_workload

#: JOB queries of the offline workloads.  Fixed, never filtered by health:
#: ``JOB_1b`` is kept although none of its plans completes.
JOB_OFFLINE_QUERIES = ("JOB_1a", "JOB_1b", "JOB_2a")
JOB_RANDOM_QUERIES = ("JOB_1a", "JOB_1b", "JOB_2a", "JOB_2c", "JOB_3a", "JOB_4b")
JOB_SCALE = 0.15
JOB_NUM_QUERIES = 40
EXECUTIONS_PER_QUERY = 35
#: Schema-model training of ``job_offline`` (latent and hidden sizes of the
#: paper-figure benches; corpus and step counts cut to fit a repetition).
VAE_CORPUS_QUERIES = 60
VAE_TRAINING_STEPS = 600
BAYESQO_CANDIDATES = 96
RANDOM_Q = 4
PROCESS_WORKERS = 2

STACK_SCALE = 0.05
STACK_TEMPLATES = 8
STACK_BUILT_QUERIES = 12
#: The stream's queries, hottest first.  STACK_Q1-002 runs in 3 s on the
#: pre-drift data and censors at 600 s on the post-drift data.
STACK_QUERIES = ("STACK_Q1-002", "STACK_Q1-001", "STACK_Q2-001", "STACK_Q4-001")
STREAM_ARRIVALS = 1200
#: Latency SLO of the server.  Only STACK_Q1-002 violates it, so the hottest
#: query keeps earning re-optimization, which spreads maintenance stalls (and
#: the fast-path serves between them) over the whole stream.
STREAM_SLO = 1.0
MAINTENANCE_EVERY = 25
MAINTENANCE_BUDGET = 16
#: Log-normal sigma of the simulated latency noise, seeded by the benchmark seed.
LATENCY_NOISE = 0.05
#: Timeout of every execution the checks and baselines run.
CHECK_TIMEOUT = 600.0


class CheckFailed(AssertionError):
    """A correctness check of the benchmark failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def fresh_snapshot(database):
    """A read snapshot of ``database`` with the execution cache off."""
    snapshot = database.snapshot()
    snapshot.set_execution_cache(False)
    return snapshot


def noisy(database, seed: int):
    """``database``'s data behind an executor whose latency noise is seeded by ``seed``."""
    return Database(database.schema, database.relations, noise_sigma=LATENCY_NOISE, seed=seed)


def gmean(values: list[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


class Probe:
    """Always-on observer of a technique's ask/tell calls.

    Counts proposals issued and records the outcomes observed per query, and
    the time each query's optimization finished (the offline workloads'
    arrival: a query's optimized plan reaching the user).
    """

    def __init__(self, technique_cls) -> None:
        self.issued: dict[str, int] = defaultdict(int)
        self.outcomes: dict[str, list[tuple]] = defaultdict(list)
        self.finished: dict[str, float] = {}
        self._depth = 0
        probe = self

        def ask(original):
            def wrapper(self_, state, *args, **kwargs):
                # suggest_batch(q=1) delegates to suggest: count the outer call.
                probe._depth += 1
                try:
                    result = original(self_, state, *args, **kwargs)
                finally:
                    probe._depth -= 1
                if not probe._depth:
                    proposals = result if isinstance(result, list) else [result]
                    probe.issued[state.query.name] += sum(p is not None for p in proposals)
                return result
            return wrapper

        def tell(original):
            def wrapper(self_, state, outcome, *args, **kwargs):
                result = original(self_, state, outcome, *args, **kwargs)
                probe.outcomes[state.query.name].append((outcome.latency, outcome.timed_out))
                return result
            return wrapper

        def finish(original):
            def wrapper(self_, state, *args, **kwargs):
                result = original(self_, state, *args, **kwargs)
                probe.finished[state.query.name] = time.perf_counter()
                return result
            return wrapper

        for name, make in (
            ("suggest", ask), ("suggest_batch", ask), ("observe", tell), ("finish", finish)
        ):
            setattr(technique_cls, name, make(technique_cls.__dict__[name]))


# ---------------------------------------------------------------------- offline
class OfflineWorkload:
    """A technique run over a fixed JOB slice through ``WorkloadSession``."""

    technique = ""
    queries: tuple[str, ...] = ()
    workers = 0

    def build(self, seed: int, traced: bool):
        database = noisy(build_imdb_database(scale=JOB_SCALE, seed=0), seed)
        workload = build_job_workload(
            scale=JOB_SCALE, seed=0, num_queries=JOB_NUM_QUERIES, database=database
        )
        by_name = {query.name: query for query in workload.queries}
        session = WorkloadSession(
            workload,
            queries=[by_name[name] for name in self.queries],
            budget=BudgetSpec(max_executions=EXECUTIONS_PER_QUERY),
            seed=0,
            # Pool workers ship their executor spans back only when the
            # session carries a live tracer.
            tracer=Tracer(capacity=262_144) if traced and self.workers else None,
            **self.session_kwargs(seed),
        )
        return session

    def session_kwargs(self, seed: int) -> dict:
        raise NotImplementedError

    def probe_class(self):
        raise NotImplementedError

    def install_probes(self) -> None:
        self.probe = Probe(self.probe_class())

    def run(self, session) -> None:
        self.started = time.perf_counter()
        self.results = session.run(self.technique)

    def release(self, session) -> None:
        session.close()

    def evaluate(self, session) -> dict:
        """Checks plus the offline metrics; an operation is a query."""
        check_db = fresh_snapshot(session.workload.database)
        speedups, no_plan, censored, executions = [], [], 0, 0
        for query in session.queries:
            result = self.results[query.name]
            n = result.num_executions
            executions += n
            censored += sum(record.censored for record in result.trace)
            check(
                n <= EXECUTIONS_PER_QUERY,
                f"{query.name}: {n} executions exceed the budget of {EXECUTIONS_PER_QUERY}",
            )
            outcomes = self.probe.outcomes[query.name]
            issued = self.probe.issued[query.name]
            check(
                issued == len(outcomes) == n,
                f"{query.name}: {issued} proposals issued, {len(outcomes)} outcomes "
                f"observed, {n} executions charged",
            )
            check(
                outcomes == [(record.latency, record.censored) for record in result.trace],
                f"{query.name}: the trace does not record the observed outcomes in order",
            )
            # Best-so-far from the outcomes as they arrived, against the
            # technique's own trace; both must be monotone.
            running, best_seen = [], math.inf
            for latency, timed_out in outcomes:
                best_seen = best_seen if timed_out else min(best_seen, latency)
                running.append(best_seen)
            costs, reported = zip(*result.best_latency_over_time())
            check(
                list(reported) == running
                and all(b <= a for a, b in zip(reported, reported[1:]))
                and all(b >= a for a, b in zip(costs, costs[1:])),
                f"{query.name}: best-so-far or charged cost is not monotone",
            )
            if not any(not record.censored for record in result.trace):
                no_plan.append(query.name)
                speedups.append(1.0)
                continue
            default = check_db.execute(query, timeout=CHECK_TIMEOUT).latency
            best = result.best_record
            again = check_db.execute(query, best.plan, timeout=best.timeout)
            check(
                not again.timed_out and again.latency == best.latency,
                f"{query.name}: best plan re-executes in {again.latency!r} "
                f"(timed out: {again.timed_out}), reported {best.latency!r}",
            )
            speedups.append(default / best.latency)
        return {
            "attempted": len(session.queries),
            "failed": len(no_plan),
            "no_plan": no_plan,
            "censored": censored,
            "executions": executions,
            "speedup_gmean": gmean(speedups),
            "arrivals": [
                self.probe.finished[query.name] - self.started for query in session.queries
            ],
        }


class JobOffline(OfflineWorkload):
    technique = "bayesqo"
    queries = JOB_OFFLINE_QUERIES

    def session_kwargs(self, seed: int) -> dict:
        return {
            "bayes_config": BayesQOConfig(
                max_executions=EXECUTIONS_PER_QUERY,
                num_candidates=BAYESQO_CANDIDATES,
                seed=0,
            ),
            "vae_config": VAETrainingConfig(
                training_steps=VAE_TRAINING_STEPS,
                corpus_queries=VAE_CORPUS_QUERIES,
                latent_dim=16,
                hidden_dim=192,
                seed=0,
            ),
            "exec_config": ExecutionServiceConfig(backend="inline", batch_size=1),
        }

    def probe_class(self):
        return BayesQO


class JobRandomQ4(OfflineWorkload):
    technique = "random"
    queries = JOB_RANDOM_QUERIES
    workers = PROCESS_WORKERS

    def session_kwargs(self, seed: int) -> dict:
        return {
            "exec_config": ExecutionServiceConfig(
                backend="process",
                max_workers=PROCESS_WORKERS,
                batch_size=RANDOM_Q,
                batch_execution=True,
            ),
        }

    def probe_class(self):
        return RandomSearch


# ---------------------------------------------------------------------- stream
class StackServeDrift:
    """A ``PlanServer`` driven by ``drive_stream`` as a one-client closed loop."""

    workers = 0

    def build(self, seed: int, traced: bool):
        future = noisy(build_stack_database(scale=STACK_SCALE, seed=0), seed)
        workload = build_stack_workload(
            scale=STACK_SCALE,
            seed=0,
            num_templates=STACK_TEMPLATES,
            num_queries=STACK_BUILT_QUERIES,
            database=future,
        )
        by_name = {query.name: query for query in workload.queries}
        queries = [by_name[name] for name in STACK_QUERIES]
        past = rollback_to_date(future, STACK_DATE_2017)
        server = PlanServer(
            past,
            config=ServeConfig(
                technique="bao",
                budget=BudgetSpec(max_executions=MAINTENANCE_BUDGET),
                slo_latency=STREAM_SLO,
                drift_factor=1.3,
                seed=0,
            ),
            workload=workload,
        )
        traffic = TrafficGenerator(
            queries,
            TrafficConfig(
                num_arrivals=STREAM_ARRIVALS,
                zipf_alpha=1.1,
                seed=seed,
                burst_every=120,
                burst_length=40,
                drift_events=(DriftEvent(index=STREAM_ARRIVALS // 2, cutoff=None),),
            ),
        )
        # Popularity follows the slice order whatever the seed; the seed only
        # draws the arrivals.
        traffic.ranked = queries
        self.past, self.future = past, future
        return server, traffic

    def install_probes(self) -> None:
        self.served: list = []
        self.serve_times: list[float] = []
        original = PlanServer.__dict__["serve"]
        served, times = self.served, self.serve_times

        def serve(self_, query):
            times.append(time.perf_counter())
            decision = original(self_, query)
            served.append(decision)
            return decision

        PlanServer.serve = serve

    def run(self, built) -> None:
        server, traffic = built
        self.stream = drive_stream(
            server, traffic, self.future, maintenance_every=MAINTENANCE_EVERY
        )
        self.end = time.perf_counter()

    def release(self, built) -> None:
        built[0].close()

    def evaluate(self, built) -> dict:
        """Checks plus the stream metrics; an operation is an arrival."""
        server = built[0]
        records = self.stream.records
        check(
            len(records) == len(self.served) == STREAM_ARRIVALS,
            f"{len(records)} records and {len(self.served)} serves for "
            f"{STREAM_ARRIVALS} arrivals",
        )
        drift_at = STREAM_ARRIVALS // 2
        check(self.stream.drift_firings == [drift_at], "the drift event did not fire once")
        snapshots = {False: fresh_snapshot(self.past), True: fresh_snapshot(self.future)}
        defaults: dict[tuple, float] = {}
        replays: dict[tuple, tuple] = {}
        speedups, failed_queries = [], []
        for record, decision in zip(records, self.served):
            query = decision.query
            check(
                sorted(decision.plan.leaf_aliases()) == sorted(query.aliases),
                f"arrival {record.index}: plan for {query.name} does not cover its aliases",
            )
            after = record.index >= drift_at
            database = snapshots[after]
            key = (after, query.name)
            if key not in defaults:
                defaults[key] = database.execute(query, timeout=CHECK_TIMEOUT).latency
            plan_key = (after, query.name, decision.plan.canonical())
            if plan_key not in replays:
                again = database.execute(query, decision.plan, timeout=CHECK_TIMEOUT)
                replays[plan_key] = (again.latency, again.timed_out)
            check(
                replays[plan_key] == (record.latency, record.timed_out),
                f"arrival {record.index}: served plan re-executes as {replays[plan_key]}, "
                f"the stream saw {(record.latency, record.timed_out)}",
            )
            if record.timed_out:
                failed_queries.append(query.name)
            speedups.append(defaults[key] / record.latency)
        maintenance = [
            observation
            for entry in server.store.entries.values()
            for observation in entry.history
        ]
        gaps = [b - a for a, b in zip(self.serve_times, self.serve_times[1:])]
        gaps.append(self.end - self.serve_times[-1])
        return {
            "attempted": len(records),
            "failed": len(failed_queries),
            "no_plan": sorted(set(failed_queries)),
            "censored": sum(record.timed_out for record in records)
            + sum(observation.censored for observation in maintenance),
            "executions": len(records) + len(maintenance),
            "speedup_gmean": gmean(speedups),
            "arrivals": gaps,
            "layer_counters": {
                "serve.fast_path_rate": server.counters.fast_path_rate,
                "serve.optimizations": server.counters.optimizations,
            },
        }


WORKLOADS = {
    "job_offline": JobOffline,
    "job_random_q4": JobRandomQ4,
    "stack_serve_drift": StackServeDrift,
}
