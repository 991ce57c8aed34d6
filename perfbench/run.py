"""End-to-end benchmark of the offline query optimizer and its plan server.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs cold repetitions of one workload (see ``workloads.py``), each in a fresh
interpreter with its own empty temporary directory: another repetition
starts only while it is expected to end within ``S`` seconds, and there is
at least one.  Every repetition asserts the correctness
checks; a failed check or a crashed repetition fails the run (exit code 1)
without reporting a number.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` repetitions alternate between
traced and untraced; the JSON carries the per-layer attribution (medians of
the traced repetitions) and ``trace.overhead_ratio``, the traced over the
untraced median ``wall_s``.

Run from the repository root; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Every repetition's scratch lives under this (git-ignored) directory.
WORK_ROOT = ROOT / ".perfbench_tmp"
#: Repetitions a run makes even when they overrun ``--seconds``: one, or with
#: ``--trace 1`` one traced and one untraced.
MIN_REPETITIONS = {0: 1, 1: 2}
#: A run must end within this many seconds, whatever ``--seconds`` says.
RUN_DEADLINE = 175.0

#: Names and units of the reported metrics.
SPEC = ROOT / "BENCHMARK.json"

#: Premises of each workload, checked on the traced run (printed, not gated).
PREMISES = {
    "job_offline": "planner + VAE >= 70% of wall_s; db.optimizer.repeat_frac == 0",
    "job_random_q4": "executor + exec >= 80% of wall_s; planner + VAE <= 5%",
    "stack_serve_drift": "maintenance >= 80% of wall_s; db.optimizer.repeat_frac > 0; "
    "db.plan_cache.peak_mb < 256",
}


class RunFailed(RuntimeError):
    pass


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between order statistics."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_repetition(workload: str, seed: int, traced: bool, workdir: Path, index: int,
                   deadline: float) -> dict:
    tmpdir = workdir / f"rep{index}"
    tmpdir.mkdir()
    out = workdir / f"rep{index}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = str(tmpdir)
    # One BLAS thread per process: on a small shared machine a threaded BLAS
    # mostly adds scheduling noise, and pool workers would oversubscribe.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    command = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(int(traced)), "--tmpdir", str(tmpdir), "--out", str(out),
    ]
    # Own process group, so a hung repetition is killed with its pool workers.
    process = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RunFailed(f"repetition {index} did not finish before the run deadline")
    if process.returncode != 0:
        raise RunFailed(f"repetition {index} failed:\n{output[-4000:]}")
    with open(out) as handle:
        return json.load(handle)


def summarize(workload: str, reps: list[dict], traced: bool, spec: dict) -> dict:
    timed = [rep for rep in reps if not rep["traced"]]
    samples = [gap for rep in timed for gap in rep["arrivals"]]
    attempted = sum(rep["attempted"] for rep in timed)
    metrics = {
        "wall_s": statistics.median(rep["wall_s"] for rep in timed),
        "setup_s": statistics.median(rep["setup_s"] for rep in timed),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in timed),
        "failed_frac": sum(rep["failed"] for rep in timed) / attempted,
        "speedup_gmean": statistics.median(rep["speedup_gmean"] for rep in timed),
        "arrival_p50_ms": percentile(samples, 50) * 1e3,
        "arrival_p99_ms": percentile(samples, 99) * 1e3,
    }
    print(f"{workload}: {len(timed)} untraced repetitions, {len(samples)} arrivals "
          f"({sum(1 for s in samples if s > percentile(samples, 99))} beyond p99)")
    end_to_end = [(metric["name"], metric["unit"]) for metric in spec["end_to_end"]]
    for name, unit in end_to_end:
        print(f"  {name:<16} {metrics[name]:>12.4f} {unit}")
    no_plan = sorted({name for rep in reps for name in rep["no_plan"]})
    censored = sum(rep["censored"] for rep in reps) / sum(rep["executions"] for rep in reps)
    print(f"  health: censored executions {censored:.1%}; "
          f"no working plan: {', '.join(no_plan) if no_plan else 'none'}")
    if not traced:
        return {name: {"value": metrics[name], "unit": unit} for name, unit in end_to_end}

    import layers

    traced_reps = [rep for rep in reps if rep["traced"]]
    per_layer = {
        name: statistics.median(rep["per_layer"][name] for rep in traced_reps)
        for name in traced_reps[0]["per_layer"]
    }
    per_layer["trace.overhead_ratio"] = per_layer["trace.wall_s"] / metrics["wall_s"]
    wall = per_layer["trace.wall_s"]
    share = {layer: per_layer[f"{layer}.self_s"] / wall for layer in layers.LAYERS}
    print(f"  traced wall {wall:.3f} s over {len(traced_reps)} repetitions; "
          f"coverage {per_layer['trace.coverage_frac']:.1%}, "
          f"overhead x{per_layer['trace.overhead_ratio']:.3f}")
    for layer in layers.LAYERS:
        if share[layer] > 0.0005:
            print(f"    {layer:<18} {per_layer[layer + '.self_s']:>9.3f} s  {share[layer]:6.1%}")
    print(f"    {'other':<18} {per_layer['other_s']:>9.3f} s  {per_layer['other_s'] / wall:6.1%}")
    planner_vae = sum(share[layer] for layer in ("db.optimizer", "vae.corpus", "vae.train",
                                                 "vae.latent"))
    print(f"  premise: {PREMISES[workload]}")
    print(f"    planner + VAE {planner_vae:.1%}, executor + exec "
          f"{share['db.executor'] + share['exec']:.1%}, maintenance (inclusive) "
          f"{per_layer['serve.maintenance.inclusive_s'] / wall:.1%}, repeat_frac "
          f"{per_layer['db.optimizer.repeat_frac']:.3f}, plan-cache peak "
          f"{per_layer['db.plan_cache.peak_mb']:.1f} MB")
    return {
        metric["name"]: {"value": per_layer[metric["name"]], "unit": metric["unit"]}
        for metric in spec["per_layer"]
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(SPEC) as handle:
        spec = json.load(handle)
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_DEADLINE
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    reps: list[dict] = []
    try:
        longest = 0.0
        while len(reps) < MIN_REPETITIONS[args.trace] or (
            time.monotonic() - started + longest <= args.seconds
        ):
            # Traced runs alternate, starting traced: odd repetitions are the
            # untraced reference of trace.overhead_ratio.
            traced = bool(args.trace) and len(reps) % 2 == 0
            rep_start = time.monotonic()
            rep = run_repetition(args.workload, args.seed, traced, workdir, len(reps), deadline)
            longest = max(longest, time.monotonic() - rep_start)
            rep["traced"] = traced
            reps.append(rep)
        metrics = summarize(args.workload, reps, bool(args.trace), spec)
    except RunFailed as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    attempted = sum(rep["attempted"] for rep in reps)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
