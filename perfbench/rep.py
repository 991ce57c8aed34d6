"""One cold repetition of a benchmark workload, in a fresh interpreter.

Run by ``run.py``; writes its measurements as JSON to ``--out``.  The
repetition gets its own empty temporary directory (checked at start) for
any file the program writes, so nothing on disk carries over between
repetitions.

    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1 --tmpdir DIR --out FILE
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

#: Set-ups per repetition; ``setup_s`` is their median.
SETUP_REPEATS = 5


def _children(pid: int) -> list[int]:
    """Direct child processes of ``pid`` (pool workers)."""
    children = []
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/children") as handle:
            children.extend(int(child) for child in handle.read().split())
    return children


def _peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def tree_peak_rss_mb() -> float:
    """Sum of the peak resident sets of this process and its live children.

    Read after the timed phase, before the pool shuts down.  Pages a forked
    worker shares with its parent count once per process, so the sum bounds
    the tree's simultaneous peak from above.
    """
    me = os.getpid()
    return _peak_rss_mb(me) + sum(_peak_rss_mb(child) for child in _children(me))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmpdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if os.listdir(args.tmpdir):
        raise RuntimeError(f"repetition directory {args.tmpdir} is not empty at start")
    tempfile.tempdir = args.tmpdir
    os.chdir(args.tmpdir)

    # Importing the workloads imports the program, so interpreter start-up
    # stays out of ``setup_s``.
    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    traced = bool(args.trace)

    setups = []
    for attempt in range(SETUP_REPEATS):
        start = time.perf_counter()
        built = workload.build(args.seed, traced)
        setups.append(time.perf_counter() - start)
        if attempt < SETUP_REPEATS - 1:
            workload.release(built)

    log = layers.SpanLog()
    if traced:
        layers.install(log)
    workload.install_probes()

    log.active = True
    root = log.open("wall", "timed phase")
    workload.run(built)
    log.close(root)
    log.active = False
    wall = log.spans[root][3] - log.spans[root][2]
    rss = tree_peak_rss_mb()
    workload.release(built)

    result = workload.evaluate(built)
    result.update(setup_s=statistics.median(setups), wall_s=wall, peak_rss_mb=rss)
    # Counters the program keeps itself (the stream's serve counters).
    counters = {"serve.fast_path_rate": 0.0, "serve.optimizations": 0}
    counters.update(result.pop("layer_counters", {}))
    if traced:
        result["per_layer"] = layers.attribute(log, root, workers=workload.workers) | counters
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
