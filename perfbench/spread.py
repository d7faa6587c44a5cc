"""Run one workload several times and print each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload batch-dblp --runs 10

Each run is a fresh untraced ``run.py`` process with its own seed, 1 to
``--runs``, measuring ``--seconds`` (by default ``run_seconds`` of
``BENCHMARK.json``).  For every end-to-end metric it prints the median, the first
and third quartiles as ``statistics.quantiles(values, n=4)`` gives them,
and the relative interquartile range ``(q3 - q1) / median``; the bounds
in ``BENCHMARK.json`` are set from this output.  It also prints each
run's failed share and wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        run_seconds = json.load(handle)["run_seconds"]
    parser.add_argument("--seconds", type=int, default=run_seconds)
    args = parser.parse_args(argv)

    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    for seed in range(1, args.runs + 1):
        begin = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, check=True,
        )
        result = json.loads(completed.stdout.decode("utf-8").splitlines()[-1])
        print("seed %d: correct=%s failed=%d/%d wall=%.1fs %s" % (
            seed, result["correct"], result["failed"], result["attempted"],
            time.perf_counter() - begin,
            " ".join("%s=%.4g" % (name, metric["value"])
                     for name, metric in result["metrics"].items())), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print("%-32s %6s %14s %14s %14s %8s" % ("metric", "unit", "median", "q1", "q3", "iqr/med"))
    for name, series in values.items():
        middle = statistics.median(series)
        q1, __, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / abs(middle) if middle else float("nan")
        print("%-32s %6s %14.6g %14.6g %14.6g %8.3f" % (
            name, units[name], middle, q1, q3, spread))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
