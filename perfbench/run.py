"""The repository's benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-dblp --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric.  ``--trace 1`` runs the
workload once untraced and once with the per-layer wrappers of
``layers.py`` installed, and prints every per-layer metric plus
``trace_overhead.<metric>``, the traced-minus-untraced difference of
each end-to-end metric.  The last line of standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Progress, input checksums and any problem found go to standard error.
The exit code is 0 whenever a result was printed, wrong answers
included (``"correct": false``); it is 2 when the program under test is
missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Tuple

from inputs import SPECS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(message: str) -> None:
    print("# " + message, file=sys.stderr, flush=True)


def generate_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """Run ``inputs.py`` in a child process; return its manifest."""
    out_dir = os.path.join(HERE, ".work", "inputs")
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", out_dir],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=120,
    )
    return json.loads(completed.stdout.decode("utf-8").splitlines()[-1])


def normalized(outcome: Any) -> Dict[str, Tuple[float, str]]:
    """*outcome*'s end-to-end metrics at the reference machine speed.

    Times are divided by the pass's speed factor (see ``speed.py``),
    rates multiplied by it; memory is left as measured.
    """
    factor = outcome.speed.factor()
    log("machine speed factor %.4f (%d reference loops)"
        % (factor, len(outcome.speed.samples)))
    result = {}
    for name, (value, unit) in outcome.metrics.items():
        log("raw %s = %.6g %s" % (name, value, unit))
        if unit in ("s", "ms"):
            value /= factor
        elif unit == "1/s":
            value *= factor
        result[name] = (value, unit)
    return result


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so ``finally`` blocks stop the daemons.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program to measure: %s is missing"
              % os.path.join(ROOT, "src", "repro"), file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import oracle
    from layers import LayerProbe
    from workloads import RUNNERS

    problems = ["self-test: " + failure for failure in oracle.self_test()]
    manifest = generate_inputs(args.workload, args.seed)
    files = [entry["path"] for entry in manifest["files"]]
    for entry in manifest["files"]:
        log("input %s sha256 %s (%d records)"
            % (os.path.basename(entry["path"]), entry["sha256"], entry["records"]))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    spec = SPECS[args.workload]
    runner = RUNNERS[args.workload]

    plain = runner(spec, files, args.seconds, None)
    outcomes = [plain]
    if args.trace:
        probe = LayerProbe().install()
        try:
            traced = runner(spec, files, args.seconds, probe)
        finally:
            probe.uninstall()
        outcomes.append(traced)
        # Tracing must not change what the program does.
        untraced_work, traced_work = plain.round_counts[0], traced.round_counts[0]
        drift = sorted(name for name in untraced_work.keys() & traced_work.keys()
                       if untraced_work[name] != traced_work[name])
        if drift:
            problems.append("work counts differ between untraced and traced: %s" % drift)
        measured = dict(traced.layers)
        plain_metrics, traced_metrics = normalized(plain), normalized(traced)
        for name, (value, unit) in plain_metrics.items():
            measured["trace_overhead." + name] = (traced_metrics[name][0] - value, unit)
        measured["machine.calib_ms"] = (1e3 * statistics.median(traced.speed.samples), "ms")
        # A layer the workload does not exercise reads 0.
        wanted = declared["per_layer"]
        default = 0.0
    else:
        measured = normalized(plain)
        wanted = declared["end_to_end"]
        default = None
    metrics = {}
    for entry in wanted:
        value, unit = measured.get(entry["name"], (default, entry["unit"]))
        if value is None or unit != entry["unit"]:
            problems.append("metric %s not measured in %s" % (entry["name"], entry["unit"]))
            continue
        metrics[entry["name"]] = {"value": value, "unit": unit}

    for outcome in outcomes:
        problems += outcome.problems
        for check in outcome.deferred:
            problems += check()
    for problem in problems[:20]:
        log("problem: " + problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
