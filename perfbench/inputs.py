"""Inputs of the benchmark: one seed in, token files and their checksums out.

Every workload's inputs come from the :mod:`repro.data.synthetic`
generators, seeded from the benchmark's ``--seed``, and are written as
token files in the format ``repro generate`` writes: one record per line,
the generated records in collection order (by size), each token a
decimal integer.  The program only ever sees these files, or the token
lists read back from them.

Regenerate and checksum the inputs of one seed with::

    python3 perfbench/inputs.py --seed 1 --out perfbench/.work/inputs

which prints one JSON manifest per workload.  ``run.py`` calls this same
module in a child process, so generating the inputs adds nothing to the
measuring process's memory high-water mark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: What each workload runs on.  ``collections`` input files are generated
#: per run from sub-seeds of the run's seed: join times and refill counts
#: depend on the drawn collection, and averaging over several draws keeps
#: one draw from moving a run's figures.  ``timed_inserts`` (stream
#: workloads) follow the ``window`` records that fill the window;
#: ``join_windows`` windows, evenly spaced over each file, are also
#: joined from scratch.  ``repeat_first`` inserts a file's first record
#: twice, and ``warm_inserts`` records past the window are inserted during
#: set-up, so the pair of the two copies expires there (see the README).
SPECS: Dict[str, Dict[str, Any]] = {
    "batch-dblp": {
        "generator": "dblp_like", "n": 2000, "collections": 3,
        "similarity": "jaccard", "k": 500, "maxdepth": 2,
    },
    "batch-3gram": {
        "generator": "trec3_like", "n": 350, "collections": 12,
        "similarity": "cosine", "k": 100, "maxdepth": 4,
    },
    "stream-refill": {
        "generator": "dblp_like", "n": 2000, "collections": 32,
        "similarity": "jaccard", "k": 100,
        "window": 500, "timed_inserts": 32, "join_windows": 1,
    },
    "serve-mixed": {
        "generator": "dblp_like", "n": 2000, "collections": 3,
        "similarity": "jaccard", "k": 10,
        "window": 500, "timed_inserts": 500, "join_windows": 4,
        "repeat_first": True, "warm_inserts": 1,
    },
}


def sub_seed(seed: int, index: int) -> int:
    """The generator seed of input file *index* of a run seeded *seed*."""
    return seed * 100 + index


def read_token_lines(path: str) -> List[List[str]]:
    """The benchmark's own reader: the non-blank lines of a token file."""
    with open(path, encoding="utf-8") as handle:
        return [line.split() for line in handle if line.split()]


def make_inputs(workload: str, seed: int, out_dir: str) -> Dict[str, Any]:
    """Write *workload*'s input files for *seed*; return their manifest."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.data import synthetic

    spec = SPECS[workload]
    generator = getattr(synthetic, spec["generator"])
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for index in range(spec["collections"]):
        collection = generator(spec["n"], seed=sub_seed(seed, index))
        text = "".join(
            " ".join(str(token) for token in record.tokens) + "\n"
            for record in collection
        )
        path = os.path.join(out_dir, "%s-s%d-%d.txt" % (workload, seed, index))
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(path + ".tmp", path)
        sizes = [len(record.tokens) for record in collection]
        files.append(
            {
                "path": path,
                "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                "records": len(sizes),
                "size_min": min(sizes),
                "size_max": max(sizes),
                "universe": len({t for r in collection for t in r.tokens}),
            }
        )
    return {"workload": workload, "seed": seed, "spec": spec, "files": files}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS), action="append",
                        help="workload to generate (repeatable; default all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default=os.path.join(
        ROOT, "perfbench", ".work", "inputs"))
    args = parser.parse_args(argv)
    for workload in args.workload or sorted(SPECS):
        print(json.dumps(make_inputs(workload, args.seed, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
