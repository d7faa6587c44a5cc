"""Correctness checks that run apart from the program, outside timed code.

The reference answer is a brute-force top-k: every pair's similarity,
computed from the raw token sets by one incidence-matrix product
(``overlap = X @ X.T``, exact in float32 for counts below 2**24), then the
k largest values.  Nothing here calls into the program except
:func:`self_test`, which runs the program once on a small input to have a
correct answer to corrupt.

Every ``check_*`` function returns a list of problems, empty when the
answer is right.  Run the self-test, which proves each check reports a
corrupted answer, with::

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import os
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

#: Tolerance when comparing similarities computed by different formulas
#: (the program and numpy may round the last bit differently).
EPSILON = 1e-9

Pair = Tuple[int, int]
Row = Tuple[int, int, float]


def similarity_matrix(
    token_sets: Sequence[Iterable[str]], similarity: str
) -> np.ndarray:
    """All-pairs similarity matrix of *token_sets* (``jaccard``/``cosine``)."""
    vocabulary: Dict[str, int] = {}
    rows: List[List[int]] = []
    for tokens in token_sets:
        rows.append(
            sorted({vocabulary.setdefault(t, len(vocabulary)) for t in tokens})
        )
    incidence = np.zeros((len(rows), max(1, len(vocabulary))), dtype=np.float32)
    for index, columns in enumerate(rows):
        incidence[index, columns] = 1.0
    overlap = (incidence @ incidence.T).astype(np.float64)
    sizes = np.array([len(columns) for columns in rows], dtype=np.float64)
    if similarity == "jaccard":
        union = sizes[:, None] + sizes[None, :] - overlap
        return np.divide(overlap, union, out=np.zeros_like(overlap),
                         where=union > 0)
    if similarity == "cosine":
        norm = np.sqrt(sizes[:, None] * sizes[None, :])
        return np.divide(overlap, norm, out=np.zeros_like(overlap),
                         where=norm > 0)
    raise ValueError("unknown similarity %r" % similarity)


def brute_topk_values(matrix: np.ndarray, k: int) -> List[float]:
    """The k largest pair similarities (``i < j``), best first."""
    upper = matrix[np.triu_indices(matrix.shape[0], k=1)]
    if k < upper.size:
        upper = np.partition(upper, upper.size - k)[upper.size - k:]
    return sorted(upper.tolist(), reverse=True)


def check_topk(
    rows: Sequence[Row],
    matrix: np.ndarray,
    k: int,
    reference: Optional[List[float]] = None,
) -> List[str]:
    """Problems with *rows* as the top-k of the pairs scored by *matrix*.

    *rows* are ``(x, y, similarity)`` by index into *matrix*.  The check is
    tie-aware: any set of pairs is right whose similarity multiset equals
    the brute-force top-k multiset, so two valid answers that break a tie
    at the k-th value differently both pass.  *reference* are the
    precomputed :func:`brute_topk_values`, when the caller checks several
    answers over one matrix.
    """
    problems: List[str] = []
    n = matrix.shape[0]
    want = min(k, n * (n - 1) // 2)
    if len(rows) != want:
        problems.append("returned %d pairs, expected %d" % (len(rows), want))
    seen: Set[Pair] = set()
    for x, y, value in rows:
        if not (0 <= x < n and 0 <= y < n) or x == y:
            problems.append("malformed pair (%r, %r)" % (x, y))
            continue
        pair = (x, y) if x < y else (y, x)
        if pair in seen:
            problems.append("pair %r returned twice" % (pair,))
        seen.add(pair)
        if abs(float(matrix[x, y]) - value) > EPSILON:
            problems.append(
                "pair %r reported %.12f, recomputed %.12f"
                % (pair, value, float(matrix[x, y]))
            )
    values = reference if reference is not None else brute_topk_values(matrix, k)
    got = sorted((value for __, __, value in rows), reverse=True)
    for rank, (mine, truth) in enumerate(zip(got, values), start=1):
        if abs(mine - truth) > EPSILON:
            problems.append(
                "similarity at rank %d is %.12f, brute force says %.12f"
                % (rank, mine, truth)
            )
            break
    return problems


def check_prefix(rows: Sequence[Row], reference: Sequence[float]) -> List[str]:
    """Problems with *rows* as the first pairs of a progressive answer.

    Progressive emission promises the best pairs first, so the i-th
    emitted similarity must equal the i-th brute-force value.
    """
    for rank, ((__, __, value), truth) in enumerate(
        zip(rows, reference), start=1
    ):
        if abs(value - truth) > EPSILON:
            return [
                "progressive pair %d has %.12f, brute force says %.12f"
                % (rank, value, truth)
            ]
    if len(rows) > len(reference):
        return ["progressive answer longer than the top-k"]
    return []


def check_same(rows: Sequence[Row], first: Sequence[Row], what: str) -> List[str]:
    """Problems when a repeated operation's answer differs from the first."""
    if list(rows) != list(first):
        return ["%s differs from the first one of the run" % what]
    return []


def check_delta_replay(
    deltas: Sequence[Dict[str, Any]], final: Sequence[Row]
) -> List[str]:
    """Problems when replaying *deltas* does not rebuild *final*.

    Each delta is ``{"seq", "action": "enter"|"leave", "x", "y",
    "similarity"}``; replayed in sequence order from an empty result set
    they must reproduce the final queried result exactly.
    """
    problems: List[str] = []
    ordered = sorted(deltas, key=lambda d: d["seq"])
    seqs = [d["seq"] for d in ordered]
    if seqs and seqs != list(range(seqs[0], seqs[0] + len(seqs))):
        problems.append("pushed delta sequence numbers have gaps or repeats")
    live: Dict[Pair, float] = {}
    for delta in ordered:
        pair = (delta["x"], delta["y"])
        if delta["action"] == "enter":
            if pair in live:
                problems.append("delta enters live pair %r" % (pair,))
            live[pair] = delta["similarity"]
        elif live.pop(pair, None) is None:
            problems.append("delta removes absent pair %r" % (pair,))
    want = {(x, y): value for x, y, value in final}
    if live != want:
        problems.append(
            "replayed deltas give %d pairs, %d differ from the final query"
            % (len(live), len(set(live.items()) ^ set(want.items())))
        )
    return problems


# ----------------------------------------------------------------------
# Self-test: each check must report a corrupted answer
# ----------------------------------------------------------------------


def _corruptions(rows: List[Row]) -> Dict[str, List[Row]]:
    x, y, value = rows[len(rows) // 2]
    changed = list(rows)
    changed[len(rows) // 2] = (x, y, value + 0.01)
    return {
        "one similarity changed": changed,
        "one pair dropped": rows[:-1],
        "one pair duplicated": rows[:-1] + rows[:1],
    }


def self_test() -> List[str]:
    """Run every check on a right and on corrupted answers.

    Returns the failures of the self-test itself: a right answer that a
    check rejects, or a corrupted one that it accepts.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro import Cosine, Jaccard, TopkOptions, dblp_like, topk_join, trec3_like

    failures: List[str] = []
    cases = (
        ("jaccard", dblp_like(160, seed=5), Jaccard(), 25),
        ("cosine", trec3_like(40, seed=5), Cosine(), 12),
    )
    for name, collection, sim, k in cases:
        token_sets = [[str(t) for t in record.tokens] for record in collection]
        matrix = similarity_matrix(token_sets, name)
        rows = [
            (r.x, r.y, r.similarity)
            for r in topk_join(collection, k, similarity=sim,
                               options=TopkOptions(maxdepth=4))
        ]
        if check_topk(rows, matrix, k):
            failures.append("%s: right answer rejected: %s"
                            % (name, check_topk(rows, matrix, k)))
        if check_prefix(rows[:5], brute_topk_values(matrix, k)):
            failures.append("%s: right progressive prefix rejected" % name)
        for label, bad in _corruptions(rows).items():
            if not check_topk(bad, matrix, k):
                failures.append("%s: check_topk accepted %s" % (name, label))
            if not check_same(bad, rows, "answer"):
                failures.append("%s: check_same accepted %s" % (name, label))
        if not check_prefix(_corruptions(rows)["one similarity changed"][:k],
                            brute_topk_values(matrix, k)):
            failures.append("%s: check_prefix accepted a changed value" % name)

    rows = [(0, 1, 0.5), (1, 2, 0.25)]
    deltas: List[Dict[str, Any]] = [
        {"seq": 1, "action": "enter", "x": 0, "y": 1, "similarity": 0.5},
        {"seq": 2, "action": "enter", "x": 0, "y": 2, "similarity": 0.2},
        {"seq": 3, "action": "enter", "x": 1, "y": 2, "similarity": 0.25},
        {"seq": 4, "action": "leave", "x": 0, "y": 2, "similarity": 0.2},
    ]
    if check_delta_replay(deltas, rows):
        failures.append("right delta stream rejected: %s"
                        % check_delta_replay(deltas, rows))
    for label, bad in _corruptions(rows).items():
        if not check_delta_replay(deltas, bad):
            failures.append("check_delta_replay accepted %s" % label)
    if not check_delta_replay(deltas[:1] + deltas[2:], rows):
        failures.append("check_delta_replay accepted a lost delta")
    return failures


if __name__ == "__main__":
    found = self_test()
    for failure in found:
        print("self-test: %s" % failure, file=sys.stderr)
    print("self-test %s" % ("FAILED" if found else "passed"))
    sys.exit(1 if found else 0)
