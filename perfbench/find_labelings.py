"""Search the labeling seeds that a benchmark seed may draw for the seeded
workloads (workloads.A3_LABELINGS and workloads.RANK_LABELINGS).

    PYTHONPATH=src python3 perfbench/find_labelings.py a3 20000
    PYTHONPATH=src python3 perfbench/find_labelings.py rank 3000

A candidate is kept when its word tree matches the default labeling's (seed 1)
where the workload spends its time, so that every seed measures the same
amount of work.  The a3 search takes about a minute, the rank search a few.
"""

from __future__ import annotations

import sys

from gasketlab.gasket import GasketSpec, enumerate_words
from gasketlab.subdivision import cell_count

import workloads


def seeded(seed: int) -> GasketSpec:
    return GasketSpec(2, workloads.SEEDED_LEVELS,
                      {"type": "seeded", "seed": seed, "weights": {l: 1.0 for l in workloads.SEEDED_LEVELS}})


def cells_per_depth(spec: GasketSpec, m: int, root=(), ref=None, tol=None):
    """Cells at depths 1..m below root; None as soon as a depth is more than
    tol away from ref."""
    layer, out = [root], []
    for depth in range(m):
        nxt = []
        for w in layer:
            l = spec.label_of(w)
            nxt.extend(w + ((i, l),) for i in range(1, cell_count(spec.d, l) + 1))
        layer = nxt
        out.append(len(layer))
        if ref is not None and abs(len(layer) - ref[depth]) > tol * ref[depth]:
            return None
    return out


def within(got, want, tol) -> bool:
    return abs(got - want) <= tol * want


def a3_signature(seed: int):
    """verify-a3 --depth 3 --cap-words 1: the depth-3 word count (sampling
    loop) and the first word's subtree to N+1 = 5 (its capacity solves)."""
    spec = seeded(seed)
    words = enumerate_words(spec, 3)
    return len(words), words[0][0]


def search_a3(limit: int) -> list:
    spec = seeded(1)
    n_ref, first = a3_signature(1)
    ref = cells_per_depth(spec, 5, root=first)
    hits = [1]
    for seed in range(2, limit):
        n, first = a3_signature(seed)
        if n != n_ref:
            continue
        got = cells_per_depth(seeded(seed), 5, root=first)
        if all(within(g, r, 0.02) for g, r in zip(got[-2:], ref[-2:])):
            hits.append(seed)
    return hits


def search_rank(limit: int) -> list:
    """dim-estimate --depth 8: cells within 5% at every depth, within 1% at
    depth 8 and summed over all depths."""
    ref = cells_per_depth(seeded(1), 8)
    hits = [1]
    for seed in range(2, limit):
        got = cells_per_depth(seeded(seed), 8, ref=ref, tol=0.05)
        if got and within(got[-1], ref[-1], 0.01) and within(sum(got), sum(ref), 0.01):
            hits.append(seed)
    return hits


if __name__ == "__main__":
    which, limit = sys.argv[1], int(sys.argv[2])
    print({"a3": search_a3, "rank": search_rank}[which](limit))
