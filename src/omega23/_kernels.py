"""Prime-field orbit kernel.

Breadth-first orbit closure over F_p^N with a dense visited table. The
search is frontier-batched: each generator acts on the whole current
frontier with one integer matmul, and the new points of a frontier are
appended in the order they are first reached.
"""

from __future__ import annotations

import numpy as np

ORBIT_CAP = 5_000_000
DENSE_CAP = 1 << 22  # largest p^N handled by the dense tables


def orbit_bfs(gens: np.ndarray, start: np.ndarray, p: int, space: int,
              cap: int = ORBIT_CAP):
    """Closure of `start` under flattened prime-field generators.

    Returns (status, ids, parent, genlab, visited); status 1 means the cap
    was hit before closure. `ids` lists point codes in discovery order,
    `parent`/`genlab` encode the Schreier forest, `visited` maps a point
    code to its discovery position (or -1).
    """
    gens = np.ascontiguousarray(gens, dtype=np.int64)
    start = np.ascontiguousarray(start, dtype=np.int64)
    n_coords = start.shape[0]
    n_gens = gens.shape[0]
    visited = np.full(space, -1, np.int32)
    max_pts = cap if cap < space else space
    ids = np.empty(max_pts, np.int64)
    parent = np.empty(max_pts, np.int32)
    genlab = np.empty(max_pts, np.int16)
    powers = p ** np.arange(n_coords, dtype=np.int64)

    sid = int(start @ powers)
    ids[0] = sid
    parent[0] = -1
    genlab[0] = -1
    visited[sid] = 0
    count = 1
    lo = 0
    while lo < count:
        hi = count
        frontier = ids[lo:hi]
        digits = np.empty((hi - lo, n_coords), np.int64)
        t = frontier.copy()
        for k in range(n_coords):
            digits[:, k] = t % p
            t //= p
        for gi in range(n_gens):
            imgs = (digits @ gens[gi].T) % p
            nids = imgs @ powers
            fresh = visited[nids] < 0
            cand = nids[fresh]
            src = np.nonzero(fresh)[0]
            if cand.size == 0:
                continue
            uniq, first = np.unique(cand, return_index=True)
            order = np.argsort(first, kind="stable")
            k = min(order.size, max_pts - count)
            keep = order[:k]
            new_ids = uniq[keep]
            visited[new_ids] = count + np.arange(k, dtype=np.int32)
            ids[count:count + k] = new_ids
            parent[count:count + k] = (lo + src[first[keep]]).astype(np.int32)
            genlab[count:count + k] = gi
            count += k
            if k < order.size:
                return 1, ids[:count], parent[:count], genlab[:count], visited
        lo = hi
    return 0, ids[:count], parent[:count], genlab[:count], visited
