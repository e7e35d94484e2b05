"""Prime-field orbit kernel.

Breadth-first orbit closure over F_p^N with a dense visited table, no
matrix products. A point's code is its base-p number, digit k of weight
p^k; split it as hi·p^m + lo with m = ⌊N/2⌋. Since a generator g is
linear, g(v) = g(hi part) + g(lo part), so each call tabulates, per
generator, the images of every hi half and every lo half with their N
digits packed into one int64 at `bits` bits a digit. The image of a
whole frontier is two lookups and an add: every digit of the sum is at
most 2p − 2 < 2^bits, so no field carries into the next. Chunk tables
then reduce the digits mod p and rebuild the base-p code.

The search is frontier-batched. All generators' images of the frontier
are read generator-major and deduplicated once, keeping first
occurrences, which appends new points in exactly the order a sequential
pass (generator by generator, point by point) would reach them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

ORBIT_CAP = 5_000_000
DENSE_CAP = 1 << 22  # largest p^N handled by the dense tables
_CHUNK_BITS = 12  # unpacking tables hold at most 2^12 entries


def _digit_bits(p: int) -> int:
    return (2 * p - 2).bit_length()


def _packed_images(p: int, lo_digit: int, n_digits: int, gens: np.ndarray) -> list:
    """Per generator, the images of all p^n_digits vectors that are zero
    outside digits lo_digit … lo_digit + n_digits − 1, listed by the code
    of that slice, with their digits packed at _digit_bits(p) bits each.
    The product runs in float64, exactly: its sums stay below N·p² < 2^53."""
    n_coords = gens.shape[1]
    codes = np.arange(p ** n_digits, dtype=np.int64)
    vecs = np.zeros((codes.size, n_coords))
    for k in range(n_digits):
        vecs[:, lo_digit + k] = codes % p
        codes //= p
    weights = np.left_shift(1, _digit_bits(p) * np.arange(n_coords, dtype=np.int64))
    return [((vecs @ g.T).astype(np.int64) % p) @ weights
            for g in gens.astype(np.float64)]


@lru_cache(maxsize=None)
def _unpack_tables(p: int, n_coords: int) -> tuple:
    """(shift, mask, table) per chunk of packed digits: table[field]
    is the chunk's digits, each reduced mod p, as a base-p code at its
    own weight. Each table is at most 2^_CHUNK_BITS entries and never
    more than p^n_coords, the size of the visited table."""
    bits = _digit_bits(p)
    # From N = 2 on, p <= 2048 and 2^bits <= 4p - 4 <= p^2: one digit fits.
    assert n_coords >= 2 and 1 << bits <= min(1 << _CHUNK_BITS, p ** n_coords)
    per = 1
    while ((per + 1) * bits <= _CHUNK_BITS
           and 1 << ((per + 1) * bits) <= p ** n_coords):
        per += 1
    chunks = []
    for first in range(0, n_coords, per):
        width = min(per, n_coords - first)
        fields = np.arange(1 << (width * bits), dtype=np.int64)
        table = np.zeros(fields.size, np.int64)
        for k in range(width):
            digit = (fields >> (k * bits)) & ((1 << bits) - 1)
            table += (digit % p) * p ** (first + k)
        chunks.append((first * bits, (1 << (width * bits)) - 1, table))
    return tuple(chunks)


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
    bits = _digit_bits(p)
    # p^N <= DENSE_CAP keeps N*bits <= 39 (at p = 3), so a sum of two
    # packed images, below 2^(N*bits), fits an int64 with room to spare.
    assert n_coords * bits <= 48, "packed images exceed 48 bits"
    visited = np.full(space, -1, np.int32)
    max_pts = cap if cap < space else space
    ids = np.empty(max_pts, np.int64)
    parent = np.empty(max_pts, np.int32)
    genlab = np.empty(max_pts, np.int16)

    m = n_coords // 2
    split = p ** m
    lo_img = _packed_images(p, 0, m, gens)
    hi_img = _packed_images(p, m, n_coords - m, gens)
    # At N = 1 a digit's table would outgrow the visited table (and its
    # field is wider than 12 bits from p = 2049 on): reduce by arithmetic.
    unpack = _unpack_tables(p, n_coords) if n_coords > 1 else None

    sid = int(start @ (p ** np.arange(n_coords, dtype=np.int64)))
    ids[0] = sid
    parent[0] = -1
    genlab[0] = -1
    visited[sid] = 0
    count = 1
    lo = 0
    while lo < count:
        hi = count
        width = hi - lo
        frontier = ids[lo:hi]
        f_hi, f_lo = np.divmod(frontier, split)
        cand = np.empty(n_gens * width, np.int64)
        for gi in range(n_gens):
            packed = hi_img[gi][f_hi] + lo_img[gi][f_lo]
            out = cand[gi * width:(gi + 1) * width]
            if unpack is None:
                np.remainder(packed, p, out=out)
                continue
            (shift, mask, table), *rest = unpack
            np.take(table, (packed >> shift) & mask, out=out)
            for shift, mask, table in rest:
                out += table[(packed >> shift) & mask]
        where = np.flatnonzero(visited[cand] < 0)
        fresh = cand[where]
        # First occurrence of each fresh code: the smallest position that
        # names it, found by a min-scatter into its own visited slot.
        pos = np.arange(where.size, dtype=np.int32)
        visited[fresh] = np.iinfo(np.int32).max
        np.minimum.at(visited, fresh, pos)
        first = where[visited[fresh] == pos]
        total = first.size
        k = min(total, max_pts - count)
        new_ids = cand[first]
        visited[new_ids[k:]] = -1
        new_ids = new_ids[:k]
        first = first[:k]
        visited[new_ids] = count + np.arange(k, dtype=np.int32)
        ids[count:count + k] = new_ids
        gen, src = np.divmod(first, width)
        parent[count:count + k] = lo + src
        genlab[count:count + k] = gen
        count += k
        if k < total:
            return 1, ids[:count], parent[:count], genlab[:count], visited
        lo = hi
    return 0, ids[:count], parent[:count], genlab[:count], visited
