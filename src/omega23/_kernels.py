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

Each frontier is closed one generator at a time: map the whole frontier
through the generator's tables, keep the images whose visited slot is
still -1, and append them in frontier order. That is the order a
sequential pass (generator by generator, point by point) reaches them,
with no dedup: the generators must be injective (invertible mod p), and
a frontier repeats no point, so one generator's new images are distinct.

The visited table is one module-level scratch buffer, grown to the
largest space seen and all -1 between calls: a search resets the slots
of the points it found before it returns, and drops the buffer if it
raises. What a caller keeps is O(orbit size): the discovery arrays and
a sorted index of (code << POS_BITS) | position.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

ORBIT_CAP = 5_000_000
DENSE_CAP = 1 << 22  # largest p^N handled by the dense tables
POS_BITS = (DENSE_CAP - 1).bit_length()  # a position or a code fits 22 bits
POS_MASK = (1 << POS_BITS) - 1
_CHUNK_BITS = 12  # unpacking tables hold at most 2^12 entries
_FIRST_ROWS = 1024  # discovery arrays start here and double as they fill

_EMPTY = np.empty(0, np.int32)
_scratch = _EMPTY  # the visited table: all -1 between calls


def _digit_bits(p: int) -> int:
    return (2 * p - 2).bit_length()


def _packed_images(p: int, lo_digit: int, n_digits: int, gens: np.ndarray) -> np.ndarray:
    """Row gi: generator gi's images of all p^n_digits vectors that are
    zero outside digits lo_digit … lo_digit + n_digits − 1, listed by the
    code of that slice, with their digits packed at _digit_bits(p) bits
    each. Only the slice's columns of each generator enter the product,
    which runs in float64, exactly: its sums stay below n_digits·p² < 2^53."""
    # Row c: the base-p digits of c, least significant first.
    grid = np.indices((p,) * n_digits, dtype=np.float64)
    digits = grid.reshape(n_digits, p ** n_digits)[::-1].T
    cols = gens[:, :, lo_digit:lo_digit + n_digits].astype(np.float64)
    images = (digits @ cols.transpose(0, 2, 1)).astype(np.int64)
    images -= p * (images // p)  # mod p; numpy vectorizes // but not %
    weights = np.left_shift(1, _digit_bits(p) * np.arange(gens.shape[1], dtype=np.int64))
    return images @ weights


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

    Returns (status, ids, parent, genlab, index); status 1 means the cap
    was hit before closure, and a cap below 1 is hit before the start
    point is kept, with all arrays empty. `ids` lists point codes in
    discovery order, `parent`/`genlab` encode the Schreier forest, and
    `index` is the sorted array of (code << POS_BITS) | position, one
    entry a point. A generator that is not injective can make a point
    appear twice.

    The visited table is the shared scratch buffer, so the kernel is not
    re-entrant.
    """
    global _scratch
    assert space <= DENSE_CAP, "space exceeds the dense table cap"
    if _scratch.size < space:
        _scratch = np.full(space, -1, np.int32)
    visited = _scratch[:space]
    try:
        status, ids, parent, genlab = _search(gens, start, p, visited, cap)
        visited[ids] = -1
    except BaseException:
        _scratch = _EMPTY  # slots may be left set: start from a fresh table
        raise
    index = np.sort((ids << POS_BITS) | np.arange(ids.size, dtype=np.int64))
    return status, ids, parent, genlab, index


def _grown(a: np.ndarray, count: int, size: int) -> np.ndarray:
    out = np.empty(size, a.dtype)
    out[:count] = a[:count]
    return out


def _search(gens, start, p, visited, cap):
    """The frontier loop: (status, ids, parent, genlab), with visited
    holding each found point's position and -1 elsewhere."""
    space = visited.size
    gens = np.ascontiguousarray(gens, dtype=np.int64)
    start = np.ascontiguousarray(start, dtype=np.int64)
    n_coords = start.shape[0]
    bits = _digit_bits(p)
    # p^N <= DENSE_CAP keeps N*bits <= 39 (at p = 3), so a sum of two
    # packed images, below 2^(N*bits), fits an int64 with room to spare.
    assert n_coords * bits <= 48, "packed images exceed 48 bits"
    max_pts = cap if cap < space else space
    if max_pts < 1:  # no room even for the start point
        return 1, np.empty(0, np.int64), np.empty(0, np.int32), np.empty(0, np.int16)
    rows = min(max_pts, _FIRST_ROWS)
    ids = np.empty(rows, np.int64)
    parent = np.empty(rows, np.int32)
    genlab = np.empty(rows, np.int16)

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
        f_hi, f_lo = np.divmod(ids[lo:hi], split)
        for gi in range(gens.shape[0]):
            packed = hi_img[gi][f_hi] + lo_img[gi][f_lo]
            if unpack is None:
                img = packed % p
            else:
                (shift, mask, table), *rest = unpack
                img = table[(packed >> shift) & mask]
                for shift, mask, table in rest:
                    img += table[(packed >> shift) & mask]
            # A generator is injective and a frontier repeats no point,
            # so the new images of one generator are already distinct.
            fresh = np.flatnonzero(visited[img] < 0)
            k = min(fresh.size, max_pts - count)
            where = fresh[:k]
            if count + k > ids.size:
                rows = min(max(2 * ids.size, count + k), max_pts)
                ids, parent, genlab = (_grown(a, count, rows) for a in (ids, parent, genlab))
            new_ids = ids[count:count + k]
            np.take(img, where, out=new_ids)
            visited[new_ids] = count + np.arange(k, dtype=np.int32)
            parent[count:count + k] = lo + where
            genlab[count:count + k] = gi
            count += k
            if k < fresh.size:
                return 1, ids[:count], parent[:count], genlab[:count]
        lo = hi
    return 0, ids[:count], parent[:count], genlab[:count]
