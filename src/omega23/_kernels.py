"""Prime-field orbit kernel.

Breadth-first orbit closure over F_p^N with a dense visited table, no
matrix products. A point's code is its base-p number, digit k of weight
p^k; split it as hi·p^m + lo with m = ⌊N/2⌋. Since a generator g is
linear, g(v) = g(hi part) + g(lo part), so the kernel tabulates, once
per generator, the images of every hi half and every lo half with their
N digits packed into one int64 at `bits` bits a digit. The image of a
whole frontier is two lookups and an add: every digit of the sum is at
most 2p − 2 < 2^bits, so no field carries into the next. Chunk tables
then reduce the digits mod p and rebuild the base-p code. Tables cost
more than a small orbit: a frontier of at most _SMALL_FRONTIER points,
and every frontier at N = 1, where a digit's chunk table would outgrow
the visited table, is decoded to digits and mapped through all
generators by one int64 matmul instead. So the tables are built only
when the first larger frontier appears, and a search that never sees
one builds none.

Either way, each frontier is then closed by one loop, one generator at
a time: take the frontier's images under the generator, keep those
whose visited slot is -1 before the generator appends anything, and
append them in frontier order. That is the order a sequential pass
(generator by generator, point by point) reaches them, with no dedup:
for injective generators (invertible mod p) a frontier repeats no
point, so one generator's new images are distinct. The discovery arrays
never hold more than p^N entries. A singular generator can list a point
twice; a search that fills all p^N entries either repeats a code that
way or has found every point of the space, which is then the exact
closure. The caller refuses any repeated code.

The visited table is one module-level scratch buffer, grown to the
largest space seen and all -1 between calls: a search resets the slots
of the points it found before it returns, and drops the buffer if it
raises. What a caller keeps is O(orbit size): the discovery arrays, cut
to the orbit's size once they have grown, and a sorted index of
(code << POS_BITS) | position.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

DENSE_CAP = 1 << 22  # largest p^N handled by the dense tables
POS_BITS = (DENSE_CAP - 1).bit_length()  # a position or a code fits 22 bits
POS_MASK = (1 << POS_BITS) - 1
_CHUNK_BITS = 12  # unpacking tables hold at most 2^12 entries
_FIRST_ROWS = 1024  # discovery arrays start here and double as they fill
_SMALL_FRONTIER = 16  # frontiers up to this many points are mapped without tables

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
    digits = _digit_grid(p, n_digits)
    cols = gens[:, :, lo_digit:lo_digit + n_digits].astype(np.float64)
    images = (digits @ cols.transpose(0, 2, 1)).astype(np.int64)
    images -= p * (images // p)  # mod p; numpy vectorizes // but not %
    weights = np.left_shift(1, _digit_bits(p) * np.arange(gens.shape[1], dtype=np.int64))
    return images @ weights


@lru_cache(maxsize=None)
def _digit_grid(p: int, n_digits: int) -> np.ndarray:
    """Row c: the base-p digits of c, least significant first, as floats.
    Every grid is kept: as p^N <= DENSE_CAP, a grid of at most ceil(N/2)
    digits has at most sqrt(p * DENSE_CAP) rows (24,649 rows, 0.4 MB, at
    p = 157 and N = 3)."""
    grid = np.indices((p,) * n_digits, dtype=np.float64)
    digits = np.ascontiguousarray(grid.reshape(n_digits, p ** n_digits)[::-1].T)
    digits.setflags(write=False)
    return digits


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


def orbit_bfs(gens: np.ndarray, start: np.ndarray, p: int, space: int, tables=None):
    """Closure of `start` under flattened prime-field generators.

    Returns (ids, parent, genlab, index). `ids` lists point codes in
    discovery order, at most `space` of them, `parent`/`genlab` encode
    the Schreier forest, and `index` is the sorted array of
    (code << POS_BITS) | position, one entry a point. A generator that
    is not injective can make a point appear twice.

    `tables`, if given, is a caller's cache (lo rows, hi rows) of the
    image tables of a prefix of `gens`, one row a generator; a search
    that needs tables appends the rows of the others.

    The visited table is the shared scratch buffer, so the kernel is not
    re-entrant.
    """
    global _scratch
    assert space <= DENSE_CAP, "space exceeds the dense table cap"
    if _scratch.size < space:
        _scratch = np.full(space, -1, np.int32)
    visited = _scratch[:space]
    try:
        ids, parent, genlab = _search(gens, start, p, visited, tables)
        index = _index(visited, ids)
    except BaseException:
        _scratch = _EMPTY  # slots may be left set: start from a fresh table
        raise
    return ids, parent, genlab, index


def _index(visited, ids):
    """The sorted (code << POS_BITS) | position of every listed point,
    with the visited table reset to all -1. An orbit of an eighth of the
    space or more reads its codes off the table in order, which costs
    less than a sort there, unless a code was listed twice."""
    if 8 * ids.size >= visited.size:
        codes = np.flatnonzero(visited >= 0)
        if codes.size == ids.size:
            index = (codes << POS_BITS) | visited[codes]
            visited.fill(-1)
            return index
    visited[ids] = -1
    return np.sort((ids << POS_BITS) | np.arange(ids.size, dtype=np.int64))


def _grown(ids, parent, genlab, count: int, need: int, space: int) -> tuple:
    """The discovery arrays, doubled (at least to `need` rows, at most to
    `space`), with their first `count` rows copied."""
    rows = min(max(2 * ids.size, need), space)
    out = []
    for a in (ids, parent, genlab):
        b = np.empty(rows, a.dtype)
        b[:count] = a[:count]
        out.append(b)
    return tuple(out)


def _search(gens, start, p, visited, tables):
    """The frontier loop: (ids, parent, genlab), with visited
    holding each found point's position and -1 elsewhere."""
    space = visited.size
    gens = np.ascontiguousarray(gens, dtype=np.int64)
    start = np.ascontiguousarray(start, dtype=np.int64)
    n_coords = start.shape[0]
    bits = _digit_bits(p)
    # p^N <= DENSE_CAP keeps N*bits <= 39 (at p = 3), so a sum of two
    # packed images, below 2^(N*bits), fits an int64 with room to spare.
    assert n_coords * bits <= 48, "packed images exceed 48 bits"
    rows = min(space, _FIRST_ROWS)
    ids = np.empty(rows, np.int64)
    parent = np.empty(rows, np.int32)
    genlab = np.empty(rows, np.int16)

    powers = p ** np.arange(n_coords, dtype=np.int64)
    gens_t = gens.transpose(0, 2, 1)
    m = n_coords // 2
    split = p ** m
    lo_img, hi_img = ([], []) if tables is None else tables
    unpack = None  # set once the image tables exist

    sid = int(start @ powers)
    ids[0] = sid
    parent[0] = -1
    genlab[0] = -1
    visited[sid] = 0
    count = 1
    lo = 0
    while lo < count:
        hi = count
        if hi - lo <= _SMALL_FRONTIER or n_coords == 1:
            # Row gi: generator gi's images of the decoded frontier. Its
            # sums of N products below p² stay far inside int64.
            images = ids[lo:hi, None] // powers % p @ gens_t % p @ powers
        else:
            if unpack is None:  # the first large frontier
                fresh_gens = gens[len(lo_img):]
                if fresh_gens.size:
                    lo_img.extend(_packed_images(p, 0, m, fresh_gens))
                    hi_img.extend(_packed_images(p, m, n_coords - m, fresh_gens))
                unpack = _unpack_tables(p, n_coords)
            images = _table_images(ids[lo:hi], split, hi_img, lo_img, unpack)
        for gi, img in enumerate(images):
            # An injective generator maps a frontier, which repeats no
            # point, to distinct images, so the new ones need no dedup.
            fresh = np.flatnonzero(visited[img] < 0)
            k = min(fresh.size, space - count)
            if not k:
                continue
            where = fresh[:k]
            if count + k > ids.size:
                ids, parent, genlab = _grown(ids, parent, genlab, count, count + k, space)
            new_ids = ids[count:count + k]
            np.take(img, where, out=new_ids)
            visited[new_ids] = np.arange(count, count + k, dtype=np.int32)
            parent[count:count + k] = lo + where
            genlab[count:count + k] = gi
            count += k
        lo = hi
    if ids.size > _FIRST_ROWS:  # a grown orbit keeps exactly its rows
        return ids[:count].copy(), parent[:count].copy(), genlab[:count].copy()
    return ids[:count], parent[:count], genlab[:count]


def _table_images(frontier, split, hi_img, lo_img, unpack):
    """Each generator's images of the frontier in turn, from its hi and
    lo image tables: two gathers and an add, then the chunk tables reduce
    the packed digits mod p back to a code."""
    f_hi, f_lo = np.divmod(frontier, split)
    (_, mask, table), *rest = unpack  # the first chunk starts at bit 0
    for hi_rows, lo_rows in zip(hi_img, lo_img):
        packed = hi_rows[f_hi] + lo_rows[f_lo]
        img = table[packed & mask]
        for shift_k, mask_k, table_k in rest:
            img += table_k[(packed >> shift_k) & mask_k]
        yield img
