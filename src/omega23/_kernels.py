"""Prime-field orbit kernel.

Breadth-first orbit closure over F_p^N with a dense one-byte seen table,
no matrix products. A point's code is its base-p number, digit k of weight
p^k; split it as hi·p^m + lo with m = ⌊N/2⌋. Since a generator g is
linear, g(v) = g(hi part) + g(lo part), so the kernel tabulates, once
per generator, the images of every hi half and every lo half with their
N digits packed into one int64 at `bits` bits a digit. The image of a
whole frontier is two lookups and an add: every digit of the sum is at
most 2p − 2 < 2^bits, so no field carries into the next. Chunk tables
then reduce the digits mod p and rebuild the base-p code. Tables cost
more than a small orbit: a frontier of at most _SMALL_FRONTIER points,
and every frontier at N = 1, where a digit's chunk table would outgrow
the seen table, is decoded to digits and mapped through all
generators by one int64 matmul instead. So a search tabulates all of
its generators when its first larger frontier appears, and a search
that never sees one builds no tables.

Either way, each frontier is then closed by one loop, one generator at
a time: take the frontier's images under the generator, keep those
whose seen slot is 0 before the generator appends anything, and
append them, as one chunk, in frontier order; the chunks appended
while closing a frontier make up the next. That is the order a
sequential pass (generator by generator, point by point) reaches them,
with no dedup, because the generators must be invertible mod p: an
injective generator maps a frontier, which repeats no point, to
distinct images, so a search lists each point of the orbit once. The
kernel does not check this precondition. `certify.orbit` and
`certify.stabilizer_chain` refuse a singular generator before any
search, and every other generator a chain passes in is a product of
those and their inverses. When a frontier is joined, the joined codes
and parents replace its chunks, so the search holds one array a closed
layer. A chunk's labels are all its generator's, so they are kept as
one (size, label) run, expanded once after the index is built.

The seen table is one module-level uint8 scratch buffer, a byte a point
of the largest space searched, 1 at each point found and all 0 between
calls: it holds no positions. A search resets the slots of the points
it found before it returns, and drops the buffer if it raises. What a
caller keeps is 14 bytes a point: the Schreier vector (int32 parents,
int16 generator labels) and a sorted int64 index of
(code << POS_BITS) | position, which holds every code. The index is
built by one path for every orbit: each code layer becomes its own
entries in place, its codes shifted up and their discovery positions
ORed in below, then the layers are joined and the result sorted.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

DENSE_CAP = 1 << 22  # largest p^N handled by the dense tables
POS_BITS = (DENSE_CAP - 1).bit_length()  # a position or a code fits 22 bits
POS_MASK = (1 << POS_BITS) - 1
_CHUNK_BITS = 12  # unpacking tables hold at most 2^12 entries
_SMALL_FRONTIER = 16  # frontiers up to this many points are mapped without tables

_EMPTY = np.empty(0, np.uint8)
_scratch = _EMPTY  # the seen table: all 0 between calls


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


def _digit_chunks(p: int, width: int, chunk: int):
    """The base-p digit rows of 0, 1, ..., p**width - 1, least significant
    digit first, as (rows, width) int64 arrays of at most `chunk` rows."""
    total = p**width
    for start in range(0, total, chunk):
        rest = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = np.empty((rest.size, width), dtype=np.int64)
        for k in range(width):
            digits[:, k] = rest % p
            rest //= p
        yield digits


@lru_cache(maxsize=None)
def _digit_grid(p: int, n_digits: int) -> np.ndarray:
    """Row c: the base-p digits of c, least significant first, as floats:
    `_digit_chunks` in one chunk. Every grid is kept: as p^N <= DENSE_CAP,
    a grid of at most ceil(N/2) digits has at most sqrt(p * DENSE_CAP)
    rows (24,649 rows, 0.4 MB, at p = 157 and N = 3)."""
    digits = next(_digit_chunks(p, n_digits, p ** n_digits)).astype(np.float64)
    digits.setflags(write=False)
    return digits


@lru_cache(maxsize=None)
def _unpack_tables(p: int, n_coords: int) -> tuple:
    """(shift, mask, table) per chunk of packed digits: table[field]
    is the chunk's digits, each reduced mod p, as a base-p code at its
    own weight. Each table is at most 2^_CHUNK_BITS entries and never
    more than p^n_coords, the size of the seen table."""
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


def orbit_bfs(gens: np.ndarray, start: np.ndarray, p: int, space: int):
    """Closure of `start` under flattened prime-field generators.

    Returns (parent, genlab, index), one entry for each of at most `space`
    points: the Schreier forest, in discovery order, and the sorted array
    of (code << POS_BITS) | position. The generators must be invertible
    mod p (see the module docstring).

    The seen table is the shared scratch buffer, so the kernel is not
    re-entrant.
    """
    global _scratch
    assert space <= DENSE_CAP, "space exceeds the dense table cap"
    if _scratch.size < space:
        _scratch = _EMPTY  # never hold the old and the new table at once
        _scratch = np.zeros(space, np.uint8)
    seen = _scratch[:space]
    try:
        layers, parent, runs = _search(gens, start, p, seen)
        index = _index(seen, layers)
    except BaseException:
        _scratch = _EMPTY  # slots may be left set: start from a fresh table
        raise
    sizes, labels = zip(*runs)
    genlab = np.repeat(np.array(labels, np.int16), sizes)
    return parent, genlab, index


def _index(seen, layers):
    """The sorted (code << POS_BITS) | position of the points in the code
    layers, with their seen slots reset to 0. Each layer array becomes its
    own entries in place, so the only join is of finished entries; the
    layer list is emptied once joined, so no layer outlives the join."""
    pos = 0
    for layer in layers:
        seen[layer] = 0
        layer <<= POS_BITS
        layer |= np.arange(pos, pos + layer.size, dtype=np.int64)
        pos += layer.size
    index = np.concatenate(layers)
    layers.clear()
    index.sort()
    return index


def _search(gens, start, p, seen):
    """The frontier loop: (code layers, parent, label runs), with seen 1
    at each found point and 0 elsewhere. Each layer is one array of codes,
    in discovery order; each run is (size, generator label) of one chunk."""
    gens = np.ascontiguousarray(gens, dtype=np.int64)
    start = np.ascontiguousarray(start, dtype=np.int64)
    n_coords = start.shape[0]
    bits = _digit_bits(p)
    # p^N <= DENSE_CAP keeps N*bits <= 39 (at p = 3), so a sum of two
    # packed images, below 2^(N*bits), fits an int64 with room to spare.
    assert n_coords * bits <= 48, "packed images exceed 48 bits"
    powers = p ** np.arange(n_coords, dtype=np.int64)
    gens_t = gens.transpose(0, 2, 1)
    m = n_coords // 2
    split = p ** m
    tables = None  # (hi rows, lo rows, unpacking tables), from the first large frontier

    sid = int(start @ powers)
    seen[sid] = 1
    # One array a closed layer, then one chunk a generator of the layer
    # being found: codes and parents.
    codes = [np.array([sid], np.int64)]
    parent = [np.array([-1], np.int32)]
    runs = [(1, -1)]
    count = 1
    lo, first = 0, 0  # the frontier's first position and first chunk
    while lo < count:
        # The joined frontier replaces its chunks, which are not kept with it.
        codes[first:] = [frontier := np.concatenate(codes[first:])]
        parent[first:] = [np.concatenate(parent[first:])]
        first = len(codes)
        if frontier.size <= _SMALL_FRONTIER or n_coords == 1:
            # Row gi: generator gi's images of the decoded frontier. Its
            # sums of N products below p² stay far inside int64.
            images = frontier[:, None] // powers % p @ gens_t % p @ powers
        else:
            if tables is None:
                tables = (_packed_images(p, m, n_coords - m, gens),
                          _packed_images(p, 0, m, gens), _unpack_tables(p, n_coords))
            images = _table_images(frontier, split, *tables)
        for gi, img in enumerate(images):
            # An injective generator maps a frontier, which repeats no
            # point, to distinct images, so the new ones need no dedup.
            where = np.flatnonzero(seen[img] == 0)
            k = where.size
            if not k:
                continue
            new_codes = img[where]
            seen[new_codes] = 1
            codes.append(new_codes)
            parent.append((lo + where).astype(np.int32))
            runs.append((k, gi))
            count += k
        lo += frontier.size
    return codes, np.concatenate(parent), runs


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
