"""Exact group-order certification.

Randomized Schreier-Sims on the natural action on F_q^n, with two sound
exits: reaching a pre-verified target order (the product of orbit sizes
can never exceed the generated group's order), or a run of trivial sifts
followed by a full deterministic Schreier-generator verification. Budget
or table-size exhaustion yields Inconclusive, never a wrong order.

Inside the chain a group element is the (nf, nf) int64 F_p block form
that a `Matrix` over F_{p^f} holds (`Matrix.blocks`, an injective ring
map), so a product is A.dot(B) % p (exact as p^(nf) <= DENSE_CAP; `dot`
skips the dispatch of `@`, a sixth of a 13 x 13 product). The chain reads
`g.blocks` at `orbit`, `stabilizer_chain` and `StabilizerChain.sift`, and
wraps a block form back into a Matrix only to invert it or to return a
residue.
The orbit kernel (`_kernels.orbit_bfs`) maps a whole frontier of base-p
point codes through per-generator image tables, which each level keeps
between recomputes. Its discovery order fixes the Schreier trees, and so
the transversals, the residues and the later base vectors: the same seed
gives the same chain on every machine.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import resolved_seed
from ._kernels import DENSE_CAP, POS_BITS, POS_MASK, orbit_bfs
from .fields import FieldCtx, elem_to_json
from .forms import OrthoSpace, in_omega, omega_order
from .generators import GenPair, WrongCase
from .linalg import Matrix, _eye, unit_vector
from .verify import _s9_restrictions


class CertifyError(Exception):
    pass


class DimensionMismatch(CertifyError):
    pass


class StateSpaceTooLarge(CertifyError):
    pass


class BudgetExceeded(CertifyError):
    def __init__(self, message, orbit_sizes=()):
        super().__init__(message)
        self.orbit_sizes = tuple(orbit_sizes)  # of the chain built so far


TRIVIAL_SIFT_RUN = 64
_TRANSVERSAL_CACHE_LIMIT = 65536
_PRA_SLOTS = 10
_PRA_BURN_IN = 64


# ---------------------------------------------------------------------------
# orbits


@dataclass(frozen=True)
class Orbit:
    ctx: FieldCtx
    n: int
    ids: np.ndarray
    parent: np.ndarray
    genlab: np.ndarray
    index: np.ndarray  # sorted (code << POS_BITS) | position, one entry a point
    powers: np.ndarray  # p^k for each of the n·f coordinates of F_p^{nf}

    @property
    def size(self) -> int:
        return int(self.ids.shape[0])

    def position(self, pid: int) -> int:
        """Discovery position of a point code; -1 if it is not in the orbit."""
        if not 0 <= pid < DENSE_CAP:
            return -1
        index = self.index
        at = index.searchsorted(pid << POS_BITS)  # a third of np.searchsorted's call cost
        if at < index.size:
            entry = int(index[at])
            if entry >> POS_BITS == pid:
                return entry & POS_MASK
        return -1

    def positions(self, codes) -> np.ndarray:
        """position() of every code in an int64 array, as one array."""
        codes = np.asarray(codes, dtype=np.int64)
        index = self.index
        entry = index[np.minimum(index.searchsorted(codes << POS_BITS), index.size - 1)]
        # A code outside [0, DENSE_CAP) can match no entry, even where
        # its shift wraps around.
        return np.where(entry >> POS_BITS == codes, entry & POS_MASK, -1)

    def vector(self, pos: int) -> np.ndarray:
        """The (n, f) vector at a discovery position: the point code's base-p digits."""
        digits = int(self.ids[pos]) // self.powers % self.ctx.p
        return digits.reshape(self.n, self.ctx.f)


def orbit(gens, v) -> Orbit:
    """Breadth-first closure of the vector v under the given invertible
    matrices. A singular generator is refused when it makes a point
    appear twice."""
    gens = tuple(gens)
    if not gens:
        raise CertifyError("orbit needs at least one generator")
    ctx, n = _shape_of(gens)
    vec = np.asarray(v, dtype=np.int64) % ctx.p
    if vec.shape != (n, ctx.f):
        raise DimensionMismatch(f"vector shape {vec.shape} does not match ({n}, {ctx.f})")
    return _orbit(ctx, np.stack([g.blocks for g in gens]), vec)


def _orbit(ctx: FieldCtx, flat: np.ndarray, vec: np.ndarray, tables=None) -> Orbit:
    """orbit() under (k, nf, nf) block forms, with orbit_bfs's table cache."""
    space = ctx.p ** vec.size
    if space > DENSE_CAP:
        raise StateSpaceTooLarge(
            f"p^(n*f) = {space} exceeds the dense table cap {DENSE_CAP}")
    ids, parent, genlab, index = orbit_bfs(flat, vec.reshape(-1), ctx.p, space, tables)
    codes = index >> POS_BITS
    if not np.all(codes[1:] > codes[:-1]):
        # The kernel relies on injective generators; a point found twice
        # shows a singular one. Without such a repeat the closure is exact:
        # the search stops at closure or with every point of the space.
        raise CertifyError("generators must be invertible")
    return Orbit(ctx=ctx, n=vec.shape[0], ids=ids, parent=parent, genlab=genlab,
                 index=index, powers=ctx.p ** np.arange(vec.size, dtype=np.int64))


def _shape_of(gens) -> tuple:
    """(field, n) of square matrices that share one size and one field."""
    ctx, n = gens[0].ctx, gens[0].rows
    for g in gens:
        if g.rows != n or g.cols != n or g.ctx is not ctx:
            raise DimensionMismatch("generators must be square, same size, same field")
    return ctx, n


# ---------------------------------------------------------------------------
# stabilizer chain


class Level:
    """One link: a unit base vector e_j, its generators, and the orbit
    machinery. Group elements are (nf, nf) F_p block forms, as
    `Matrix.blocks` holds them; g maps e_j to column j*f of g. The
    orbit's parent/genlab arrays are its Schreier vector. A coset
    representative u(pos), and its inverse, is built on first use by
    walking the Schreier tree up to the nearest memoized ancestor (Seress,
    Permutation Group Algorithms, 2003, ch. 4); each memo keeps at most
    _TRANSVERSAL_CACHE_LIMIT elements and walks without storing past that. `tables` caches the kernel's image tables of the
    generators, so a recompute after an append tabulates only the new one.
    """

    __slots__ = ("ctx", "base_vec", "base_col", "gens", "orbit", "tables", "_u", "_u_inv", "_gen_inv")

    def __init__(self, ctx: FieldCtx, base_vec, gens):
        self.ctx = ctx
        self.base_vec = base_vec
        self.base_col = int(np.flatnonzero(base_vec.reshape(-1))[0])
        self.gens = list(gens)
        self.orbit = None
        self.tables = ([], [])
        self._u = {}
        self._u_inv = {}
        self._gen_inv = {}

    def recompute(self):
        self.orbit = _orbit(self.ctx, np.stack(self.gens), self.base_vec, self.tables)
        one = _eye(self.orbit.powers.size)
        self._u = {0: one}
        self._u_inv = {0: one}

    def position(self, g: np.ndarray) -> int:
        """The orbit position of g's image of the base vector; -1 if none."""
        o = self.orbit
        return o.position(int(o.powers @ g[:, self.base_col]))

    def _walk(self, pos: int, memo: dict, step) -> np.ndarray:
        path = []
        while pos not in memo:
            path.append(pos)
            pos = int(self.orbit.parent[pos])
        m = memo[pos]
        genlab = self.orbit.genlab
        for at in reversed(path):
            m = step(m, int(genlab[at]))
            if len(memo) < _TRANSVERSAL_CACHE_LIMIT:
                memo[at] = m
        return m

    def _inv_gen(self, lbl: int) -> np.ndarray:
        got = self._gen_inv.get(lbl)
        if got is None:
            got = Matrix._from_blocks(self.ctx, self.gens[lbl]).inverse().blocks
            self._gen_inv[lbl] = got
        return got

    def u(self, pos: int) -> np.ndarray:
        """The transversal element mapping the base vector to orbit[pos]."""
        return self._walk(pos, self._u, lambda m, lbl: self.gens[lbl].dot(m) % self.ctx.p)

    def u_inv(self, pos: int) -> np.ndarray:
        return self._walk(pos, self._u_inv, lambda m, lbl: m.dot(self._inv_gen(lbl)) % self.ctx.p)


@dataclass(frozen=True)
class StabilizerChain:
    base: tuple
    levels: tuple
    order: int
    verified: bool
    seed: int

    @property
    def orbit_sizes(self) -> tuple:
        return tuple(lv.orbit.size for lv in self.levels)

    def sift(self, g: Matrix):
        """Residue after dividing out transversal elements; None if identity."""
        residue, _ = _sift_from(self.levels, g.blocks, 0)
        return None if residue is None else Matrix._from_blocks(g.ctx, residue)


def _sift_from(levels, g: np.ndarray, start: int):
    """Sift a block form through levels[start:]: (residue or None, stuck level)."""
    for i in range(start, len(levels)):
        lv = levels[i]
        pos = lv.position(g)
        if pos < 0:
            return g, i
        g = lv.u_inv(pos).dot(g) % lv.ctx.p
    # products are C-contiguous int64, so equal bytes mean equal entries
    return (None if g.tobytes() == _eye(len(g)).tobytes() else g), len(levels)


class _RandomElements:
    """Product-replacement stream over block-form generators."""

    def __init__(self, ctx: FieldCtx, gens, seed):
        self.p = ctx.p
        self.rng = random.Random(seed)
        inverses = [Matrix._from_blocks(ctx, g).inverse().blocks for g in gens]
        cycle = range(max(len(gens), _PRA_SLOTS))
        self.slots = [gens[i % len(gens)] for i in cycle]
        self.slot_invs = [inverses[i % len(gens)] for i in cycle]  # slots[i]'s inverse
        self.acc = _eye(gens[0].shape[0])
        for _ in range(_PRA_BURN_IN):
            self._step()

    def _step(self):
        rng, p = self.rng, self.p
        slots, invs = self.slots, self.slot_invs
        i = rng.randrange(len(slots))
        j = rng.randrange(len(slots) - 1)
        if j >= i:
            j += 1
        other, other_inv = slots[j], invs[j]
        if rng.random() < 0.5:
            other, other_inv = other_inv, other
        if rng.random() < 0.5:
            slots[i] = slots[i].dot(other) % p
            invs[i] = other_inv.dot(invs[i]) % p
        else:
            slots[i] = other.dot(slots[i]) % p
            invs[i] = invs[i].dot(other_inv) % p
        self.acc = self.acc.dot(slots[i]) % p

    def __next__(self) -> np.ndarray:
        self._step()
        return self.acc


class _ChainBuilder:
    def __init__(self, gens, seed, budget_seconds):
        self.gens = gens  # matrices over F_q
        self.ctx, self.n = _shape_of(gens)
        self.seed = seed
        self.levels = []
        if budget_seconds is not None and not budget_seconds >= 0:  # NaN would never pass
            raise CertifyError(f"budget {budget_seconds} is not a number of seconds >= 0")
        self.deadline = None if budget_seconds is None else time.monotonic() + budget_seconds

    def order(self) -> int:
        return math.prod(lv.orbit.size for lv in self.levels)

    def _check_budget(self):
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise BudgetExceeded("time budget exhausted",
                                 [lv.orbit.size for lv in self.levels])

    def _new_base_vector(self, g: np.ndarray):
        f = self.ctx.f
        for j in range(self.n):
            ej = unit_vector(self.ctx, self.n, j)
            if not np.array_equal(g[:, j * f], ej.reshape(-1)):
                return ej
        raise CertifyError("identity residue cannot open a level")

    def _absorb(self, residue: np.ndarray, idx: int):
        """Add a residue stuck at level idx, opening a new level past the end."""
        if idx == len(self.levels):
            lv = Level(self.ctx, self._new_base_vector(residue), [residue])
            self.levels.append(lv)
        else:
            lv = self.levels[idx]
            lv.gens.append(residue)
        lv.recompute()

    def feed(self, g: np.ndarray) -> bool:
        """Sift g; absorb a nontrivial residue. True if the chain grew."""
        residue, idx = _sift_from(self.levels, g, 0)
        if residue is None:
            return False
        self._check_budget()
        self._absorb(residue, idx)
        return True

    def verify_schreier(self) -> bool:
        """Deterministic closure test; absorbs the first bad residue."""
        for i in range(len(self.levels) - 1, -1, -1):
            lv = self.levels[i]
            for pos in range(lv.orbit.size):
                if pos % 1024 == 0:
                    self._check_budget()
                u_pt = lv.u(pos)
                for s in lv.gens:
                    w = s.dot(u_pt) % self.ctx.p
                    schreier = lv.u_inv(lv.position(w)).dot(w) % self.ctx.p
                    if schreier.tobytes() == _eye(len(schreier)).tobytes():
                        continue
                    residue, idx = _sift_from(self.levels, schreier, i + 1)
                    if residue is not None:
                        self._absorb(residue, idx)
                        return False
        return True

    def build(self, target) -> StabilizerChain:
        flat = [g.blocks for g in self.gens]
        for g, b in zip(self.gens, flat):
            if not g.det().any():
                raise CertifyError("generators must be invertible")
            self.feed(b)
        stream = _RandomElements(self.ctx, flat, self.seed)
        trivial_run = 0
        verified = False
        while True:
            self._check_budget()
            current = self.order()
            if target is not None:
                if current == target:
                    break
                if current > target:
                    raise CertifyError(
                        "chain order exceeds the target; containment "
                        "assumption violated")
            g = next(stream)
            if self.feed(g):
                trivial_run = 0
            else:
                trivial_run += 1
                if trivial_run >= TRIVIAL_SIFT_RUN:
                    if self.verify_schreier():
                        verified = True
                        break
                    trivial_run = 0
        for lv in self.levels:  # freeze; the finished chain needs no image tables
            lv.gens, lv.tables = tuple(lv.gens), None
        return StabilizerChain(
            base=tuple(lv.base_vec for lv in self.levels),
            levels=tuple(self.levels),
            order=self.order(),
            verified=verified,
            seed=self.seed,
        )


def stabilizer_chain(gens, target: int | None = None, seed: int | None = None,
                     budget_seconds: float | None = None) -> StabilizerChain:
    """Randomized Schreier-Sims with sound termination.

    With a target (caller must have verified the generated group's order
    divides it, e.g. by containment in a known group), the build stops as
    soon as the chain order reaches the target: the product of orbit sizes
    never exceeds the generated order. Without a target, a run of 64
    trivial random sifts is always followed by the full deterministic
    Schreier-generator verification, so the returned order is exact.
    """
    gens = tuple(gens)
    seed = resolved_seed(seed)
    if not gens:
        return StabilizerChain(base=(), levels=(), order=1, verified=True, seed=seed)
    builder = _ChainBuilder(gens, seed, budget_seconds)
    return builder.build(target)


# ---------------------------------------------------------------------------
# certification front end


@dataclass(frozen=True)
class CertResult:
    n: int
    q: int
    a: object
    eps: str
    computed_order: int
    target_order: int
    verdict: str
    seed: int
    base_size: int
    orbit_sizes: tuple
    elapsed_ms: float

    def to_json(self) -> dict:
        return {**asdict(self), "computed_order": str(self.computed_order),
                "target_order": str(self.target_order),
                "orbit_sizes": list(self.orbit_sizes)}


def certify_generation(pair: GenPair, restrict_to_s9: bool = False,
                       seed: int | None = None,
                       budget_seconds: float | None = None) -> CertResult:
    """Compare the order of the generated group against the closed formula.

    Full mode certifies <x, y> against the ambient group's order; restricted
    mode (even/odd tail families only) certifies the action of <y, tau> on
    the distinguished 9-dimensional subspace against the 9-dimensional
    target. Verdicts: Generates (orders equal), ProperSubgroup (computed
    order properly divides the target), Inconclusive (budget exhausted, a
    state space past DENSE_CAP, or - without pre-verified containment - an
    order incompatible with the target; the certificate then carries the
    best exact or partial order known, never a wrong one).
    """
    t0 = time.perf_counter()
    seed = resolved_seed(seed)
    ctx = pair.ctx
    if restrict_to_s9:
        if pair.tag.case == "A":
            raise WrongCase("restricted certification needs an S9 tail family")
        gens = _s9_restrictions(pair)[:2]  # y and tau on the 9-dimensional subspace
        k = pair.n - 9
        space = OrthoSpace(n=9, ctx=ctx, J=Matrix(ctx, pair.space.J.data[k:, k:]), eps="circ")
        contained = all(in_omega(space, g).ok for g in gens)
    else:
        gens = (pair.x, pair.y)
        space = pair.space
        contained = pair.x_in_omega.ok and pair.y_in_omega.ok
    target = omega_order(space.n, space.eps, ctx.q)

    verdict = "Inconclusive"
    orbit_sizes = ()  # of the chain, or of the partial chain a budget stops
    try:
        orbit_sizes = stabilizer_chain(gens, target if contained else None, seed,
                                       budget_seconds).orbit_sizes
        computed = math.prod(orbit_sizes)
        if contained and target % computed != 0:
            raise CertifyError(
                "computed order does not divide the target despite verified "
                "containment")
        if computed == target:
            verdict = "Generates"
        elif computed < target and target % computed == 0:
            verdict = "ProperSubgroup"
    except BudgetExceeded as stop:
        orbit_sizes = stop.orbit_sizes
    except StateSpaceTooLarge:
        pass

    return CertResult(
        n=space.n,
        q=ctx.q,
        a=elem_to_json(ctx, pair.a),
        eps=space.eps,
        computed_order=math.prod(orbit_sizes),
        target_order=target,
        verdict=verdict,
        seed=seed,
        base_size=len(orbit_sizes),
        orbit_sizes=orbit_sizes,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )
