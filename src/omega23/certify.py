"""Exact group-order certification.

Randomized Schreier-Sims on the natural action on F_q^n, with two sound
exits: reaching a pre-verified target order (the product of orbit sizes
can never exceed the generated group's order), or a run of trivial sifts
followed by a full deterministic Schreier-generator verification. Budget
or table-size exhaustion yields Inconclusive, never a wrong order.

Vectors over F_{p^f} are flattened to F_p^{nf} through the regular
representation of the field (the block form `linalg._block_form` that
`Matrix @` multiplies through), so the orbit kernel (`_kernels.orbit_bfs`)
works on base-p point codes over F_p: it maps a whole frontier through
per-generator image tables of half-vectors, with no matrix product per
point. Its discovery order fixes the Schreier trees, and so the
transversals, the residues and the later base vectors: the same seed
gives the same chain on every machine.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from . import resolved_seed
from ._kernels import DENSE_CAP, ORBIT_CAP, POS_BITS, POS_MASK, orbit_bfs
from .fields import FieldCtx, elem_to_json
from .forms import OrthoSpace, in_omega, omega_order
from .generators import GenPair, WrongCase
from .linalg import Matrix, _block_form, unit_vector
from .verify import _s9_restrictions


class CertifyError(Exception):
    pass


class DimensionMismatch(CertifyError):
    pass


class OrbitCapExceeded(CertifyError):
    pass


class StateSpaceTooLarge(CertifyError):
    pass


class BudgetExceeded(CertifyError):
    def __init__(self, message, partial_order=1, base_size=0, orbit_sizes=()):
        super().__init__(message)
        self.partial_order = partial_order
        self.base_size = base_size
        self.orbit_sizes = tuple(orbit_sizes)


TRIVIAL_SIFT_RUN = 64
_TRANSVERSAL_CACHE_LIMIT = 65536
_PRA_SLOTS = 10
_PRA_BURN_IN = 64


# ---------------------------------------------------------------------------
# point ids of flattened vectors in F_p^{nf}


def _encode(vec: np.ndarray, powers: np.ndarray) -> int:
    return int(np.asarray(vec, dtype=np.int64).reshape(-1) @ powers)


def _decode(pid: int, p: int, n: int, f: int) -> np.ndarray:
    digits = np.empty(n * f, dtype=np.int64)
    t = pid
    for k in range(n * f):
        digits[k] = t % p
        t //= p
    return digits.reshape(n, f)


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
        return _decode(int(self.ids[pos]), self.ctx.p, self.n, self.ctx.f)


def orbit(gens, v, cap: int = ORBIT_CAP) -> Orbit:
    """Breadth-first closure of the vector v under the given invertible
    matrices. A cap below 1 holds not even v, so it raises
    OrbitCapExceeded."""
    gens = tuple(gens)
    if not gens:
        raise CertifyError("orbit needs at least one generator")
    ctx = gens[0].ctx
    n = gens[0].rows
    for g in gens:
        if g.rows != n or g.cols != n or g.ctx is not ctx:
            raise DimensionMismatch("generators must be square, same size, same field")
    vec = np.asarray(v, dtype=np.int64) % ctx.p
    if vec.shape != (n, ctx.f):
        raise DimensionMismatch(f"vector shape {vec.shape} does not match ({n}, {ctx.f})")
    space = ctx.p ** (n * ctx.f)
    if space > DENSE_CAP:
        raise StateSpaceTooLarge(
            f"p^(n*f) = {space} exceeds the dense table cap {DENSE_CAP}")
    flat = np.stack([_block_form(ctx, g.data) for g in gens])
    status, ids, parent, genlab, index = orbit_bfs(
        flat, vec.reshape(-1), ctx.p, space, cap=cap)
    codes = index >> POS_BITS
    if not np.all(codes[1:] > codes[:-1]):
        # The kernel relies on injective generators; a point found twice
        # shows a singular one. Without such a repeat the closure is exact.
        raise CertifyError("generators must be invertible")
    if status:
        raise OrbitCapExceeded(f"orbit exceeded the cap of {cap} points")
    return Orbit(ctx=ctx, n=n, ids=ids, parent=parent,
                 genlab=genlab, index=index)


# ---------------------------------------------------------------------------
# stabilizer chain


class Level:
    """One link: a base vector, its generators, and the orbit machinery.

    The orbit's parent/genlab arrays are its Schreier vector. A coset
    representative u(pos), and its inverse, is built on first use by
    walking the Schreier tree up to the nearest memoized ancestor
    (Seress, Permutation Group Algorithms, 2003, ch. 4); each memo keeps
    at most _TRANSVERSAL_CACHE_LIMIT matrices and walks without storing
    past that.
    """

    __slots__ = ("base_vec", "base_id", "gens", "orbit", "_u", "_u_inv", "_gen_inv")

    def __init__(self, base_vec, gens):
        self.base_vec = base_vec
        self.base_id = None
        self.gens = list(gens)
        self.orbit = None
        self._u = {}
        self._u_inv = {}
        self._gen_inv = {}

    def recompute(self, cap):
        self.orbit = orbit(self.gens, self.base_vec, cap=cap)
        self.base_id = int(self.orbit.ids[0])
        one = Matrix.identity(self.orbit.ctx, self.orbit.n)
        self._u = {0: one}
        self._u_inv = {0: one}

    def _walk(self, pos: int, memo: dict, step) -> Matrix:
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

    def _inv_gen(self, lbl: int) -> Matrix:
        got = self._gen_inv.get(lbl)
        if got is None:
            got = self._gen_inv[lbl] = self.gens[lbl].inverse()
        return got

    def u(self, pos: int) -> Matrix:
        """The transversal element mapping the base vector to orbit[pos]."""
        return self._walk(pos, self._u, lambda m, lbl: self.gens[lbl] @ m)

    def u_inv(self, pos: int) -> Matrix:
        return self._walk(pos, self._u_inv, lambda m, lbl: m @ self._inv_gen(lbl))


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
        residue, _ = _sift_from(self.levels, g, 0)
        return residue


def _sift_from(levels, g: Matrix, start: int):
    """Sift through levels[start:]. Returns (residue or None, stuck level)."""
    ctx = g.ctx
    powers = None
    for i in range(start, len(levels)):
        lv = levels[i]
        img = g @ lv.base_vec
        if powers is None:
            powers = ctx.p ** np.arange(img.size, dtype=np.int64)
        pid = _encode(img, powers)
        pos = lv.orbit.position(pid)
        if pos < 0:
            return g, i
        g = lv.u_inv(pos) @ g
    return (None if g.is_identity() else g), len(levels)


class _RandomElements:
    """Product-replacement stream over the generating set."""

    def __init__(self, gens, seed):
        self.rng = random.Random(seed)
        inverses = [g.inverse() for g in gens]
        slots, slot_invs = list(gens), list(inverses)
        while len(slots) < _PRA_SLOTS:
            k = len(slots) % len(gens)
            slots.append(gens[k])
            slot_invs.append(inverses[k])
        self.slots = slots
        self.slot_invs = slot_invs  # slot_invs[i] is slots[i]'s inverse
        self.acc = Matrix.identity(gens[0].ctx, gens[0].rows)
        for _ in range(_PRA_BURN_IN):
            self._step()

    def _step(self):
        rng = self.rng
        slots, invs = self.slots, self.slot_invs
        i = rng.randrange(len(slots))
        j = rng.randrange(len(slots) - 1)
        if j >= i:
            j += 1
        other, other_inv = slots[j], invs[j]
        if rng.random() < 0.5:
            other, other_inv = other_inv, other
        if rng.random() < 0.5:
            slots[i] = slots[i] @ other
            invs[i] = other_inv @ invs[i]
        else:
            slots[i] = other @ slots[i]
            invs[i] = invs[i] @ other_inv
        self.acc = self.acc @ slots[i]

    def __next__(self) -> Matrix:
        self._step()
        return self.acc


class _ChainBuilder:
    def __init__(self, gens, seed, cap, budget_seconds):
        self.gens = tuple(gens)
        self.seed = seed
        self.cap = cap
        self.levels = []
        self.deadline = (
            time.monotonic() + budget_seconds if budget_seconds else None)

    def order(self) -> int:
        out = 1
        for lv in self.levels:
            out *= lv.orbit.size
        return out

    def _check_budget(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded(
                "time budget exhausted",
                partial_order=self.order(),
                base_size=len(self.levels),
                orbit_sizes=[lv.orbit.size for lv in self.levels],
            )

    def _new_base_vector(self, g: Matrix):
        ctx = g.ctx
        for j in range(g.cols):
            col = g.data[:, j]
            ej = unit_vector(ctx, g.rows, j)
            if not np.array_equal(col, ej):
                return ej
        raise CertifyError("identity residue cannot open a level")

    def _absorb(self, residue: Matrix, idx: int):
        """Add a residue stuck at level idx, opening a new level past the end."""
        if idx == len(self.levels):
            lv = Level(self._new_base_vector(residue), [residue])
            self.levels.append(lv)
        else:
            lv = self.levels[idx]
            lv.gens.append(residue)
        lv.recompute(self.cap)

    def feed(self, g: Matrix) -> bool:
        """Sift g; absorb a nontrivial residue. True if the chain grew."""
        residue, idx = _sift_from(self.levels, g, 0)
        if residue is None:
            return False
        self._check_budget()
        self._absorb(residue, idx)
        return True

    def verify_schreier(self) -> bool:
        """Deterministic closure test; absorbs the first bad residue."""
        powers = None
        for i in range(len(self.levels) - 1, -1, -1):
            lv = self.levels[i]
            ctx = lv.orbit.ctx
            if powers is None:
                powers = ctx.p ** np.arange(
                    lv.orbit.n * ctx.f, dtype=np.int64)
            for pos in range(lv.orbit.size):
                if pos % 1024 == 0:
                    self._check_budget()
                u_pt = lv.u(pos)
                for s in lv.gens:
                    w = s @ u_pt
                    pid = _encode(w @ lv.base_vec, powers)
                    pos2 = lv.orbit.position(pid)
                    schreier = lv.u_inv(pos2) @ w
                    if schreier.is_identity():
                        continue
                    residue, idx = _sift_from(self.levels, schreier, i + 1)
                    if residue is not None:
                        self._absorb(residue, idx)
                        return False
        return True

    def build(self, target) -> StabilizerChain:
        for g in self.gens:
            if not g.det().any():
                raise CertifyError("generators must be invertible")
            self.feed(g)
        stream = _RandomElements(self.gens, self.seed)
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
        for lv in self.levels:
            lv.gens = tuple(lv.gens)
        return StabilizerChain(
            base=tuple(lv.base_vec for lv in self.levels),
            levels=tuple(self.levels),
            order=self.order(),
            verified=verified,
            seed=self.seed,
        )


def stabilizer_chain(gens, target: int | None = None, seed: int | None = None,
                     cap: int = ORBIT_CAP,
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
    builder = _ChainBuilder(gens, seed, cap, budget_seconds)
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
        return {
            "n": self.n,
            "q": self.q,
            "a": self.a,
            "eps": self.eps,
            "computed_order": str(self.computed_order),
            "target_order": str(self.target_order),
            "verdict": self.verdict,
            "seed": self.seed,
            "base_size": self.base_size,
            "orbit_sizes": list(self.orbit_sizes),
            "elapsed_ms": self.elapsed_ms,
        }


def _restricted_space(pair: GenPair) -> OrthoSpace:
    k = pair.n - 9
    j9 = Matrix(pair.ctx, pair.space.J.data[k:, k:])
    return OrthoSpace(n=9, ctx=pair.ctx, J=j9, eps="circ")


def certify_generation(pair: GenPair, restrict_to_s9: bool = False,
                       seed: int | None = None,
                       budget_seconds: float | None = None,
                       cap: int = ORBIT_CAP) -> CertResult:
    """Compare the order of the generated group against the closed formula.

    Full mode certifies <x, y> against the ambient group's order; restricted
    mode (even/odd tail families only) certifies the action of <y, tau> on
    the distinguished 9-dimensional subspace against the 9-dimensional
    target. Verdicts: Generates (orders equal), ProperSubgroup (computed
    order properly divides the target), Inconclusive (budget or table caps
    hit, or - without pre-verified containment - an order incompatible
    with the target; the certificate then carries the best exact or
    partial order known, never a wrong one).
    """
    t0 = time.perf_counter()
    seed = resolved_seed(seed)
    ctx = pair.ctx
    if restrict_to_s9:
        if pair.tag.case == "A":
            raise WrongCase("restricted certification needs an S9 tail family")
        y9, t9, _ = _s9_restrictions(pair)
        gens = (y9, t9)
        space = _restricted_space(pair)
        target = omega_order(9, "circ", ctx.q)
        eps = "circ"
        contained = all(in_omega(space, g).ok for g in gens)
    else:
        gens = (pair.x, pair.y)
        space = pair.space
        target = omega_order(pair.n, pair.space.eps, ctx.q)
        eps = pair.space.eps
        contained = pair.x_in_omega.ok and pair.y_in_omega.ok

    verdict = "Inconclusive"
    computed = 1
    base_size = 0
    orbit_sizes = ()
    try:
        chain = stabilizer_chain(
            gens,
            target=target if contained else None,
            seed=seed,
            cap=cap,
            budget_seconds=budget_seconds,
        )
        computed = chain.order
        base_size = len(chain.base)
        orbit_sizes = chain.orbit_sizes
        if contained and target % computed != 0:
            raise CertifyError(
                "computed order does not divide the target despite verified "
                "containment")
        if computed == target:
            verdict = "Generates"
        elif computed < target and target % computed == 0:
            verdict = "ProperSubgroup"
    except BudgetExceeded as stop:
        computed = stop.partial_order
        base_size = stop.base_size
        orbit_sizes = stop.orbit_sizes
    except (OrbitCapExceeded, StateSpaceTooLarge):
        pass

    return CertResult(
        n=space.n,
        q=ctx.q,
        a=elem_to_json(ctx, pair.a),
        eps=eps,
        computed_order=computed,
        target_order=target,
        verdict=verdict,
        seed=seed,
        base_size=base_size,
        orbit_sizes=orbit_sizes,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )
