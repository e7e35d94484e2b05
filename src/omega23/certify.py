"""Exact group-order certification.

Randomized Schreier-Sims on the natural action on F_q^n. A chain's order,
the product of its orbit sizes, is a lower bound on the generated group's;
a verdict names the upper bound it proves, and the one proved today is
containment in Omega. So Generates needs both generators in Omega and a
chain that reaches |Omega|, and every other outcome is Inconclusive; that
rule is `generation_verdict`, over any generators and quadratic space. A run
of trivial sifts followed by `verify_schreier` proves no bound: that test
covers only the Schreier generators of each level's own generators, and
passes S3 = <(0 1), (1 2)> at order 4 without random sifts.

Inside the chain a group element is the (nf, nf) int64 F_p block form
that a `Matrix` over F_{p^f} holds (`Matrix.blocks`, an injective ring
map), so a product is A.dot(B) % p (exact as p^(nf) <= DENSE_CAP; `dot`
skips the dispatch of `@`, a sixth of a 13 x 13 product). A chain given
the quadratic space its generators preserve reads every inverse off the
space's trace form: with K the F_p Gram matrix of Tr o B on F_p^{nf},
g^-1 = K^-1 g^T K for every product g of isometries (G. E. Wall, Publ.
IHES 1, 1959), two products, and K^-1 is the chain's one elimination.
Without a space an inverse is one Gauss-Jordan elimination over F_p
(`linalg._block_inverse`). The chain reads `g.blocks` at `orbit`,
`stabilizer_chain` and `StabilizerChain.sift`, and wraps a block form
back into a Matrix only to return a residue.
The orbit kernel (`_kernels.orbit_bfs`) computes a frontier's images
by one matmul on its decoded base-p digits while it is small (always
at N = 1), and from per-generator image tables once it is not; either
way one loop appends them, generator by generator. An orbit keeps its
Schreier vector and the sorted index of its codes, 14 bytes a point. A
level holds its generators with their inverses: read off K when the
chain has a space; without one, an input generator's inverse is the one
its Matrix keeps, and a residue's is one elimination when it is
absorbed. The discovery order fixes the Schreier trees, and
so the transversals, the residues and the later base vectors: the same
seed gives the same chain on every machine.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

from . import Record, resolved_seed
from ._kernels import DENSE_CAP, POS_BITS, POS_MASK, orbit_bfs
from .fields import FieldCtx, elem_to_json, is_json_int
from .forms import OrthoSpace, in_omega, omega_order
from .generators import GenPair, WrongCase
from .linalg import Matrix, Singular, _block_inverse, _eye, unit_vector


class CertifyError(ValueError):
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
_TRANSVERSAL_CACHE_BYTES = 16 << 20  # of each transversal memo
_PRA_SLOTS = 10
_PRA_BURN_IN = 64


# ---------------------------------------------------------------------------
# orbits


class Orbit(Record):
    parent: np.ndarray
    genlab: np.ndarray
    index: np.ndarray  # sorted (code << POS_BITS) | position, one entry a point
    powers: np.ndarray  # p^k for each of the n·f coordinates of F_p^{nf}

    @property
    def size(self) -> int:
        return int(self.index.size)

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


def orbit(gens, v) -> Orbit:
    """Breadth-first closure of the integer vector v under the matrices
    gens, which must be invertible: a singular one is refused before any search."""
    gens = tuple(gens)
    if not gens:
        raise CertifyError("orbit needs at least one generator")
    ctx, n = _shape_of(gens)
    if not all(g.det().any() for g in gens):
        raise CertifyError("generators must be invertible")
    vec = np.asarray(v)
    if vec.dtype.kind not in "iu":
        raise CertifyError(f"vector entries must be integers, not {vec.dtype}")
    vec = vec.astype(np.int64) % ctx.p
    if vec.shape != (n, ctx.f):
        raise DimensionMismatch(f"vector shape {vec.shape} does not match ({n}, {ctx.f})")
    return _orbit(ctx, np.stack([g.blocks for g in gens]), vec)


def _orbit(ctx: FieldCtx, flat: np.ndarray, vec: np.ndarray) -> Orbit:
    """orbit() under (k, nf, nf) block forms."""
    space = ctx.p ** vec.size
    if space > DENSE_CAP:
        raise StateSpaceTooLarge(
            f"p^(n*f) = {space} exceeds the dense table cap {DENSE_CAP}")
    parent, genlab, index = orbit_bfs(flat, vec.reshape(-1), ctx.p, space)
    return Orbit(parent=parent, genlab=genlab, index=index,
                 powers=ctx.p ** np.arange(vec.size, dtype=np.int64))


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
    """One link: a unit base vector e_j, its generators and their
    inverses (invs[i] is the inverse of gens[i], which the chain read off
    its space's trace form or eliminated once), and the orbit machinery.
    Group elements are (nf, nf) F_p block forms, as `Matrix.blocks` holds
    them; g maps e_j to column j*f of g. The orbit's parent/genlab arrays
    are its Schreier vector. A coset representative u(pos), and its
    inverse, is built on first use by walking the Schreier tree up to the
    nearest memoized ancestor (Seress, Permutation Group Algorithms, 2003,
    ch. 4); each memo keeps elements while they fit in
    _TRANSVERSAL_CACHE_BYTES and walks without storing past that.
    """

    __slots__ = ("ctx", "base_vec", "base_col", "gens", "invs", "orbit", "_u", "_u_inv")

    def __init__(self, ctx: FieldCtx, base_vec):
        self.ctx = ctx
        self.base_vec = base_vec
        self.base_col = int(np.flatnonzero(base_vec.reshape(-1))[0])
        self.gens = []
        self.invs = []
        self.orbit = None
        self._u = {}
        self._u_inv = {}

    def recompute(self):
        self.orbit = _orbit(self.ctx, np.stack(self.gens), self.base_vec)
        one = _eye(self.orbit.powers.size)
        self._u = {0: one}
        self._u_inv = {0: one}

    def position(self, g: np.ndarray) -> int:
        """The orbit position of g's image of the base vector; -1 if none."""
        o = self.orbit
        return o.position(int(o.powers @ g[:, self.base_col]))

    def _walk(self, pos: int, memo: dict, left: bool) -> np.ndarray:
        """Extend memo[ancestor] down to pos, one generator a step: on the
        left by gens (u) or on the right by invs (u_inv)."""
        parent = self.orbit.parent
        path = []
        while pos not in memo:
            path.append(pos)
            pos = int(parent[pos])
        m = memo[pos]
        if not path:
            return m
        genlab, p = self.orbit.genlab, self.ctx.p
        elems = self.gens if left else self.invs
        room = _TRANSVERSAL_CACHE_BYTES // m.nbytes - len(memo)  # entries that still fit
        for at in reversed(path):
            m = elems[genlab[at]].dot(m) if left else m.dot(elems[genlab[at]])
            m %= p
            if room > 0:
                memo[at] = m
                room -= 1
        return m

    def u(self, pos: int) -> np.ndarray:
        """The transversal element mapping the base vector to orbit[pos]."""
        return self._walk(pos, self._u, True)

    def u_inv(self, pos: int) -> np.ndarray:
        return self._walk(pos, self._u_inv, False)


class StabilizerChain(Record):
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
    """Product-replacement stream over block-form generators, given with
    their inverses."""

    def __init__(self, ctx: FieldCtx, gens, inverses, seed):
        self.p = ctx.p
        self.rng = random.Random(seed)
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


def _trace_form(space: OrthoSpace) -> np.ndarray:
    """K, the F_p Gram matrix of the trace form Tr o B on F_p^{nf}: entry
    (i*f + w, j*f + u) is Tr(t^w J_ij t^u), so K = (I_n (x) T) B(J) with
    T[w, u] = Tr(t^(w+u)), the trace of the F_p multiplication matrix of
    t^(w+u). Nondegenerate with B, as the trace form of F_q/F_p is."""
    ctx, blocks = space.ctx, space.J.blocks
    if ctx.f == 1:
        return blocks
    traces = np.einsum("xvv->x", ctx.mul_table)  # Tr(t^x) for x < f
    t = ctx.mul_table @ traces % ctx.p
    return np.kron(np.eye(space.n, dtype=np.int64), t) @ blocks % ctx.p


class _ChainBuilder:
    def __init__(self, gens, seed, budget_seconds, space):
        self.gens = gens  # matrices over F_q
        self.ctx, self.n = _shape_of(gens)
        self.seed = seed
        self.levels = []
        if budget_seconds is not None and not budget_seconds >= 0:  # NaN would never pass
            raise CertifyError(f"budget {budget_seconds} is not a number of seconds >= 0")
        self.deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
        self.form = None  # (K, K^-1) of the space every generator preserves
        if space is not None:
            if space.ctx != self.ctx or space.n != self.n:
                raise DimensionMismatch("the space and the generators differ in field or size")
            if any("not-an-isometry" in in_omega(space, g).reasons for g in gens):
                raise CertifyError("a generator does not preserve the space's form")
            k = _trace_form(space)
            self.form = k, _block_inverse(k, self.ctx.p)

    def _inverse(self, g: np.ndarray) -> np.ndarray:
        """g's inverse: K^-1 g^T K for a product of isometries of the
        space, two products exact as every chain product is; else one
        elimination."""
        p = self.ctx.p
        if self.form is None:
            return _block_inverse(g, p)
        k, k_inv = self.form
        return k_inv.dot(g.T.dot(k) % p) % p

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

    def _absorb(self, residue: np.ndarray, idx: int, inverse=None):
        """Add a residue stuck at level idx, with its inverse, opening a new
        level past the end."""
        if idx == len(self.levels):
            self.levels.append(Level(self.ctx, self._new_base_vector(residue)))
        lv = self.levels[idx]
        lv.gens.append(residue)
        lv.invs.append(self._inverse(residue) if inverse is None else inverse)
        lv.recompute()

    def feed(self, g: np.ndarray, inverse=None) -> bool:
        """Sift g; absorb a nontrivial residue. True if the chain grew.
        g's inverse, if given, is kept when g itself is the residue."""
        residue, idx = _sift_from(self.levels, g, 0)
        if residue is None:
            return False
        self._check_budget()
        self._absorb(residue, idx, inverse if residue is g else None)
        return True

    def verify_schreier(self) -> bool:
        """Test the Schreier generators of each level's own generators only,
        so an incomplete chain can pass; absorb the first bad residue."""
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
        if self.form is not None:
            inverses = [self._inverse(b) for b in flat]
        else:
            try:
                inverses = [g.inverse().blocks for g in self.gens]
            except Singular as err:
                raise CertifyError("generators must be invertible") from err
        for b, b_inv in zip(flat, inverses):
            self.feed(b, b_inv)
        stream = _RandomElements(self.ctx, flat, inverses, self.seed)
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
        for lv in self.levels:  # freeze
            lv.gens, lv.invs = tuple(lv.gens), tuple(lv.invs)
        return StabilizerChain(
            base=tuple(lv.base_vec for lv in self.levels),
            levels=tuple(self.levels),
            order=self.order(),
            verified=verified,
            seed=self.seed,
        )


def stabilizer_chain(gens, target: int | None = None, seed: int | None = None,
                     budget_seconds: float | None = None, *,
                     space: OrthoSpace | None = None) -> StabilizerChain:
    """Randomized Schreier-Sims; the chain order is a lower bound on the
    generated group's order.

    A space is a quadratic space whose form every generator preserves; the
    chain reads their `in_omega` verdicts and refuses one that is
    `not-an-isometry` (CertifyError) before any search, as it refuses a
    space over another field or of another size (DimensionMismatch); a
    degenerate form raises FormsError, as in `in_omega`. It then inverts
    by the trace form instead of by elimination. Nothing else changes: an
    inverse is the same matrix either way.

    A target is a positive integer that the caller has proved the group's
    order divides (e.g. by containment in a known group): the build stops
    once the chain order reaches it, which makes that order exact, and
    raises CertifyError past it. Without a target, or short of it, the
    build ends at 64 trivial random sifts and a `verify_schreier`, which
    tests each level's own generators only: no upper bound is proved.
    """
    if target is not None and not (is_json_int(target) and target > 0):
        raise CertifyError(f"target {target!r} is not a positive integer")
    gens = tuple(gens)
    seed = resolved_seed(seed)
    if not gens:
        return StabilizerChain(base=(), levels=(), order=1, verified=True, seed=seed)
    builder = _ChainBuilder(gens, seed, budget_seconds, space)
    return builder.build(target)


# ---------------------------------------------------------------------------
# certification front end


class CertResult(Record):
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
        return {**self._asdict(), "computed_order": str(self.computed_order),
                "target_order": str(self.target_order),
                "orbit_sizes": list(self.orbit_sizes)}


def generation_verdict(gens, space: OrthoSpace, seed: int | None = None,
                       budget_seconds: float | None = None) -> tuple:
    """The verdict rule: (verdict, orbit_sizes, target) for <gens> against
    Omega(space). Generates needs every generator proved to lie in Omega
    (`in_omega`) and a chain order, a lower bound, that reaches |Omega|;
    every other outcome (a chain short of it, a generator outside Omega, a
    budget or DENSE_CAP stop) is Inconclusive, and orbit_sizes keep the
    lower bound. ProperSubgroup awaits a proved upper bound below it. The
    chain is given the space whenever every generator is an isometry of
    it, contained or not, so it inverts by the trace form."""
    gens = tuple(gens)
    verdicts = [in_omega(space, g) for g in gens]
    contained = all(verdicts)
    isometries = not any("not-an-isometry" in v.reasons for v in verdicts)
    target = omega_order(space.n, space.eps, space.ctx.q)
    verdict = "Inconclusive"
    orbit_sizes = ()  # of the chain, or of the partial chain a budget stops
    try:
        orbit_sizes = stabilizer_chain(gens, target if contained else None, seed,
                                       budget_seconds,
                                       space=space if isometries else None).orbit_sizes
        computed = math.prod(orbit_sizes)
        if contained and target % computed != 0:
            raise CertifyError(
                "computed order does not divide the target despite verified "
                "containment")
        if contained and computed == target:
            verdict = "Generates"
    except BudgetExceeded as stop:
        orbit_sizes = stop.orbit_sizes
    except StateSpaceTooLarge:
        pass
    return verdict, orbit_sizes, target


def certify_generation(pair: GenPair, restrict_to_s9: bool = False,
                       seed: int | None = None,
                       budget_seconds: float | None = None) -> CertResult:
    """The report of `generation_verdict` for <x, y> on the pair's space, or
    in restricted mode (tail families only) for <y, tau> acting on S9."""
    t0 = time.perf_counter()
    seed = resolved_seed(seed)
    if restrict_to_s9 and pair.tag.case == "A":
        raise WrongCase("restricted certification needs an S9 tail family")
    gens, space = ((pair.s9_restrictions[:2], pair.s9_space) if restrict_to_s9
                   else ((pair.x, pair.y), pair.space))
    verdict, orbit_sizes, target = generation_verdict(gens, space, seed, budget_seconds)
    return CertResult(
        n=space.n,
        q=space.ctx.q,
        a=elem_to_json(pair.ctx, pair.a),
        eps=space.eps,
        computed_order=math.prod(orbit_sizes),
        target_order=target,
        verdict=verdict,
        seed=seed,
        base_size=len(orbit_sizes),
        orbit_sizes=orbit_sizes,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )
