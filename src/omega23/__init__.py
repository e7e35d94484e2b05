"""Exact-arithmetic toolkit for two-element generation of orthogonal groups.

Builds an involution/order-3 generator pair for the kernel-of-spinor-norm
subgroup of an orthogonal group over an odd finite field, verifies the
algebraic identities the construction relies on, and certifies generated
group orders with a randomized stabilizer chain.
"""

from __future__ import annotations

DEFAULT_SEED = 53251


def resolved_seed(seed: int | None = None) -> int:
    """An explicit seed, or the package default."""
    return DEFAULT_SEED if seed is None else int(seed)


__all__ = ["DEFAULT_SEED", "resolved_seed"]
