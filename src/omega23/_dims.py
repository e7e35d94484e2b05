"""Dimension bookkeeping shared by the geometry and generator modules.

Supported dimensions: odd n >= 9, or even n >= 12 with n != 14. The
even-dimension layout parameters satisfy n = 3m + 9 + r with m >= 1 and
r in {0, 1, 2}.
"""

from __future__ import annotations

CASE_A_DIMS = (9, 11, 13, 17)
CASE_B6_DIMS = (12, 16, 20)


def case_of(n: int) -> str | None:
    """'A', 'B5', 'B6', or None when the dimension is not supported."""
    if n in CASE_A_DIMS:
        return "A"
    if n in CASE_B6_DIMS:
        return "B6"
    if n in (15, 18, 19) or n >= 21:
        return "B5"
    return None


def b_params(n: int) -> tuple[int, int]:
    """(m, r) with n = 3m + 9 + r, r in {0,1,2}, m >= 1."""
    if n < 12:
        raise ValueError(f"no (m, r) split for n={n}")
    m, r = divmod(n - 9, 3)
    return m, r


def unsupported_message(n: int) -> str:
    return (
        f"dimension {n} is not supported: n must be odd and >= 9, "
        "or even and >= 12 (excluding 14)"
    )
