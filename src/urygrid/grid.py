"""Grid values.

Every distance in this library is an integer numerator over a shared
denominator q, so a value x stands for the rational x/q and all identities
are checked with exact integer equality. Distances inside a space live in
[0, q] (diameter at most 1); derived quantities such as Graev seminorms are
plain non-negative integers over the same q and are never capped.
"""

from __future__ import annotations

from math import gcd


def is_grid_int(x, lo: int | None = None, hi: int | None = None) -> bool:
    """An int that is not a bool (JSON ``true`` loads as one), inside
    [lo, hi] for whichever of the two bounds is given."""
    # exact type first: the common case, and it excludes bool on its own
    if type(x) is int or (isinstance(x, int) and not isinstance(x, bool)):
        return (lo is None or lo <= x) and (hi is None or x <= hi)
    return False


# The kernels mark a missing edge with INF = 2**30 and the GH closure
# doubles distances, so a denominator must stay below 2**29.
MAX_DENOMINATOR = (1 << 29) - 1


def denominator_problem(q) -> str | None:
    """Why q cannot be a grid denominator, or None when it can."""
    if not is_grid_int(q, 1):
        return f"denominator must be a positive integer, got {q!r}"
    if q > MAX_DENOMINATOR:
        return f"denominator {q} is not below 2^29 = {MAX_DENOMINATOR + 1}"
    return None


def add_capped(a: int, b: int, cap: int) -> int:
    """Bounded addition min(a + b, cap), the truncated sum used wherever a
    construction stays inside diameter 1."""
    s = a + b
    return s if s < cap else cap


def lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def half_grid_value(num2: int, q: int) -> tuple[int, int]:
    """Normalize a value given as num2/(2q): fold back onto the q-grid when
    the numerator is even, otherwise keep the doubled denominator."""
    if num2 % 2 == 0:
        return num2 // 2, q
    return num2, 2 * q


def frac_str(num: int, den: int) -> str:
    """Exact fraction rendering, numerator over the governing grid verbatim."""
    return f"{num}/{den}"
