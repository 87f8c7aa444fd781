"""Grid values.

Every distance in this library is an integer numerator over a shared
denominator q, so a value x stands for the rational x/q and all identities
are checked with exact integer equality. Distances inside a space live in
[0, q] (diameter at most 1); derived quantities such as Graev seminorms are
plain non-negative integers over the same q and are never capped.

Every exhaustive listing runs on ``lex_tuples``, the one depth-first
enumerator: each search states only the candidates for the next entry
given the ones before it, and a search given a budget is refused here
once it has stated more candidates. Listings and draws under Katetov
conditions narrow their range with ``katetov_bounds``, the one interval
|w - d| <= v <= w + d of a value v at distance d from a value w. Two hot
draws write it out inline: the Gibbs sweep, bikatetov._gibbs, and
katetov._random_row, the random strategy's row draw, where a call per
entry made random builds 25-27% slower.

The library's result and input types are ``Record`` subclasses: plain
classes with a hand-written ``__init__`` that compare, hash and print by
their fields.
"""

from __future__ import annotations

from math import gcd
from operator import attrgetter

from .errors import GuardError


class Record:
    """Base of the library's immutable records. A subclass names its fields
    in ``_fields``. Its ``__init__`` normalizes and checks its arguments,
    then stores each field once; a record valid by an exact check or a
    theorem comes from ``_trusted``, which only stores. tests/test_trusted.py
    lists every call of it with its theorem and judge. BiKatetovMatrix and
    WeightedAlphabet store first and keep their checks in a
    ``__post_init__``, so the benchmark's tracer can count validated
    constructions by wrapping it. A record compares (with its own class
    only), hashes and prints by its fields in order, as a frozen dataclass
    does; a lookup table derived from them is a ``cached_property``, kept
    out of all three. Assigning or deleting an attribute raises
    AttributeError."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda rec: (get(rec),))

    @classmethod
    def _trusted(cls, *values):
        """The record whose fields, in order, are ``values``, unchecked, even
        in number: zip(strict=True) costs a third of this hot call, and
        tests/test_trusted.py rebuilds each call's record through __init__."""
        rec = object.__new__(cls)
        rec.__dict__.update(zip(cls._fields, values))
        return rec

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


def lex_tuples(k: int, choices, budget: int | None = None, search: str = "search"):
    """Every k-tuple whose entry j is one of ``choices(prefix)``, prefix being
    the entries before j as a list the callee must not change, in the order
    of the candidate lists. Lazy and without recursion: a caller that wants
    only the first tuple stops the search there. With a ``budget``, the
    ``choices`` call whose list takes the candidate count past it raises
    GuardError naming ``search``, with that count as ``used``."""
    if budget is not None:
        listed, used = choices, 0

        def choices(prefix):
            nonlocal used
            values = listed(prefix)
            used += len(values)
            if used > budget:
                raise GuardError(f"{search}: used {used} candidates, limit {budget}",
                                 used=used, limit=budget)
            return values

    if k == 0:
        yield ()
        return
    last = k - 1
    prefix: list = []
    levels = [iter(choices(prefix))]
    while levels:
        for v in levels[-1]:
            if len(prefix) == last:
                yield (*prefix, v)
            else:
                prefix.append(v)
                levels.append(iter(choices(prefix)))
                break
        else:
            levels.pop()
            if prefix:
                prefix.pop()


def katetov_bounds(pairs, lo: int, hi: int) -> tuple[int, int]:
    """[lo, hi] narrowed to the values v with |v - w| <= d <= v + w for each
    (w, d) pair, i.e. |w - d| <= v <= w + d; empty when lo > hi."""
    for w, d in pairs:
        t = w - d
        if t > lo:
            lo = t
        elif -t > lo:
            lo = -t
        t = w + d
        if t < hi:
            hi = t
    return lo, hi
