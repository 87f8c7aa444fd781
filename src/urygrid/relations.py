"""Relations on the space of non-expanding grid functions.

The carrier is every function from the base points to the grid that changes
by at most the distance between its arguments. Isometries of the base act on
the carrier, each action has a graph, and graphs compose like relations.
A relation maps back to a matrix over the base by taking, entrywise, the
largest gap |second(x) - first(y)| over its member pairs; conversely a
bi-Katetov matrix carves out the relation of all pairs within its bounds.
On the grid these two maps invert each other exactly.
"""

from __future__ import annotations

from functools import cached_property

from .bikatetov import BiKatetovMatrix, _check_isometry, _inverse
from .errors import ValidationError
from .grid import Record, lex_tuples
from .homog import compose, invert
from .spaces import FiniteMetricSpace

# candidates one carrier walk may take: a walk on n points takes fewer than
# 2 (q+1)^n, so every space with (q+1)^n <= 200,000 lists
CARRIER_BUDGET = 400_000


class GridFunctionSpace(Record):
    """All non-expanding functions base -> {0..q}, enumerated once in
    lexicographic order; relations below are sets of index pairs into
    ``members``."""

    _fields = ("space", "members")

    def __init__(self, space: FiniteMetricSpace, members: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "members", members)

    @cached_property
    def _position(self) -> dict:
        """member -> its index"""
        return {m: i for i, m in enumerate(self.members)}

    def index(self, values) -> int:
        values = tuple(values)
        try:
            return self._position[values]
        except (KeyError, TypeError):  # TypeError: an unhashable entry
            raise ValidationError(f"{values} is not non-expanding here") from None

    @property
    def size(self) -> int:
        return len(self.members)


def enumerate_carrier(space: FiniteMetricSpace) -> GridFunctionSpace:
    """Exhaustive depth-first enumeration with the non-expanding constraint
    pruned prefixwise, refused past CARRIER_BUDGET candidates; deterministic
    lexicographic order."""
    n = space.n
    q = space.denominator

    def values(prefix):
        # |v - w| <= d for each earlier value w: non-expanding, not Katetov
        dj = space.dist[len(prefix)]
        lo, hi = 0, q
        for w, d in zip(prefix, dj):
            lo = max(lo, w - d)
            hi = min(hi, w + d)
        return range(lo, hi + 1)

    return GridFunctionSpace(space, tuple(lex_tuples(
        n, values, CARRIER_BUDGET, f"carrier listing on {n} points at q={q}")))


Relation = frozenset  # of (member index, member index) pairs


def action_graph(carrier: GridFunctionSpace, perm) -> Relation:
    """The graph {(f, perm.f)} of the action of an isometry of the base on
    the carrier, where (perm.f)(x) = f(perm^{-1}(x))."""
    inv = _inverse(_check_isometry(carrier.space, perm))
    return frozenset((i, carrier.index(tuple(f[j] for j in inv)))
                     for i, f in enumerate(carrier.members))


def matrix_of_relation(carrier: GridFunctionSpace, r: Relation) -> tuple[tuple[int, ...], ...]:
    """Entrywise largest gap sup |second(x) - first(y)| over the relation's
    pairs. Raw matrix; the caller decides whether it is bi-Katetov."""
    if not r:
        raise ValidationError("the empty relation has no matrix")
    n = carrier.space.n
    members = carrier.members
    if any(not 0 <= i < len(members) for pair in r for i in pair):
        raise ValidationError(f"relation indices must lie in [0, {len(members)})")
    out = [[0] * n for _ in range(n)]
    for (pi, qi) in r:
        p, q_ = members[pi], members[qi]
        for x in range(n):
            qx = q_[x]
            for y in range(n):
                gap = qx - p[y]
                if gap < 0:
                    gap = -gap
                if gap > out[x][y]:
                    out[x][y] = gap
    return tuple(tuple(row) for row in out)


def relation_of_matrix(carrier: GridFunctionSpace, f: BiKatetovMatrix) -> Relation:
    """All carrier pairs (p, q) with |q(x) - p(y)| <= f(x, y) everywhere.
    Round-tripping through matrix_of_relation recovers f exactly."""
    if f.space != carrier.space:
        raise ValidationError("matrix and carrier disagree on the base space")
    n = carrier.space.n
    members = carrier.members
    ent = f.entries
    out = set()
    for pi, p in enumerate(members):
        for qi, q_ in enumerate(members):
            if all(abs(q_[x] - p[y]) <= ent[x][y] for x in range(n) for y in range(n)):
                out.add((pi, qi))
    return frozenset(out)


def restriction_equivalence(carrier: GridFunctionSpace, subset) -> Relation:
    """Pairs of functions agreeing on the subset; for the empty subset this
    is everything. These are the relations the routing idempotents map to."""
    idx = [carrier.space.index(p) for p in subset]
    out = set()
    for i, p in enumerate(carrier.members):
        for j, q_ in enumerate(carrier.members):
            if all(p[t] == q_[t] for t in idx):
                out.add((i, j))
    return frozenset(out)


def is_equivalence(carrier: GridFunctionSpace, r: Relation) -> bool:
    size = carrier.size
    if any((i, i) not in r for i in range(size)):
        return False
    if invert(r) != r:
        return False
    return compose(r, r) == r


def isometry_graphs(carrier: GridFunctionSpace):
    """Action graphs of the whole isometry group, keyed by permutation."""
    from .isometry import iso_group  # on call, as in bikatetov.invertible_isometry

    return {perm: action_graph(carrier, perm) for perm in iso_group(carrier.space)}
