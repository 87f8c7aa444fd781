"""Katetov functions on grid spaces and the one-point extension machinery.

A Katetov function on (a subset of) a space is exactly the distance profile
of a virtual added point: |f(x) - f(y)| <= d(x, y) <= f(x) + f(y). The module
covers the largest 1-Lipschitz extension of such a profile, its realization
as an actual extra point, exhaustive injectivity sweeps, a greedy builder
that closes a space under small profiles, and a homogeneity check on top of
the isometry group (``isometry``).
"""

from __future__ import annotations

import heapq
import random
from functools import lru_cache
from itertools import combinations, count, product
from math import gcd
from operator import itemgetter

from .errors import GuardError, InvariantError, ValidationError
from .grid import (Record, add_capped, denominator_problem, is_grid_int, katetov_bounds,
                   lex_tuples)
from .isometry import (ISO_GROUP_MAX_POINTS, _isometric_injections, _ranked, _spheres,
                       iso_group)
from .spaces import (FiniteMetricSpace, _as_tuple, _new_row_fits, _raise_unless_ok,
                     _unit_grid, validate_space)

# canonical gap colorings the transitive template search may try
TEMPLATE_BUDGET = 20_000
# candidates one support's profile listing may take (on one point, one per
# profile): that many profiles hold about 10 MB, and the test suite and the
# benchmark never list more than 57
PROFILE_LIMIT = 100_000


class KatetovFunction(Record):
    """Grid values on a support subset of a space. The constructor checks
    structure only; use katetov_witness / is_katetov for the inequalities."""

    _fields = ("space", "support", "values")

    def __init__(self, space: FiniteMetricSpace, support: tuple[str, ...],
                 values: tuple[int, ...]):
        support = _as_tuple(support, "support")
        values = _as_tuple(values, "values")
        # names first: an unhashable one is an unknown point, not a set error
        for p in support:
            space.index(p)
        if len(support) != len(set(support)):
            raise ValidationError("duplicate support points")
        if len(support) != len(values):
            raise ValidationError("support and values differ in length")
        if not support:
            raise ValidationError("support must be nonempty")
        q = space.denominator
        for p, v in zip(support, values):
            if not is_grid_int(v, 0, q):
                raise ValidationError(f"value f({p}) = {v!r} is not an integer in [0, {q}]")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)

    @property
    def total(self) -> bool:
        return set(self.support) == set(self.space.points)

    def value_at(self, name: str) -> int:
        try:
            return self.values[self.support.index(name)]
        except ValueError:
            raise ValidationError(f"{name!r} is outside the support") from None

    def total_values(self) -> tuple[int, ...]:
        """Values aligned with the space's point order; requires totality."""
        if not self.total:
            raise ValidationError("function is not total on the space")
        by_name = dict(zip(self.support, self.values))
        return tuple(by_name[p] for p in self.space.points)


def katetov_witness(f: KatetovFunction):
    """None when both Katetov inequalities hold on the support, else one
    offending point pair."""
    s = f.space
    idx = [s.index(p) for p in f.support]
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            d = s.dist[idx[a]][idx[b]]
            va, vb = f.values[a], f.values[b]
            if abs(va - vb) > d or d > va + vb:
                return (f.support[a], f.support[b])
    return None


def is_katetov(f: KatetovFunction) -> bool:
    return katetov_witness(f) is None


def _require_katetov(f: KatetovFunction):
    w = katetov_witness(f)
    if w is not None:
        raise ValidationError(f"not a Katetov function, witness pair {w}", w)


def katetov_extension(f: KatetovFunction) -> KatetovFunction:
    """The largest 1-Lipschitz grid extension of f to the whole space:
    g(x) = min over support y of d(x, y) (+) f(y), capped at the diameter."""
    _require_katetov(f)
    s = f.space
    q = s.denominator
    idx = [s.index(p) for p in f.support]
    values = []
    for x in range(s.n):
        values.append(min(add_capped(s.dist[x][y], v, q) for y, v in zip(idx, f.values)))
    return KatetovFunction(s, s.points, tuple(values))


def point_function(space: FiniteMetricSpace, name: str) -> KatetovFunction:
    """The distance row of an existing point, as a total Katetov function."""
    i = space.index(name)
    return KatetovFunction(space, space.points, space.dist[i])


def sup_distance(f: KatetovFunction, g: KatetovFunction) -> int:
    """Exact sup metric between total functions on the same space."""
    if f.space != g.space:
        raise ValidationError("functions live on different spaces")
    fv, gv = f.total_values(), g.total_values()
    return max(abs(a - b) for a, b in zip(fv, gv))


class OnePointExtension(Record):
    _fields = ("space", "new_point", "identified_with")

    def __init__(self, space: FiniteMetricSpace, new_point: str,
                 identified_with: tuple[str, ...]):
        # identified_with nonempty means the result is only pseudometric
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "new_point", new_point)
        object.__setattr__(self, "identified_with", identified_with)


def realize_one_point(space: FiniteMetricSpace, f: KatetovFunction,
                      name: str | None = None) -> OnePointExtension:
    """Adjoin a point whose distances to the old points are f.

    When f vanishes somewhere the new point coincides with an existing one;
    the extension is then built as a pseudometric and the identification is
    reported rather than silently quotiented away.
    """
    if f.space != space:
        raise ValidationError("function is not over the given space")
    if not f.total:
        raise ValidationError("realize needs a total function; extend it first")
    _require_katetov(f)
    if name is None:
        k = space.n
        while f"p{k}" in space.points:
            k += 1
        name = f"p{k}"
    vals = f.total_values()
    identified = tuple(p for p, v in zip(space.points, vals) if v == 0)
    pseudo = space.pseudo or bool(identified)
    return OnePointExtension(space.with_point(name, vals, pseudo=pseudo), name, identified)


def _inside(dist, idx: tuple[int, ...]) -> tuple[int, ...]:
    """The distances inside the support ``idx``, d(a, b) for (a, b) in
    combinations(idx, 2): the key of its profile listing."""
    return tuple([dist[a][b] for a, b in combinations(idx, 2)])


@lru_cache(maxsize=256)
def _profiles(q: int, flat: tuple[int, ...]):
    """Every grid Katetov profile, in lexicographic order, on a support
    with the inside distances ``flat`` (see _inside); they depend on nothing
    else, so each such pattern is listed once. There can be (q+1)^k of them
    on k points, so the walk is refused past PROFILE_LIMIT candidates."""
    k = 1
    while k * (k - 1) // 2 < len(flat):
        k += 1
    d = dict(zip(combinations(range(k), 2), flat))
    # gaps[j]: the distances from the support's point j to its points t < j
    gaps = [tuple([d[t, j] for t in range(j)]) for j in range(k)]

    def values(prefix):
        lo, hi = katetov_bounds(zip(prefix, gaps[len(prefix)]), 0, q)
        return range(lo, hi + 1)

    return tuple(lex_tuples(k, values, PROFILE_LIMIT,
                            f"profile listing on a {k}-point support at q={q}"))


@lru_cache(maxsize=256)
def _zero_free_profiles(q: int, flat: tuple[int, ...]):
    """The profiles of _profiles(q, flat) without a zero, in the same order,
    and for each the length of the prefix it shares with the next one (0
    for the last)."""
    profiles = tuple(p for p in _profiles(q, flat) if 0 not in p)
    shared = []
    for a, b in zip(profiles, profiles[1:]):
        c = 0
        while a[c] == b[c]:
            c += 1
        shared.append(c)
    shared.append(0)
    return profiles, tuple(shared)


@lru_cache(maxsize=64)
def _unit_profiles(q: int, size: int):
    """The _zero_free_profiles listing of every support of ``size`` points
    in a space where spaces._unit_grid holds. Every zero-free vector over
    [1, q] is a profile there, so the listing does not depend on the
    distances inside the support, and the one with all of them 1 is each
    support's own."""
    return _zero_free_profiles(q, (1,) * (size * (size - 1) // 2))


def _first_unrealized(profiles, spheres, start: int):
    """The position of the first profile at or after ``start`` in
    ``profiles`` (a _zero_free_profiles listing) that no point realizes, or
    None. spheres[j] is the sphere index entry (_spheres) of the support's
    point j; a profile is realized exactly when the AND of its entries'
    spheres is nonzero.

    acc[j] holds the AND over the first j entries of the current profile.
    Consecutive profiles share a prefix, so only the entries past it are
    ANDed again: one AND per profile when only the last entry moved. Once a
    prefix AND is 0, the first profile carrying that prefix is returned."""
    profs, shared = profiles
    last = len(spheres) - 1
    tail = spheres[last]
    acc = [-1] * (last + 1)
    c = 0
    for pos in range(start, len(profs)):
        prof = profs[pos]
        while c < last:
            acc[c + 1] = acc[c] & spheres[c][prof[c]]
            c += 1
        if not acc[last] & tail[prof[last]]:
            return pos
        c = shared[pos]
    return None


class InjectivityReport(Record):
    _fields = ("checked", "unrealized")

    def __init__(self, checked: int,
                 unrealized: tuple[tuple[tuple[str, ...], tuple[int, ...]], ...]):
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "unrealized", unrealized)

    @property
    def ok(self) -> bool:
        return not self.unrealized


def _require_subset(max_subset: int):
    if not is_grid_int(max_subset):
        raise ValidationError(f"max profile support size must be an integer, got {max_subset!r}")
    if max_subset < 1:
        raise ValidationError(f"max profile support size must be at least 1, got {max_subset}")


def _require_build(max_subset: int, q: int, cap: int):
    _require_subset(max_subset)
    problem = denominator_problem(q)
    if problem is not None:
        raise ValidationError(problem)
    if not is_grid_int(cap):
        raise ValidationError(f"point cap must be an integer, got {cap!r}")


def injectivity_check(space: FiniteMetricSpace, max_subset: int) -> InjectivityReport:
    """For every support of size <= max_subset and every grid Katetov profile
    on it, ask whether some point of the space realizes the profile exactly.
    Lists the profiles no point realizes.

    A from-scratch full scan, independent of the builder's frontier: it is
    the check that a closed build really is closed."""
    _require_subset(max_subset)
    q, dist = space.denominator, space.dist
    unrealized = []
    checked = 0
    for size in range(1, min(max_subset, space.n) + 1):
        for idx in combinations(range(space.n), size):
            # every point's distances to the support: column i is row i
            realized = set(zip(*(dist[i] for i in idx)))
            for prof in _profiles(q, _inside(dist, idx)):
                checked += 1
                if prof not in realized:
                    unrealized.append((tuple(space.points[i] for i in idx), prof))
    return InjectivityReport(checked, tuple(unrealized))


def _closed_pairs(sph, row, q: int) -> int:
    """The mask of the points x whose pair (x, new) realizes every zero-free
    profile, for a new point at distances ``row`` from the points with
    sphere index ``sph`` (_spheres), where spaces._unit_grid holds.

    There the pair's zero-free profiles are all of [1, q]^2 (_unit_profiles),
    and (v, a) on it is realized exactly when some point p has d(p, x) = v
    and d(p, new) = a. So cell (a, v) ORs sph[p][v] over the points p at
    distance a from the new point, and a bit set in all q^2 cells is a
    closed pair. Only bits below the new point's own are kept."""
    mask = (1 << len(row)) - 1
    for a in range(1, q + 1):
        near = [s for d, s in zip(row, sph) if d == a]
        for v in range(1, q + 1):
            cell = 0
            for s in near:
                cell |= s[v]
            mask &= cell
    return mask


class _ProfileFrontier:
    """The lexicographically first zero-free grid Katetov profile that no
    point realizes, kept up to date while points are added.

    The frontier owns the growing distance matrix (``dist``, rows as lists)
    and its sphere index (``sph``, as _spheres gives it), and grow() is the
    one place that extends them. A profile vanishing at point i is realized
    by i itself (it forces f(j) = d(i, j)), so only zero-free ones can be
    missing, and each support's scan is one _first_unrealized call over its
    zero-free profiles. Where spaces._unit_grid holds, that listing depends
    on the support's size alone (_unit_profiles), so the distances inside a
    support are not read; elsewhere it is keyed on them (_inside). The
    singleton listing is made first, so a q past PROFILE_LIMIT is refused
    before any q + 1 list is built.

    The supports of size <= max_subset come in streams, each in
    lexicographic order: the seed's combinations of each size, and for each
    added point the supports of each size that end in it. The heap holds
    one entry per stream, keyed (size, idx, start) on the stream's current
    support: every zero-free profile of that support before position
    `start` is realized. A stream's later supports sort after its current one,
    so the heap minimum is the least unfinished support over all of them,
    as if every support had been pushed. Adding a point never un-realizes
    a profile, so an entry only moves forward; it is rechecked when it
    reaches the top, and once its support has nothing left the next
    support of its stream takes its place. For the same reason a stream
    may leave out supports already closed when it opens: where
    spaces._unit_grid holds, an added point's pair stream skips the pairs
    that _closed_pairs finds closed, in one pass over the points, so most
    pairs are never scanned. No stream goes past the points it can hold,
    however large max_subset is.
    """

    def __init__(self, space: FiniteMetricSpace, max_subset: int):
        self.q = q = space.denominator
        _zero_free_profiles(q, ())
        self.unit = _unit_grid(q, space.pseudo)
        self.max_subset = max_subset
        self.dist = [list(row) for row in space.dist]
        self.sph = _spheres(space.dist, q)
        # entries (size, idx, start, stream): (size, idx) differs between
        # streams, so the stream iterator is never compared
        self.heap = []
        for size in range(1, min(max_subset, space.n) + 1):
            self._push(size, combinations(range(space.n), size))

    def _push(self, size: int, stream):
        idx = next(stream, None)
        if idx is not None:
            heapq.heappush(self.heap, (size, idx, 0, stream))

    def grow(self, row):
        """Add a point at the end, at distances ``row`` from the current
        points: its column, row and spheres, and its streams of supports."""
        dist, sph = self.dist, self.sph
        new = len(dist)
        bit = 1 << new
        for t, v in enumerate(row):
            dist[t].append(v)
            sph[t][v] |= bit
        dist.append([*row, 0])
        sph += _spheres(dist[-1:], self.q)
        # a support ending in the new point has at most new + 1 points
        for size in range(1, min(self.max_subset, new + 1) + 1):
            if size == 2 and self.unit:
                # a pair that already realizes every profile would only be
                # scanned to find nothing, so the stream leaves it out
                closed = _closed_pairs(sph, row, self.q)
                stream = ((x, new) for x in range(new) if not closed >> x & 1)
            else:
                stream = (rest + (new,) for rest in combinations(range(new), size - 1))
            self._push(size, stream)

    def first(self):
        """(idx, profile) of the first unrealized zero-free profile, or None."""
        heap, dist, sph, q, unit = self.heap, self.dist, self.sph, self.q, self.unit
        while heap:
            size, idx, start, stream = heap[0]
            profiles = (_unit_profiles(q, size) if unit
                        else _zero_free_profiles(q, _inside(dist, idx)))
            pos = _first_unrealized(profiles, [sph[i] for i in idx], start)
            if pos is not None:
                heapq.heapreplace(heap, (size, idx, pos, stream))
                return idx, profiles[0][pos]
            idx = next(stream, None)
            if idx is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, (size, idx, 0, stream))
        return None


class ApproximantResult(Record):
    _fields = ("space", "status", "added", "strategy")

    def __init__(self, space: FiniteMetricSpace, status: str, added: int, strategy: str):
        # status: "closed" | "capped"
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "added", added)
        object.__setattr__(self, "strategy", strategy)


def _circulant_row(n: int, colors):
    """Row 0 of the space on Z_n with d(i, j) = colors[g - 1] at cyclic gap
    g = min(|i - j|, n - |i - j|), or None when that breaks the triangle
    inequality. Row i is row 0 rotated right by i: d(i, j) = row[(j - i) % n].

    Colors lie in [1, q], so range, diagonal, symmetry and identity hold by
    construction. d(i, j) depends only on j - i mod n, so rotating any triple
    (x, y, z) by -x turns d(x, y) <= d(x, z) + d(z, y) into
    d(0, a) <= d(0, b) + d(b, a) with a = y - x, b = z - x: checking that
    over all pairs a, b is the full triangle check, in O(n^2). It is skipped
    when no color is more than twice another (always so at q <= 2): then
    any two nonzero distances sum to at least the largest."""
    row = [0] + [colors[min(gap, n - gap) - 1] for gap in range(1, n)]
    if n == 1 or max(colors) <= 2 * min(colors):
        return row
    for a in range(1, n):
        d0a = row[a]
        for b in range(1, n):
            if d0a > row[b] + row[(a - b) % n]:
                return None
    return row


def _circulant_space(q: int, row) -> FiniteMetricSpace:
    """The circulant on v0..v{n-1} with row 0 ``row``, which
    _circulant_row has checked."""
    n = len(row)
    rows = tuple(tuple(row[n - i:] + row[:n - i]) for i in range(n))
    return FiniteMetricSpace._trusted(tuple(f"v{i}" for i in range(n)), q, rows, False)


def _merges_points(space: FiniteMetricSpace) -> bool:
    """Whether two distinct points of the space lie at distance 0. Every
    template is a metric, so none holds a copy of such a space."""
    return any(0 in row[:i] for i, row in enumerate(space.dist))


def _embed_seed(seed: FiniteMetricSpace, target: FiniteMetricSpace):
    """Indices of an isometric copy of the seed inside the target, or None;
    both lie on the same grid."""
    sph = _spheres(target.dist, target.denominator)
    first = next(_isometric_injections(seed.dist, sph), None)
    return None if first is None else list(first)


def _closed_through_zero(row, q: int, max_subset: int) -> bool:
    """Whether the circulant with row 0 ``row`` (see _circulant_row)
    realizes every zero-free grid Katetov profile on its supports of size
    <= max_subset, checking only the supports that contain vertex 0, on row
    0 alone.

    Rotating by r maps the realizers of a profile on a support onto the
    realizers of the same profile on the support moved by r, and keeps the
    distances inside it, so every support can be moved to one through 0.
    A profile with a zero is realized by its own support point. Vertex s's
    spheres are row 0's rotated by s, so each support's zero-free profiles
    go through one _first_unrealized scan over the rotated spheres."""
    n = len(row)
    full = (1 << n) - 1
    sph0 = _spheres([row], q)[0]
    # vertex s's spheres, filled as supports reach it
    sph = [sph0] + [None] * (n - 1)
    for size in range(1, min(max_subset, n) + 1):
        for rest in combinations(range(1, n), size - 1):
            idx = (0, *rest)
            for s in rest:
                if sph[s] is None:
                    sph[s] = [((m << s) | (m >> (n - s))) & full for m in sph0]
            # _inside on the circulant: d(a, b) = row[b - a] for a < b
            flat = tuple([row[b - a] for a, b in combinations(idx, 2)])
            if _first_unrealized(_zero_free_profiles(q, flat),
                                 [sph[s] for s in idx], 0) is not None:
                return False
    return True


def _multiplier_maps(n: int):
    """One itemgetter per unit u of Z_n modulo +-1, u != +-1: it turns the
    gap colors c of a circulant into the colors g -> c(u g) of an isometric
    one (i -> u i mod n is the isometry), folding u g onto 1 .. n // 2."""
    half = n // 2
    return [itemgetter(*(min(u * g % n, n - u * g % n) - 1 for g in range(1, half + 1)))
            for u in range(2, half + 1) if gcd(u, n) == 1]


class TemplateTally(Record):
    """How far one find_transitive_template call got: the canonical
    colorings charged to its budget, and the largest n whose canonical
    colorings it tried every one of (0 when there is none). The search
    updates it in place, so unlike the other records it is mutable and
    unhashable."""

    _fields = ("tried", "complete_n")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, tried: int = 0, complete_n: int = 0):
        self.tried = tried
        self.complete_n = complete_n


@lru_cache(maxsize=256)
def _circulant_listing(q: int, max_subset: int, n: int):
    """Z_n's canonical gap colorings for (q, max_subset), walked once:
    (count, closed), the number of them and, in walk order, the position
    and template (the circulant space) of each closed one.

    The walk is lexicographic over the colorings, one per orbit of the
    units of Z_n modulo +-1 (_multiplier_maps): multiplying every gap by a
    unit gives an isometric circulant, and closure and the seed are both
    invariant under isometry, so the first hit is the least of its orbit
    and skipping the others changes nothing. None is closed once max_subset
    >= n: all of Z_n is then a support, and no point realizes the profile
    f = q on it. Otherwise a coloring is judged only when it uses every grid
    value, which realizing the singleton profiles needs once n is big
    enough to matter; then its triangles are decided on row 0
    (_circulant_row) and its closure on the supports through vertex 0
    (_closed_through_zero), and only a closed one is built as a space."""
    maps = _multiplier_maps(n)
    count = 0
    closed = []
    for colors in product(range(1, q + 1), repeat=n // 2):
        if any(m(colors) < colors for m in maps):
            continue
        if max_subset < n and len(set(colors)) == q:
            row = _circulant_row(n, colors)
            # stops at the first missing profile; equals injectivity_check().ok
            if row is not None and _closed_through_zero(row, q, max_subset):
                closed.append((count, _circulant_space(q, row)))
        count += 1
    return count, tuple(closed)


def find_transitive_template(seed: FiniteMetricSpace, max_subset: int, q: int,
                             cap: int, tally: TemplateTally | None = None):
    """Search rotation-invariant spaces over cyclic groups for one that is
    closed under small profiles and contains the seed isometrically.

    Such a space is vertex-transitive by construction, so every single point
    maps onto every other by a global isometry. For n = seed.n .. cap the
    canonical gap colorings of Z_n are taken in walk order, and the first
    closed one that holds the seed is returned. The budget counts these
    colorings: a template at position i of its listing is charged i + 1, a
    listing passed over whole is charged its count, and a search whose
    budget ends inside a listing charges the rest of the budget and stops.
    Before a listing is made, n is refused when q^(n // 2), which bounds its
    colorings times the size of an orbit, is more than the budget has left.

    Whether a coloring is closed does not depend on the seed, so each
    listing is memoized as its count and its closed templates
    (_circulant_listing, keyed on (q, max_subset, n)) and is walked and
    judged once per process; a search then only embeds the seed in the
    closed templates its budget reaches. The seed is first rescaled to q,
    which must be a multiple of its grid. Where no template can exist it
    returns None at once and charges nothing: for a seed with two distinct
    points at distance 0 (_merges_points), since every template is a
    metric, and when max_subset >= cap, since no Z_n with n <= max_subset
    is closed. Returns (template, embedded seed indices) or None when the
    bounded search finds nothing; ``tally``, when given, records how far it
    got, which the memo does not change."""
    _require_build(max_subset, q, cap)
    seed = seed.rescaled(q)
    if _merges_points(seed) or max_subset >= cap:
        return None
    if tally is None:
        tally = TemplateTally()
    for n in range(max(seed.n, 2), cap + 1):
        left = TEMPLATE_BUDGET - tally.tried
        # past this bound n has more canonical colorings than the budget
        # has left
        if q ** (n // 2) > left * (1 + len(_multiplier_maps(n))):
            break
        count, closed = _circulant_listing(q, max_subset, n)
        for i, template in closed:
            if i >= left:
                break
            embedded = _embed_seed(seed, template)
            if embedded is not None:
                tally.tried += i + 1
                return template, embedded
        if count > left:
            tally.tried = TEMPLATE_BUDGET
            return None
        tally.tried += count
        tally.complete_n = n
    return None


def _random_row(dist, idx, prof, q: int, pseudo: bool, bits):
    """The distances of a new point to the points with rows ``dist`` (a
    pseudometric when ``pseudo``): the zero-free profile ``prof`` on the
    support ``idx``, and each other entry, in index order, drawn uniformly
    from its exact Katetov interval in [1, q] given the entries set so far.

    ``bits`` is a random.Random's getrandbits. The interval is
    grid.katetov_bounds written out, as in bikatetov._gibbs, and the draw is
    the rejection loop of Random.randint written out: k = width.bit_length()
    bits, redrawn while they reach the width. Both take the same bits, so a
    row equals the one katetov_bounds and randint would draw from the same
    generator, and leaves it in the same state. A call per entry to either
    would slow this hot path of the random builder.

    Where spaces._unit_grid holds the interval is always [1, q], so it is
    not computed: the entries set so far are values of a zero-free profile
    over the space. The draw over [1, q] is the same loop, so it takes the
    same bits."""
    row = [None] * len(dist)
    # (point, distance) for each entry set so far, one more as each free
    # entry is drawn
    pairs = list(zip(idx, prof))
    for i, v in pairs:
        row[i] = v
    if _unit_grid(q, pseudo):
        k = q.bit_length()
        for z, v in enumerate(row):
            if v is None:
                r = bits(k)
                while r >= q:
                    r = bits(k)
                row[z] = 1 + r
        return row
    for z, dz in enumerate(dist):
        if row[z] is None:
            lo, hi = 1, q
            for y, w in pairs:
                d = dz[y]
                t = w - d
                if t > lo:
                    lo = t
                elif -t > lo:
                    lo = -t
                t = w + d
                if t < hi:
                    hi = t
            width = hi - lo + 1
            if width < 1:
                raise InvariantError(f"empty Katetov interval [{lo}, {hi}] for point {z}")
            k = width.bit_length()
            r = bits(k)
            while r >= width:
                r = bits(k)
            row[z] = v = lo + r
            pairs.append((z, v))
    return row


def build_approximant(seed: FiniteMetricSpace, max_subset: int, q: int, cap: int,
                      rng_seed: int = 0, strategy: str = "auto") -> ApproximantResult:
    """Grow a space until every small grid Katetov profile is realized.

    Profiles are visited in lexicographic (subset, values) order and each
    unrealized one gets a fresh realizing point; profiles containing a zero
    are skipped since their own support point already realizes them. One
    frontier (_ProfileFrontier) serves the whole build and holds its
    distance rows as lists: a heap with one small entry per stream of
    supports (the seed's supports of each size, and for each added point
    the supports that end in it), each remembering how far its current
    support's profiles are known to be realized. Adding a point never
    un-realizes a profile, so no profile is scanned twice once realized.
    Each new row is checked with _new_row_fits: range and identity, then
    the triangles through the new point, O(n^2), except in a metric at
    q <= 2 (spaces._unit_grid), where no triangle can fail. A row that
    fails is refused with validate_space's report on the grown matrix. The
    same theorem keys the frontier's profile listings by support size
    there, and lets an added point's stream of pairs leave out at once
    those it already closes (_closed_pairs), which every later pick would
    have passed over anyway. The space is built once, on return. A
    realizing point must carry the profile on its support; its remaining
    distances are where the strategies differ:

    "transitive" first finds a closed rotation-invariant template containing
    the seed (see find_transitive_template) and copies each realizing point
    out of it: the least unused template vertex in the AND of the spheres of
    the support's images at the profile's values. When the frontier closes,
    the template vertices still unused are copied too, in index order, so
    the result is an isometric copy of the whole template and inherits its
    point-transitivity (a closed part of it need not be transitive).
    "random" draws each free distance uniformly from its exact feasibility
    interval with the generator seeded by ``rng_seed``, which must be an
    int (_random_row); this mixes the space and closes it quickly, but the
    result has no symmetry to speak of. At q <= 2 in a metric seed every
    such interval is [1, q], so the draw skips computing it; the bits taken,
    and so the rows, are the same. (The deterministic extremes are poor
    policies: always taking the largest extension keeps every new point far
    from everything and pair-support closure never terminates.) "auto"
    tries the template route and falls back to random.

    Returns the final space, the status ("closed" when the frontier finds
    nothing unrealized, "capped" when the point budget ran out first), and
    which strategy produced it.
    """
    _require_build(max_subset, q, cap)
    if cap < seed.n:
        raise ValidationError("cap smaller than the seed")
    if strategy not in ("auto", "random", "transitive"):
        raise ValidationError(f"unknown strategy {strategy!r}")
    if not is_grid_int(rng_seed):
        raise ValidationError(f"random seed must be an integer, got {rng_seed!r}")
    space = seed.rescaled(q)
    bits = random.Random(rng_seed).getrandbits

    template = None
    if strategy != "random":
        tally = TemplateTally()
        found = find_transitive_template(space, max_subset, q, cap, tally=tally)
        if found is not None:
            template, embedded = found
        elif strategy == "transitive":
            searched = (f"every n <= {tally.complete_n} searched in full"
                        if tally.complete_n else "no n searched in full")
            raise GuardError(f"no transitive template within the search budget: "
                             f"{tally.tried} of {TEMPLATE_BUDGET} canonical colorings "
                             f"tried, {searched}; use strategy='random'",
                             used=tally.tried, limit=TEMPLATE_BUDGET)
    mode = "transitive" if template is not None else "random"
    if template is not None:
        # image[i] = template vertex realizing point i of the grown space
        image = list(embedded)
        used = sum(1 << t for t in image)
        tsph = _spheres(template.dist, q)

    frontier = _ProfileFrontier(space, max_subset)
    dist = frontier.dist
    points = list(space.points)
    taken = set(points)
    names = (f"a{i}" for i in count() if f"a{i}" not in taken)
    pseudo = space.pseudo
    while True:
        hit = frontier.first()
        if hit is None or len(points) >= cap:
            status = "closed" if hit is None else "capped"
            if hit is None and template is not None:
                image += [t for t in range(template.n) if not used >> t & 1]
                points += [next(names) for _ in range(len(image) - len(points))]
                dist = [[template.dist[s][t] for t in image] for s in image]
            grown = FiniteMetricSpace._trusted(tuple(points), q, tuple(map(tuple, dist)), pseudo)
            return ApproximantResult(grown, status, grown.n - seed.n, mode)
        idx, prof = hit
        if template is not None:
            cands = ~used
            for i, v in zip(idx, prof):
                cands &= tsph[image[i]][v]
            if not cands:
                raise InvariantError("closed template misses a profile it must realize")
            target = (cands & -cands).bit_length() - 1
            trow = template.dist[target]
            row = [trow[t] for t in image]
            image.append(target)
            used |= 1 << target
        else:
            row = _random_row(dist, idx, prof, q, pseudo, bits)
        name = next(names)
        if not _new_row_fits(dist, q, row, pseudo):
            _raise_unless_ok(validate_space(
                points + [name], q, [r + [e] for r, e in zip(dist, row)] + [row + [0]],
                pseudo))
            raise InvariantError(f"row of {name} refused by the row check only")
        frontier.grow(row)
        points.append(name)


class HomogeneityReport(Record):
    _fields = ("checked", "non_extendable")

    def __init__(self, checked: int,
                 non_extendable: tuple[tuple[tuple[str, str], ...], ...]):
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "non_extendable", non_extendable)

    @property
    def ok(self) -> bool:
        return not self.non_extendable


def homogeneity_check(space: FiniteMetricSpace, max_subset: int,
                      max_points: int = ISO_GROUP_MAX_POINTS) -> HomogeneityReport:
    """Does every isometry between subsets of size <= max_subset extend to a
    global isometry? Reports the partial isometries that do not.

    A partial isometry dom -> img extends exactly when img is the restriction
    to dom of some global isometry, so each domain's restrictions are
    collected once and every image is looked up among them. They are read
    off the group's columns (the images of one point under every
    isometry): zipping the domain's columns gives one restriction per
    isometry."""
    _require_subset(max_subset)
    group = iso_group(space, max_points=max_points)
    columns = list(zip(*group))
    dist, sph = _ranked(space.dist)
    bad = []
    checked = 0
    for size in range(1, min(max_subset, space.n) + 1):
        for dom in combinations(range(space.n), size):
            restrictions = set(zip(*[columns[a] for a in dom]))
            pattern = [[dist[a][b] for b in dom] for a in dom]
            for img in _isometric_injections(pattern, sph):
                checked += 1
                if img not in restrictions:
                    bad.append(tuple((space.points[a], space.points[b])
                                     for a, b in zip(dom, img)))
    return HomogeneityReport(checked, tuple(bad))
