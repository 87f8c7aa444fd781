"""Katetov functions on grid spaces and the one-point extension machinery.

A Katetov function on (a subset of) a space is exactly the distance profile
of a virtual added point: |f(x) - f(y)| <= d(x, y) <= f(x) + f(y). The module
covers the largest 1-Lipschitz extension of such a profile, its realization
as an actual extra point, exhaustive injectivity sweeps, a greedy builder
that closes a space under small profiles, and isometry-group enumeration
with a homogeneity check on top.
"""

from __future__ import annotations

import heapq
import random
from functools import lru_cache
from itertools import combinations, product
from math import gcd
from operator import itemgetter

from .errors import GuardError, InvariantError, ValidationError
from .grid import Record, add_capped, is_grid_int, katetov_bounds, lex_tuples
from .spaces import (FiniteMetricSpace, _as_tuple, _new_row_fits, _raise_unless_ok,
                     validate_space)

ISO_GROUP_MAX_POINTS = 10
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
        if len(support) != len(set(support)):
            raise ValidationError("duplicate support points")
        if len(support) != len(values):
            raise ValidationError("support and values differ in length")
        if not support:
            raise ValidationError("support must be nonempty")
        for p in support:
            space.index(p)
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


def _spheres(dist) -> list[dict[int, int]]:
    """The sphere index of a distance matrix: sph[t][v] is the int bitmask
    of the points at distance v from point t (bit j for point j), absent
    when there are none. A point at distances (v_0, ..., v_k) from points
    t_0, ..., t_k lies in the AND of their spheres."""
    sph = []
    for row in dist:
        s: dict[int, int] = {}
        bit = 1
        for v in row:
            s[v] = s.get(v, 0) | bit
            bit <<= 1
        sph.append(s)
    return sph


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of a nonnegative mask, low to high."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _support_gaps(dist, idx: tuple[int, ...]):
    """The distances inside a support, as _profiles_by_gaps takes them."""
    gaps = [()]
    for j in range(1, len(idx)):
        col = idx[j]
        gaps.append(tuple([dist[t][col] for t in idx[:j]]))
    return tuple(gaps)


def _katetov_profiles(space: FiniteMetricSpace, idx: tuple[int, ...]):
    """All grid Katetov value tuples on the subset with those indices, in
    lexicographic order. They depend only on q and the distances inside the
    subset, so they are computed once per such pattern."""
    return _profiles_by_gaps(space.denominator, _support_gaps(space.dist, idx))


@lru_cache(maxsize=256)
def _profiles_by_gaps(q: int, gaps: tuple[tuple[int, ...], ...]):
    """_katetov_profiles for a subset whose point j lies at gaps[j][t] from
    its point t < j. There can be (q+1)^k of them, so the walk is refused
    past PROFILE_LIMIT candidates."""
    def values(prefix):
        lo, hi = katetov_bounds(zip(prefix, gaps[len(prefix)]), 0, q)
        return range(lo, hi + 1)

    k = len(gaps)
    return tuple(lex_tuples(k, values, PROFILE_LIMIT,
                            f"profile listing on a {k}-point support at q={q}"))


@lru_cache(maxsize=256)
def _zero_free_profiles(q: int, gaps: tuple[tuple[int, ...], ...]):
    """The profiles of _profiles_by_gaps(q, gaps) without a zero, in the same
    order, and for each the length of the prefix it shares with the next
    one (0 for the last). Listed through _profiles_by_gaps, so its
    PROFILE_LIMIT refusal comes first."""
    profiles = tuple(p for p in _profiles_by_gaps(q, gaps) if 0 not in p)
    shared = []
    for a, b in zip(profiles, profiles[1:]):
        c = 0
        while a[c] == b[c]:
            c += 1
        shared.append(c)
    shared.append(0)
    return profiles, tuple(shared)


def _first_unrealized(profiles, spheres, start: int):
    """The position of the first profile at or after ``start`` in
    ``profiles`` (a _zero_free_profiles listing) that no point realizes, or
    None. spheres[j][v] is the bitmask of the points at distance v from the
    support's point j, for every v in 1..q; a profile is realized exactly
    when the AND of its entries' spheres is nonzero.

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


def _realized(space: FiniteMetricSpace, idx: tuple[int, ...]) -> set:
    """Every point's distances to the subset, as tuples. Column i is row i
    (the metric is symmetric), so zipping the subset's rows gives them."""
    return set(zip(*(space.dist[i] for i in idx)))


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
    if max_subset < 1:
        raise ValidationError(f"max profile support size must be at least 1, got {max_subset}")


def injectivity_check(space: FiniteMetricSpace, max_subset: int) -> InjectivityReport:
    """For every support of size <= max_subset and every grid Katetov profile
    on it, ask whether some point of the space realizes the profile exactly.
    Lists the profiles no point realizes.

    A from-scratch full scan, independent of the builder's frontier: it is
    the check that a closed build really is closed."""
    _require_subset(max_subset)
    unrealized = []
    checked = 0
    for size in range(1, max_subset + 1):
        for idx in combinations(range(space.n), size):
            realized = _realized(space, idx)
            for prof in _katetov_profiles(space, idx):
                checked += 1
                if prof not in realized:
                    unrealized.append((tuple(space.points[i] for i in idx), prof))
    return InjectivityReport(checked, tuple(unrealized))


class _ProfileFrontier:
    """The lexicographically first zero-free grid Katetov profile that no
    point realizes, kept up to date while points are added.

    The frontier owns the growing distance matrix (``dist``, rows as lists)
    and its sphere index by value (``sph``: sph[i][v] for v in 0..q is the
    bitmask of the points at distance v from point i, as in _spheres). A
    profile vanishing at point i is realized by i itself (it forces
    f(j) = d(i, j)), so only zero-free ones can be missing, and each
    support's scan is one _first_unrealized call over its zero-free
    profiles. The singleton listing is made first, so a q past
    PROFILE_LIMIT is refused before any q + 1 list is built.

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
    support of its stream takes its place.
    """

    def __init__(self, space: FiniteMetricSpace, max_subset: int):
        self.q = q = space.denominator
        _zero_free_profiles(q, ((),))
        self.max_subset = max_subset
        self.dist = [list(row) for row in space.dist]
        self.sph = [[s.get(v, 0) for v in range(q + 1)] for s in _spheres(space.dist)]
        # entries (size, idx, start, stream): (size, idx) differs between
        # streams, so the stream iterator is never compared
        self.heap = []
        for size in range(1, max_subset + 1):
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
        own = [0] * (self.q + 1)
        own[0] = bit
        for t, v in enumerate(row):
            dist[t].append(v)
            sph[t][v] |= bit
            own[v] |= 1 << t
        dist.append([*row, 0])
        sph.append(own)
        for size in range(1, self.max_subset + 1):
            self._push(size, (rest + (new,) for rest in combinations(range(new), size - 1)))

    def first(self):
        """(idx, profile) of the first unrealized zero-free profile, or None."""
        heap, dist, sph, q = self.heap, self.dist, self.sph, self.q
        while heap:
            size, idx, start, stream = heap[0]
            profiles = _zero_free_profiles(q, _support_gaps(dist, idx))
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


def _isometric_injections(pattern, target, spheres=None, prefix=()):
    """Every injective index tuple img into range(len(target)) with
    target[img[i]][img[j]] == pattern[i][j], for symmetric pattern and
    target, in lexicographic order; only those that start with ``prefix``
    when one is given (it must carry the pattern's first points itself).

    The candidates for position i are the AND of the spheres (see
    _spheres; ``spheres`` is the target's, when the caller has it) of the
    earlier images at the pattern's distances, minus the used points,
    listed low to high."""
    sph = _spheres(target) if spheres is None else spheres
    everything = (1 << len(target)) - 1
    pinned = len(prefix)

    def images(image):
        i = len(image)
        if i < pinned:
            return (prefix[i],)
        cands = everything
        for j, t in enumerate(image):
            cands &= sph[t].get(pattern[j][i], 0) & ~(1 << t)
        return _bits(cands)

    return lex_tuples(len(pattern), images)


def _embed_seed(seed: FiniteMetricSpace, target: FiniteMetricSpace):
    """Indices of an isometric copy of the seed inside the target, or None."""
    first = next(_isometric_injections(seed.dist, target.dist), None)
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
    sph0 = [0] * (q + 1)
    for j, v in enumerate(row):
        sph0[v] |= 1 << j
    rotated = [sph0] + [None] * (n - 1)  # filled as supports reach vertex s
    for size in range(1, max_subset + 1):
        for rest in combinations(range(1, n), size - 1):
            idx = (0, *rest)
            for s in rest:
                if rotated[s] is None:
                    rotated[s] = [((m << s) | (m >> (n - s))) & full for m in sph0]
            gaps = tuple(tuple(row[idx[j] - idx[t]] for t in range(j)) for j in range(size))
            if _first_unrealized(_zero_free_profiles(q, gaps),
                                 [rotated[s] for s in idx], 0) is not None:
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
    colorings it tried, and the largest n whose canonical colorings it
    tried every one of (0 when there is none). The search updates it in
    place, so unlike the other records it is mutable and unhashable."""

    _fields = ("tried", "complete_n")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, tried: int = 0, complete_n: int = 0):
        self.tried = tried
        self.complete_n = complete_n


def find_transitive_template(seed: FiniteMetricSpace, max_subset: int, q: int,
                             cap: int, tally: TemplateTally | None = None):
    """Search rotation-invariant spaces over cyclic groups for one that is
    closed under small profiles and contains the seed isometrically.

    Such a space is vertex-transitive by construction, so every single point
    maps onto every other by a global isometry. The gap colorings are walked
    in lexicographic order, one per orbit of the units of Z_n modulo +-1:
    multiplying every gap by a unit gives an isometric circulant, and closure
    and the seed are both invariant under isometry, so the first hit is the
    least of its orbit and skipping the others changes nothing. The budget
    counts these canonical colorings. A candidate is kept only if its
    triangles hold, which _circulant_row decides on row 0 in O(n^2)
    comparisons, stopping at the first failure; then its closure is asked
    of row 0 too, on the supports through vertex 0 (_closed_through_zero).
    Only a closed candidate is built as a space and searched for the seed.
    Returns (template, embedded seed indices) or None when the bounded
    search finds nothing; ``tally``, when given, records how far it got."""
    _require_subset(max_subset)
    if tally is None:
        tally = TemplateTally()
    grid = set(range(1, q + 1))
    for n in range(max(seed.n, 1), cap + 1):
        half = n // 2
        if half == 0:
            continue
        maps = _multiplier_maps(n)
        # an orbit holds at most 1 + len(maps) colorings, so past this bound
        # n has more canonical ones than the budget has left
        if q ** half > (TEMPLATE_BUDGET - tally.tried) * (1 + len(maps)):
            break
        for colors in product(range(1, q + 1), repeat=half):
            if any(m(colors) < colors for m in maps):
                continue
            if tally.tried == TEMPLATE_BUDGET:
                return None
            tally.tried += 1
            # quick filter: realizing singleton profiles needs every grid
            # value among the gap colors once n is big enough to matter
            if not grid.issubset(colors):
                continue
            row = _circulant_row(n, colors)
            # stops at the first missing profile; equals injectivity_check().ok
            if row is None or not _closed_through_zero(row, q, max_subset):
                continue
            template = _circulant_space(q, row)
            embedded = _embed_seed(seed, template)
            if embedded is not None:
                return template, embedded
        tally.complete_n = n
    return None


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
    Each new row is checked with _new_row_fits (range, identity and the
    triangles through the new point, O(n^2)); a row that fails is refused
    with validate_space's report on the grown matrix. The space is built
    once, on return. A realizing point must carry the profile on its
    support; its remaining distances are where the strategies differ:

    "transitive" first finds a closed rotation-invariant template containing
    the seed (see find_transitive_template) and copies each realizing point
    out of it, so the closure inherits the template's point-transitivity:
    the least unused template vertex in the AND of the spheres of the
    support's images at the profile's values.
    "random" draws each free distance uniformly from its exact feasibility
    interval with the seeded generator; this mixes the space and closes it
    quickly, but the result has no symmetry to speak of. (The deterministic
    extremes are poor policies: always taking the largest extension keeps
    every new point far from everything and pair-support closure never
    terminates.) "auto" tries the template route and falls back to random.

    Returns the final space, the status ("closed" when the frontier finds
    nothing unrealized, "capped" when the point budget ran out first), and
    which strategy produced it.
    """
    _require_subset(max_subset)
    if cap < seed.n:
        raise ValidationError("cap smaller than the seed")
    if strategy not in ("auto", "random", "transitive"):
        raise ValidationError(f"unknown strategy {strategy!r}")
    space = seed.rescaled(q) if seed.denominator != q else seed
    rng = random.Random(rng_seed)

    template = None
    if strategy in ("auto", "transitive"):
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
        tsph = _spheres(template.dist)

    frontier = _ProfileFrontier(space, max_subset)
    dist = frontier.dist
    points = list(space.points)
    taken = set(points)
    pseudo = space.pseudo
    fresh = 0
    while True:
        hit = frontier.first()
        if hit is None or len(points) >= cap:
            status = "closed" if hit is None else "capped"
            grown = FiniteMetricSpace._trusted(tuple(points), q, tuple(map(tuple, dist)), pseudo)
            return ApproximantResult(grown, status, grown.n - seed.n, mode)
        idx, prof = hit
        if template is not None:
            cands = ~used
            for i, v in zip(idx, prof):
                cands &= tsph[image[i]].get(v, 0)
            if not cands:
                raise InvariantError("closed template misses a profile it must realize")
            target = (cands & -cands).bit_length() - 1
            trow = template.dist[target]
            row = [trow[t] for t in image]
            image.append(target)
            used |= 1 << target
        else:
            row = [None] * len(points)
            # (point, distance) for each entry set so far, one more as each
            # free entry is drawn
            pairs = list(zip(idx, prof))
            for i, v in pairs:
                row[i] = v
            for z, dz in enumerate(dist):
                if row[z] is None:
                    row[z] = v = rng.randint(*katetov_bounds([(w, dz[y]) for y, w in pairs], 1, q))
                    pairs.append((z, v))
        while f"a{fresh}" in taken:
            fresh += 1
        name = f"a{fresh}"
        if not _new_row_fits(dist, q, row, pseudo):
            _raise_unless_ok(validate_space(
                points + [name], q, [r + [e] for r, e in zip(dist, row)] + [row + [0]],
                pseudo))
            raise InvariantError(f"row of {name} refused by the row check only")
        frontier.grow(row)
        points.append(name)
        taken.add(name)
        fresh += 1


def _stabilizer_chain(dist, sph):
    """The isometry group of the matrix ``dist`` (sphere index ``sph``) as a
    stabilizer chain (Sims): entry i maps each image t of point i under the
    isometries that fix 0..i-1 to one of them sending i to t, the identity
    for t = i. Every isometry is exactly one product c[0][t_0] o ... o
    c[n-1][t_{n-1}], one factor per level.

    The levels are filled from the last one up, so every isometry found so
    far fixes 0..i-1. An image t must lie at d(j, i) from each fixed j, an
    AND of spheres. The orbit is closed under the isometries found so far
    by composing them, and only a candidate it has not reached is searched:
    the first isometry starting (0, ..., i-1, t), or none."""
    n = len(dist)
    chain = [None] * n
    found = []
    for i in range(n - 1, -1, -1):
        cands = ((1 << n) - 1) ^ ((2 << i) - 1)  # the points after i
        for j in range(i):
            cands &= sph[j][dist[j][i]]
        orbit = {i: tuple(range(n))}
        for t in _bits(cands):
            if t in orbit:
                continue
            rep = next(_isometric_injections(dist, dist, sph, (*range(i), t)), None)
            if rep is None:
                continue
            found.append(rep)
            orbit[t] = rep
            todo = list(orbit)
            while todo:
                x = todo.pop()
                g = orbit[x]
                for h in found:
                    y = h[x]
                    if y not in orbit:
                        orbit[y] = itemgetter(*g)(h)
                        todo.append(y)
        chain[i] = orbit
    return chain


def iso_group(space: FiniteMetricSpace, max_points: int = ISO_GROUP_MAX_POINTS):
    """Every distance-preserving permutation, as index tuples in
    lexicographic order: the products of a stabilizer chain
    (_stabilizer_chain), sorted. The chain's searches are cheap, but the
    group itself can have n! elements, so it refuses outright beyond the
    size guard; a factorial listing is not something to time out on."""
    n = space.n
    if n > max_points:
        raise GuardError(f"isometry search refused for {n} > {max_points} points",
                         used=n, limit=max_points)
    # the products of the levels after i, with each of level i's on the
    # left: itemgetter(*h)(g) is g o h
    group = [tuple(range(n))]
    for level in reversed(_stabilizer_chain(space.dist, _spheres(space.dist))):
        if len(level) > 1:
            group = [itemgetter(*h)(g) for h in group for g in level.values()]
    return tuple(sorted(group))


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
    collected once and every image is looked up among them."""
    _require_subset(max_subset)
    group = iso_group(space, max_points=max_points)
    dist = space.dist
    sph = _spheres(dist)
    bad = []
    checked = 0
    for size in range(1, max_subset + 1):
        for dom in combinations(range(space.n), size):
            restrictions = {tuple(g[a] for a in dom) for g in group}
            pattern = [[dist[a][b] for b in dom] for a in dom]
            for img in _isometric_injections(pattern, dist, sph):
                checked += 1
                if img not in restrictions:
                    bad.append(tuple((space.points[a], space.points[b])
                                     for a, b in zip(dom, img)))
    return HomogeneityReport(checked, tuple(bad))
