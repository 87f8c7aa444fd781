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
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import GuardError, InvariantError, ValidationError
from .grid import add_capped, is_grid_int, katetov_bounds, lex_tuples
from .spaces import FiniteMetricSpace, _as_tuple

ISO_GROUP_MAX_POINTS = 10
# most grid profiles listed for one support: a refused listing holds about
# 10 MB, and the test suite and the benchmark never list more than 57
PROFILE_LIMIT = 100_000


@dataclass(frozen=True)
class KatetovFunction:
    """Grid values on a support subset of a space. The constructor checks
    structure only; use katetov_witness / is_katetov for the inequalities."""

    space: FiniteMetricSpace
    support: tuple[str, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "support", _as_tuple(self.support, "support"))
        object.__setattr__(self, "values", _as_tuple(self.values, "values"))
        if len(self.support) != len(set(self.support)):
            raise ValidationError("duplicate support points")
        if len(self.support) != len(self.values):
            raise ValidationError("support and values differ in length")
        if not self.support:
            raise ValidationError("support must be nonempty")
        for p in self.support:
            self.space.index(p)
        q = self.space.denominator
        for p, v in zip(self.support, self.values):
            if not is_grid_int(v, 0, q):
                raise ValidationError(f"value f({p}) = {v!r} is not an integer in [0, {q}]")

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


@dataclass(frozen=True)
class OnePointExtension:
    space: FiniteMetricSpace
    new_point: str
    identified_with: tuple[str, ...]  # nonempty means the result is only pseudometric


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


def _katetov_profiles(space: FiniteMetricSpace, idx: tuple[int, ...]):
    """All grid Katetov value tuples on the subset with those indices, in
    lexicographic order. They depend only on q and the distances inside the
    subset, so they are computed once per such pattern."""
    d = space.dist
    return _profiles_by_gaps(space.denominator,
                             tuple(tuple(d[idx[t]][idx[j]] for t in range(j))
                                   for j in range(len(idx))))


@lru_cache(maxsize=256)
def _profiles_by_gaps(q: int, gaps: tuple[tuple[int, ...], ...]):
    """_katetov_profiles for a subset whose point j lies at gaps[j][t] from
    its point t < j. There can be (q+1)^k of them, so listing more than
    PROFILE_LIMIT is refused."""
    def values(prefix):
        lo, hi = katetov_bounds(zip(prefix, gaps[len(prefix)]), 0, q)
        return range(lo, hi + 1)

    k = len(gaps)
    out: list[tuple[int, ...]] = []
    for prof in lex_tuples(k, values):
        if len(out) == PROFILE_LIMIT:
            raise GuardError(f"profile enumeration refused: a {k}-point support at "
                             f"q={q} has more than {PROFILE_LIMIT} grid profiles "
                             f"(listed {len(out)}, limit {PROFILE_LIMIT})")
        out.append(prof)
    return tuple(out)


def _realized(space: FiniteMetricSpace, idx: tuple[int, ...]) -> set:
    """Every point's distances to the subset, as tuples. Column i is row i
    (the metric is symmetric), so zipping the subset's rows gives them."""
    return set(zip(*(space.dist[i] for i in idx)))


@dataclass(frozen=True)
class InjectivityReport:
    checked: int
    unrealized: tuple[tuple[tuple[str, ...], tuple[int, ...]], ...]

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

    The heap holds one entry per support of size <= max_subset, keyed
    (size, idx, start): every profile of the support before `start` is
    realized or contains a zero. A profile vanishing at point i is realized
    by i itself (it forces f(j) = d(i, j)), so only zero-free ones can be
    missing. Adding a point never un-realizes a profile, so an entry only
    moves forward; it is rechecked when it reaches the top and dropped once
    its support has nothing left.
    """

    def __init__(self, space: FiniteMetricSpace, max_subset: int):
        self.space = space
        self.max_subset = max_subset
        # generated in key order, so already a heap
        self.heap = [(size, idx, ()) for size in range(1, max_subset + 1)
                     for idx in combinations(range(space.n), size)]

    def grow(self, space: FiniteMetricSpace):
        """Move to `space`, the current space plus one point at the end:
        add the supports that contain the new point."""
        new = space.n - 1
        self.space = space
        for size in range(1, self.max_subset + 1):
            for rest in combinations(range(new), size - 1):
                heapq.heappush(self.heap, (size, rest + (new,), ()))

    def first(self):
        """(idx, profile) of the first unrealized zero-free profile, or None."""
        heap = self.heap
        space = self.space
        while heap:
            size, idx, start = heap[0]
            realized = _realized(space, idx)
            for prof in _katetov_profiles(space, idx):
                if prof >= start and 0 not in prof and prof not in realized:
                    heapq.heapreplace(heap, (size, idx, prof))
                    return idx, prof
            heapq.heappop(heap)
        return None


@dataclass(frozen=True)
class ApproximantResult:
    space: FiniteMetricSpace
    status: str  # "closed" | "capped"
    added: int
    strategy: str


def _circulant_template(n: int, q: int, colors):
    """The space on v0..v{n-1} with d(i, j) = colors[g - 1] at cyclic gap
    g = min(|i - j|, n - |i - j|), or None when that breaks the triangle
    inequality.

    Colors lie in [1, q], so range, diagonal, symmetry and identity hold by
    construction. d(i, j) depends only on j - i mod n, so rotating any triple
    (x, y, z) by -x turns d(x, y) <= d(x, z) + d(z, y) into
    d(0, a) <= d(0, b) + d(b, a) with a = y - x, b = z - x: checking that
    over all pairs a, b is the full triangle check, in O(n^2)."""
    row0 = [0] + [colors[min(gap, n - gap) - 1] for gap in range(1, n)]
    for a in range(1, n):
        d0a = row0[a]
        for b in range(1, n):
            if d0a > row0[b] + row0[(a - b) % n]:
                return None
    # row i is row 0 rotated right by i
    rows = tuple(tuple(row0[n - i:] + row0[:n - i]) for i in range(n))
    return FiniteMetricSpace._trusted(tuple(f"v{i}" for i in range(n)), q, rows, False)


def _isometric_injections(pattern, target):
    """Every injective index tuple img into range(len(target)) with
    target[img[i]][img[j]] == pattern[i][j], for symmetric pattern and
    target, in lexicographic order.

    The candidates for position i are the targets at the right distance
    from each earlier image in turn, and then the unused ones among them:
    the distance filters usually leave few, so the used targets are
    dropped last."""
    def images(image):
        i = len(image)
        cands = range(len(target))
        for j, t in enumerate(image):
            tj, pj = target[t], pattern[j][i]
            cands = [c for c in cands if tj[c] == pj]
        return [c for c in cands if c not in image]

    return lex_tuples(len(pattern), images)


def _embed_seed(seed: FiniteMetricSpace, target: FiniteMetricSpace):
    """Indices of an isometric copy of the seed inside the target, or None."""
    first = next(_isometric_injections(seed.dist, target.dist), None)
    return None if first is None else list(first)


def find_transitive_template(seed: FiniteMetricSpace, max_subset: int, q: int,
                             cap: int, candidate_budget: int = 20_000):
    """Search rotation-invariant spaces over cyclic groups for one that is
    closed under small profiles and contains the seed isometrically.

    Such a space is vertex-transitive by construction, so every single point
    maps onto every other by a global isometry. A candidate is kept only if
    its triangles hold, which the rotation argument of _circulant_template
    decides in O(n^2) comparisons, stopping at the first failure; only then
    is it built and asked for closure and for the seed. Returns (template,
    embedded seed indices) or None when the bounded search finds nothing."""
    from itertools import product as iproduct

    _require_subset(max_subset)
    tried = 0
    for n in range(max(seed.n, 1), cap + 1):
        half = n // 2
        if half == 0:
            continue
        if q ** half > candidate_budget - tried:
            break
        for colors in iproduct(range(1, q + 1), repeat=half):
            tried += 1
            if tried > candidate_budget:
                return None
            # quick filter: realizing singleton profiles needs every grid
            # value among the gap colors once n is big enough to matter
            if set(range(1, q + 1)) - set(colors):
                continue
            template = _circulant_template(n, q, colors)
            if template is None:
                continue
            # stops at the first missing profile; equals injectivity_check().ok
            if _ProfileFrontier(template, max_subset).first() is not None:
                continue
            embedded = _embed_seed(seed, template)
            if embedded is not None:
                return template, embedded
    return None


def build_approximant(seed: FiniteMetricSpace, max_subset: int, q: int, cap: int,
                      rng_seed: int = 0, strategy: str = "auto") -> ApproximantResult:
    """Grow a space until every small grid Katetov profile is realized.

    Profiles are visited in lexicographic (subset, values) order and each
    unrealized one gets a fresh realizing point; profiles containing a zero
    are skipped since their own support point already realizes them. One
    frontier (_ProfileFrontier) serves the whole build: a heap with one small
    entry per support of size <= max_subset, so at most C(cap, 1) + ... +
    C(cap, max_subset) of them, each remembering how far its profiles are
    known to be realized. Adding a point never un-realizes a profile, so no
    profile is scanned twice once realized. A realizing point must carry the
    profile on its support; its remaining distances are where the strategies
    differ:

    "transitive" first finds a closed rotation-invariant template containing
    the seed (see find_transitive_template) and copies each realizing point
    out of it, so the closure inherits the template's point-transitivity.
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
        found = find_transitive_template(space, max_subset, q, cap)
        if found is not None:
            template, embedded = found
        elif strategy == "transitive":
            raise GuardError("no transitive template within the search budget; "
                             "use strategy='random'")
    mode = "transitive" if template is not None else "random"
    if template is not None:
        # image[i] = template vertex realizing point i of the grown space
        image = list(embedded)

    fresh = 0
    frontier = _ProfileFrontier(space, max_subset)
    while True:
        hit = frontier.first()
        if hit is None:
            return ApproximantResult(space, "closed", space.n - seed.n, mode)
        if space.n >= cap:
            return ApproximantResult(space, "capped", space.n - seed.n, mode)
        idx, prof = hit
        if template is not None:
            cands = [t for t in range(template.n)
                     if t not in image
                     and all(template.dist[t][image[i]] == v
                             for i, v in zip(idx, prof))]
            if not cands:
                raise InvariantError("closed template misses a profile it must realize")
            target = cands[0]
            row = [template.dist[target][image[z]] for z in range(space.n)]
            image.append(target)
        else:
            row = [None] * space.n
            for i, v in zip(idx, prof):
                row[i] = v
            for z in range(space.n):
                if row[z] is not None:
                    continue
                dz = space.dist[z]
                row[z] = rng.randint(*katetov_bounds(
                    [(w, dz[y]) for y, w in enumerate(row) if w is not None], 1, q))
        while f"a{fresh}" in space._index:
            fresh += 1
        space = space.with_point(f"a{fresh}", row)
        frontier.grow(space)
        fresh += 1


def iso_group(space: FiniteMetricSpace, max_points: int = ISO_GROUP_MAX_POINTS):
    """Every distance-preserving permutation, found by backtracking, as
    index tuples in lexicographic order. Refuses outright beyond the size
    guard; factorial search is not something to time out on."""
    n = space.n
    if n > max_points:
        raise GuardError(f"isometry search refused for {n} > {max_points} points")
    return tuple(_isometric_injections(space.dist, space.dist))


@dataclass(frozen=True)
class HomogeneityReport:
    checked: int
    non_extendable: tuple[tuple[tuple[str, str], ...], ...]

    @property
    def ok(self) -> bool:
        return not self.non_extendable


def homogeneity_check(space: FiniteMetricSpace, max_subset: int,
                      max_points: int = ISO_GROUP_MAX_POINTS) -> HomogeneityReport:
    """Does every isometry between subsets of size <= max_subset extend to a
    global isometry? Reports the partial isometries that do not."""
    group = iso_group(space, max_points=max_points)
    dist = space.dist
    bad = []
    checked = 0
    for size in range(1, max_subset + 1):
        for dom in combinations(range(space.n), size):
            pattern = [[dist[a][b] for b in dom] for a in dom]
            for img in _isometric_injections(pattern, dist):
                checked += 1
                if not any(all(g[a] == b for a, b in zip(dom, img)) for g in group):
                    bad.append(tuple((space.points[a], space.points[b])
                                     for a, b in zip(dom, img)))
    return HomogeneityReport(checked, tuple(bad))
