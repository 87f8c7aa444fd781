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
from .grid import add_capped
from .spaces import FiniteMetricSpace

ISO_GROUP_MAX_POINTS = 10


@dataclass(frozen=True)
class KatetovFunction:
    """Grid values on a support subset of a space. The constructor checks
    structure only; use katetov_witness / is_katetov for the inequalities."""

    space: FiniteMetricSpace
    support: tuple[str, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "values", tuple(self.values))
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
            if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v <= q:
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
    its point t < j."""
    k = len(gaps)
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def rec():
        if len(prefix) == k:
            out.append(tuple(prefix))
            return
        j = len(prefix)
        lo, hi = 0, q
        for d, v in zip(gaps[j], prefix):
            lo = max(lo, v - d, d - v)
            hi = min(hi, v + d)
        for v in range(lo, hi + 1):
            prefix.append(v)
            rec()
            prefix.pop()

    rec()
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


def _circulant_rows(n: int, colors):
    # d(i, j) depends only on the cyclic gap j - i, so row i is row 0
    # rotated right by i
    row0 = [0] + [colors[min(gap, n - gap) - 1] for gap in range(1, n)]
    return tuple(tuple(row0[n - i:] + row0[:n - i]) for i in range(n))


def _embed_seed(seed: FiniteMetricSpace, target: FiniteMetricSpace):
    """Indices of an isometric copy of the seed inside the target, or None."""
    chosen: list[int] = []

    def rec() -> bool:
        if len(chosen) == seed.n:
            return True
        i = len(chosen)
        for c in range(target.n):
            if c in chosen:
                continue
            if all(target.dist[chosen[j]][c] == seed.dist[j][i] for j in range(i)):
                chosen.append(c)
                if rec():
                    return True
                chosen.pop()
        return False

    return list(chosen) if rec() else None


def find_transitive_template(seed: FiniteMetricSpace, max_subset: int, q: int,
                             cap: int, candidate_budget: int = 20_000):
    """Search rotation-invariant spaces over cyclic groups for one that is
    closed under small profiles and contains the seed isometrically.

    Such a space is vertex-transitive by construction, so every single point
    maps onto every other by a global isometry. Returns (template, embedded
    seed indices) or None when the bounded search finds nothing."""
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
            try:
                template = FiniteMetricSpace(
                    tuple(f"v{i}" for i in range(n)), q, _circulant_rows(n, colors))
            except ValidationError:
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
                lo, hi = 1, q
                for y in range(space.n):
                    if row[y] is None:
                        continue
                    d = space.dist[z][y]
                    lo = max(lo, row[y] - d, d - row[y])
                    hi = min(hi, row[y] + d)
                row[z] = rng.randint(lo, hi)
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
    dist = space.dist
    perms: list[tuple[int, ...]] = []
    image: list[int] = []
    used = [False] * n

    def rec():
        if len(image) == n:
            perms.append(tuple(image))
            return
        i = len(image)
        for cand in range(n):
            if used[cand]:
                continue
            if all(dist[i][j] == dist[cand][image[j]] for j in range(i)):
                used[cand] = True
                image.append(cand)
                rec()
                image.pop()
                used[cand] = False

    rec()
    return tuple(perms)


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
    n = space.n
    dist = space.dist
    bad = []
    checked = 0

    def partial_isometries(size):
        # ordered domains against ordered images, both backtracked
        for dom in combinations(range(n), size):
            image: list[int] = []
            used = [False] * n

            def rec():
                nonlocal checked
                if len(image) == size:
                    checked += 1
                    yield tuple(image)
                    return
                i = len(image)
                for cand in range(n):
                    if used[cand]:
                        continue
                    if all(dist[dom[i]][dom[j]] == dist[cand][image[j]] for j in range(i)):
                        used[cand] = True
                        image.append(cand)
                        yield from rec()
                        image.pop()
                        used[cand] = False

            for img in rec():
                yield dom, img

    for size in range(1, max_subset + 1):
        for dom, img in partial_isometries(size):
            if not any(all(g[a] == b for a, b in zip(dom, img)) for g in group):
                bad.append(tuple((space.points[a], space.points[b]) for a, b in zip(dom, img)))
    return HomogeneityReport(checked, tuple(bad))
