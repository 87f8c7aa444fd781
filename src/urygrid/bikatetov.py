"""The ordered involutive semigroup of bi-Katetov matrices over a space.

A bi-Katetov matrix assigns a grid value to every ordered point pair so that
every row and every column is Katetov; geometrically it records the cross
distances of a space covered by two isometric copies of the base. The
product is the bounded min-plus composition, the involution is transposition,
the metric itself is the unity and the constant diameter is an absorbing
zero. Idempotents above the metric route through subsets; invertibles come
from isometries.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import repeat

from . import _kernels
from .errors import GuardError, InvariantError, ValidationError
from .grid import Record, add_capped, is_grid_int, katetov_bounds, lex_tuples
from .spaces import FiniteMetricSpace, _as_tuple

BIKATETOV_BUDGET = 1_000_000
SATURATION_GUARD = 100_000
# Gibbs sweeps per draw of random_bikatetov, which starts at the metric, and
# of random_bikatetov_below, which starts at its ceiling
RANDOM_SWEEPS = 3
BELOW_SWEEPS = 2


class BiKatetovMatrix(Record):
    _fields = ("space", "entries")

    def __init__(self, space: FiniteMetricSpace, entries: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "entries", _as_tuple(entries, "entries", rows=True))
        self.__post_init__()

    def __post_init__(self):
        n = self.space.n
        q = self.space.denominator
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValidationError(f"matrix is not {n}x{n}")
        for row in self.entries:
            for e in row:
                if not is_grid_int(e, 0, q):
                    raise ValidationError(f"entry {e!r} is not an integer in [0, {q}]")
        if not _kernels.is_bikatetov(n, self._flat, self.space.flat(), q):
            w = bikatetov_witness(self.space, self.entries)
            raise ValidationError(f"matrix is not bi-Katetov, witness {w}", w)

    def flat(self) -> tuple[int, ...]:
        return self._flat

    @cached_property
    def _flat(self) -> tuple[int, ...]:
        return tuple(e for row in self.entries for e in row)

    def __le__(self, other: "BiKatetovMatrix") -> bool:
        _same_base(self, other)
        return all(a <= b for ra, rb in zip(self.entries, other.entries)
                   for a, b in zip(ra, rb))

    def __ge__(self, other: "BiKatetovMatrix") -> bool:
        return other.__le__(self)


def bikatetov_witness(space: FiniteMetricSpace, entries):
    """One (x, y, z) triple violating a row or column Katetov condition,
    or None."""
    n = space.n
    for x in range(n):
        for y in range(n):
            for z in range(n):
                d = space.dist[y][z]
                a, b = entries[x][y], entries[x][z]
                if abs(a - b) > d or d > a + b:
                    return ("row", space.points[x], space.points[y], space.points[z])
                a, b = entries[y][x], entries[z][x]
                if abs(a - b) > d or d > a + b:
                    return ("col", space.points[x], space.points[y], space.points[z])
    return None


def is_bikatetov_matrix(space: FiniteMetricSpace, entries) -> bool:
    flat = [e for r in entries for e in r]
    return _kernels.is_bikatetov(space.n, flat, space.flat(), space.denominator)


def _same_base(f: BiKatetovMatrix, g: BiKatetovMatrix):
    if f.space != g.space:
        raise ValidationError("matrices live over different base spaces")


def _wrap(space: FiniteMetricSpace, flat: list[int]) -> BiKatetovMatrix:
    n = space.n
    return BiKatetovMatrix._trusted(space, tuple(tuple(flat[i:i + n])
                                                 for i in range(0, n * n, n)))


def metric_unit(space: FiniteMetricSpace) -> BiKatetovMatrix:
    """The metric itself; the unity of the semigroup."""
    return BiKatetovMatrix._trusted(space, space.dist)


def constant_zero(space: FiniteMetricSpace) -> BiKatetovMatrix:
    """The constant diameter; absorbs every product."""
    q = space.denominator
    row = (q,) * space.n
    return BiKatetovMatrix._trusted(space, (row,) * space.n)


def product(f: BiKatetovMatrix, g: BiKatetovMatrix) -> BiKatetovMatrix:
    """Bounded min-plus composition: min over z of (f(x,z) + g(z,y)) capped
    at the diameter. Closed on bi-Katetov matrices."""
    _same_base(f, g)
    n = f.space.n
    return _wrap(f.space, _kernels.minplus_product(n, f.flat(), g.flat(),
                                                   f.space.denominator))


def star(f: BiKatetovMatrix) -> BiKatetovMatrix:
    """Transposition; the involution of the semigroup."""
    return BiKatetovMatrix._trusted(f.space, tuple(zip(*f.entries)))


def characterization_check(space: FiniteMetricSpace, entries) -> bool:
    """Algebraic membership test on a raw grid matrix: absorbs the metric on
    both sides and both star-products dominate the metric. Must agree with
    the direct row/column definition; that agreement is itself a test."""
    n = space.n
    q = space.denominator
    flat = [e for r in entries for e in r]
    if len(flat) != n * n or any(not is_grid_int(e, 0, q) for e in flat):
        raise ValidationError("matrix entries must be integers in [0, q]")
    d = space.flat()
    k = _kernels
    if k.minplus_product(n, flat, d, q) != flat:
        return False
    if k.minplus_product(n, d, flat, q) != flat:
        return False
    tflat = [flat[j * n + i] for i in range(n) for j in range(n)]
    left = k.minplus_product(n, tflat, flat, q)
    right = k.minplus_product(n, flat, tflat, q)
    return all(left[i] >= d[i] for i in range(n * n)) and \
        all(right[i] >= d[i] for i in range(n * n))


def _check_isometry(space: FiniteMetricSpace, perm) -> tuple[int, ...]:
    perm = _as_tuple(perm, "permutation")
    n = space.n
    # by type first: by value, True == 1 and 1.0 == 1 would pass the sort
    if not all(is_grid_int(i) for i in perm) or sorted(perm) != list(range(n)):
        raise ValidationError(f"{perm} is not a permutation of {n} points")
    for i in range(n):
        for j in range(n):
            if space.dist[i][j] != space.dist[perm[i]][perm[j]]:
                raise ValidationError(
                    f"permutation does not preserve d({space.points[i]},{space.points[j]})",
                    (i, j))
    return perm


def _inverse(perm: tuple[int, ...]) -> list[int]:
    """inv with inv[perm[i]] = i, for a checked permutation."""
    inv = [0] * len(perm)
    for i, t in enumerate(perm):
        inv[t] = i
    return inv


def _relabel(space: FiniteMetricSpace, entries, rows, cols) -> BiKatetovMatrix:
    """The matrix (x, y) -> entries[rows[x]][cols[y]], for a bi-Katetov
    ``entries`` and isometries ``rows`` and ``cols`` given as sequences:
    each row is a Katetov function relabelled by an isometry, and so is
    each column."""
    return BiKatetovMatrix._trusted(space, tuple(
        tuple(row[y] for y in cols) for row in map(entries.__getitem__, rows)))


def embed_isometry(space: FiniteMetricSpace, perm) -> BiKatetovMatrix:
    """The matrix (x, y) -> d(x, perm(y)). A monoid-with-involution morphism
    from the isometry group into the semigroup."""
    return _relabel(space, space.dist, range(space.n), _check_isometry(space, perm))


def routing_idempotent(space: FiniteMetricSpace, subset) -> BiKatetovMatrix:
    """Cheapest capped route from x into the subset and back out to y; the
    idempotent of gluing two copies of the space along the subset. The empty
    subset gives the constant diameter."""
    idx = sorted(space.index(p) for p in subset)
    q = space.denominator
    if not idx:
        return constant_zero(space)
    n = space.n
    return BiKatetovMatrix._trusted(space, tuple(
        tuple(min(add_capped(space.dist[x][z], space.dist[z][y], q) for z in idx)
              for y in range(n)) for x in range(n)))


def inner_aut(perm, p: BiKatetovMatrix) -> BiKatetovMatrix:
    """Conjugation by an isometry: relabel both coordinates."""
    inv = _inverse(_check_isometry(p.space, perm))
    return _relabel(p.space, p.entries, inv, inv)


def act_left(perm, p: BiKatetovMatrix) -> BiKatetovMatrix:
    """Closed form of multiplying by an embedded isometry on the left:
    (x, y) -> p(perm^{-1}(x), y). Equals product(embed_isometry(perm), p)."""
    inv = _inverse(_check_isometry(p.space, perm))
    return _relabel(p.space, p.entries, inv, range(p.space.n))


def act_right(p: BiKatetovMatrix, perm) -> BiKatetovMatrix:
    """Closed form of multiplying by an embedded isometry on the right:
    (x, y) -> p(x, perm(y))."""
    return _relabel(p.space, p.entries, range(p.space.n), _check_isometry(p.space, perm))


def invertible_isometry(f: BiKatetovMatrix):
    """The isometry whose embedding equals f, if one exists; invertible
    elements are exactly the embedded isometries, so None means f has no
    two-sided inverse."""
    from .isometry import iso_group  # on call: the semigroup alone never loads isometry

    for perm in iso_group(f.space):
        if embed_isometry(f.space, perm) == f:
            return perm
    return None


def greatest_idempotent(gens) -> BiKatetovMatrix | None:
    """Saturate the generators under the product (grid finiteness bounds
    the closure), keep the elements dominating the metric, and fold them
    together; the fold dominates everything it folded, so it is the greatest
    element, and it must come out idempotent."""
    gens = list(gens)
    if not gens:
        raise ValidationError("need at least one generator")
    space = gens[0].space
    for g in gens:
        _same_base(gens[0], g)
    seen = {g.entries: g for g in gens}
    changed = True
    while changed:
        changed = False
        items = list(seen.values())
        for a in items:
            for b in items:
                c = product(a, b)
                if c.entries not in seen:
                    seen[c.entries] = c
                    changed = True
                    if len(seen) > SATURATION_GUARD:
                        raise GuardError(f"saturation exceeded the guard: {len(seen)} "
                                         f"elements, limit {SATURATION_GUARD}",
                                         used=len(seen), limit=SATURATION_GUARD)
    unit = metric_unit(space)
    above = [f for f in seen.values() if f >= unit]
    if not above:
        return None
    above.sort(key=lambda f: f.entries)
    top = above[0]
    for f in above[1:]:
        top = product(top, f)
    for f in above:
        if not top >= f:
            raise InvariantError("fold of the dominating elements is not greatest")
    if product(top, top) != top:
        raise InvariantError("greatest dominating element is not idempotent")
    return top


def _bikatetov_dfs(space: FiniteMetricSpace, lower):
    """Every grid bi-Katetov matrix over the space with each entry (r, c) at
    least lower[r][c], as a tuple of row tuples, in lexicographic entry
    order. Depth-first over the entries, row by row; each entry ranges over
    the Katetov interval left by the earlier entries of its row and of its
    column, so the enumeration stays exhaustive. Refused past
    BIKATETOV_BUDGET candidates. On the pure backend (2-vCPU Xeon,
    random_grid_space(3, 12, 1) and (4, 6, 1)) the walk alone refuses after
    1.4 to 2.2 s, and classify_idempotents after 6 to 12 s, because the
    product and validation of each leaf are not charged to the budget."""
    n = space.n
    q = space.denominator
    dist = space.dist

    def values(prefix):
        r, c = divmod(len(prefix), n)
        lo, hi = katetov_bounds(zip(prefix[r * n:], dist[c]), lower[r][c], q)
        lo, hi = katetov_bounds(zip(prefix[c::n], dist[r]), lo, hi)
        return range(lo, hi + 1)

    return (tuple(flat[i:i + n] for i in range(0, n * n, n))
            for flat in lex_tuples(n * n, values, BIKATETOV_BUDGET,
                                   f"bi-Katetov search on {n} points at q={q}"))


def classify_idempotents(space: FiniteMetricSpace):
    """Exhaustively enumerate the grid idempotents dominating the metric and
    pair each with the subset it routes through (the zero set of its
    diagonal). Sweeps the bi-Katetov matrices above the metric
    (_bikatetov_dfs) and keeps the idempotent ones."""
    n = space.n
    q = space.denominator
    out = []
    for entries in _bikatetov_dfs(space, space.dist):
        flat = [e for row in entries for e in row]
        if _kernels.minplus_product(n, flat, flat, q) != flat:
            continue
        p = BiKatetovMatrix(space, entries)
        subset = tuple(space.points[x] for x in range(n) if entries[x][x] == 0)
        if routing_idempotent(space, subset) != p:
            raise InvariantError(
                f"idempotent does not route through its diagonal zero set {subset}")
        out.append((p, subset))
    out.sort(key=lambda pair: pair[0].entries)
    return out


def enumerate_bikatetov(space: FiniteMetricSpace):
    """Exhaustively enumerate every grid bi-Katetov matrix over the space,
    in lexicographic entry order (_bikatetov_dfs with no lower bound); only
    feasible for small spaces and grids."""
    zero = [[0] * space.n for _ in range(space.n)]
    return [BiKatetovMatrix(space, entries)
            for entries in _bikatetov_dfs(space, zero)]


def product_via_amalgam(p: BiKatetovMatrix, q_: BiKatetovMatrix) -> BiKatetovMatrix:
    """Independent geometric route to the product: lay out three copies of
    the base, x, x' and x'', wire copy one to copy two by p and copy two to
    copy three by q_, leave the outer block between copies one and three
    unspecified, close the layout by capped shortest chains, and read that
    block off. The closure is the largest pseudometric below the layout, so
    it must keep every specified entry; one it contracts raises
    InvariantError. Must equal product(p, q_) exactly."""
    _same_base(p, q_)
    space = p.space
    n = space.n
    m = 3 * n
    dist, a, b = space.dist, p.entries, q_.entries
    hole = (_kernels.INF,) * n
    # the rows of x, then of x', then of x'', flat: (x, y') is p(x, y) and
    # (x', y'') is q_(x, y), each mirrored, and the outer block is missing
    w: list[int] = []
    for blocks in (zip(dist, a, repeat(hole)), zip(zip(*a), dist, b),
                   zip(repeat(hole), zip(*b), dist)):
        for left, mid, right in blocks:
            w += left
            w += mid
            w += right
    closed = _kernels.floyd_warshall_capped(m, w, space.denominator)
    # row r specifies the columns lo..hi-1: all but copy three in copy one's
    # rows, all but copy one in copy three's
    for r in range(m):
        lo = r * m + (n if r >= 2 * n else 0)
        hi = r * m + (2 * n if r < n else m)
        if closed[lo:hi] != w[lo:hi]:
            j = next(k for k in range(lo, hi) if closed[k] != w[k]) - r * m
            x, y = (f"{space.points[i % n]}" + "'" * (i // n) for i in (r, j))
            raise InvariantError(f"three-copy layout is not a pseudometric at ({x},{y})")
    return BiKatetovMatrix(space, tuple(tuple(closed[i * m + 2 * n:i * m + m])
                                        for i in range(n)))


def _gibbs(space: FiniteMetricSpace, start, ceiling, rng: random.Random,
           sweeps: int) -> BiKatetovMatrix:
    """Gibbs sampler from the bi-Katetov matrix ``start``: each sweep visits
    the entries row by row and re-draws each one uniformly inside its
    feasible interval given all the others, capped entrywise by
    ``ceiling``. Every intermediate matrix is bi-Katetov.

    When the generator draws integers through getrandbits (random.Random
    does, and so does a subclass unless it overrides random() and not
    getrandbits()), the draw is the rejection loop of Random.randint written
    out, as in katetov._random_row: it takes the same bits, so the matrix
    and the generator's end state are those randint would give. Any other
    generator draws with randint. An empty interval raises InvariantError."""
    dist = space.dist
    rows = range(space.n)
    e = [list(r) for r in start]
    bits = (rng.getrandbits if getattr(type(rng), "_randbelow", None)
            is random.Random._randbelow_with_getrandbits else None)
    # lo = max |w - d| and hi = min w + d, by plain comparisons: lo starts at
    # 0, so a positive t = w - d can only raise it, and a negative one only
    # through -t. That is grid.katetov_bounds written out: building 2n pairs
    # and a call per entry would slow this hot path of the semigroup laws
    for _ in range(sweeps):
        for x in rows:
            ex, dx, cx = e[x], dist[x], ceiling[x]
            for y in rows:
                dy = dist[y]
                lo, hi = 0, cx[y]
                for z in rows:
                    if z != y:
                        d = dy[z]
                        w = ex[z]
                        t = w - d
                        if t > lo:
                            lo = t
                        elif -t > lo:
                            lo = -t
                        t = w + d
                        if t < hi:
                            hi = t
                    if z != x:
                        d = dx[z]
                        w = e[z][y]
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
                    raise InvariantError(f"empty Gibbs interval [{lo}, {hi}] at ({x}, {y})")
                if bits is None:
                    ex[y] = rng.randint(lo, hi)
                else:
                    k = width.bit_length()
                    r = bits(k)
                    while r >= width:
                        r = bits(k)
                    ex[y] = lo + r
    return BiKatetovMatrix._trusted(space, tuple(tuple(r) for r in e))


def random_bikatetov_below(upper: BiKatetovMatrix, rng: random.Random) -> BiKatetovMatrix:
    """Random bi-Katetov matrix entrywise at most ``upper``: the same Gibbs
    sweep started at the ceiling and clamped by it, BELOW_SWEEPS times."""
    return _gibbs(upper.space, upper.entries, upper.entries, rng, BELOW_SWEEPS)


def random_bikatetov(space: FiniteMetricSpace, rng: random.Random) -> BiKatetovMatrix:
    """Exact sampler: start at the metric and re-draw entries uniformly
    inside their feasible interval given all the others, RANDOM_SWEEPS sweeps.
    Every intermediate matrix is bi-Katetov, so validity is never repaired
    after the fact."""
    q = space.denominator
    return _gibbs(space, space.dist, [[q] * space.n for _ in space.points], rng, RANDOM_SWEEPS)
