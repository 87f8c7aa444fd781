"""Finite metric and pseudometric spaces with exact grid distances.

A space carries named points and a square matrix of integer numerators over
a shared denominator q; distances are the rationals entry/q and the diameter
never exceeds 1 (entries stay in [0, q]). Everything downstream (Katetov
extensions, bounded min-plus products, amalgams) operates on these integers,
so identities are checked exactly rather than within tolerances. The two
functions that call a kernel import it themselves, so a process that only
reads and validates spaces loads no kernel backend.
"""

from __future__ import annotations

import random
import reprlib
from collections.abc import Sequence
from functools import cached_property
from itertools import combinations

from .errors import ValidationError
from .grid import Record, denominator_problem, is_grid_int, katetov_bounds, lcm


class Violation(Record):
    _fields = ("kind", "message", "witness")

    def __init__(self, kind: str, message: str, witness: tuple = ()):
        # kind: shape | range | diagonal | symmetry | triangle | identity
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "witness", witness)

    @property
    def structural(self) -> bool:
        return self.kind in ("shape", "range")


class ValidationReport(Record):
    _fields = ("problems",)

    def __init__(self, problems: tuple[Violation, ...]):
        object.__setattr__(self, "problems", problems)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def structural(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.problems if v.structural)

    @property
    def axiom_violations(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.problems if not v.structural)

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(v.message for v in self.problems)


def validate_space(points, denominator, dist, pseudo: bool = False) -> ValidationReport:
    """Check a candidate space. Structural problems (bad shape, entries off
    the grid) are reported with kinds distinct from metric axiom violations;
    axioms are only checked once the shape is sound."""
    return _metric_report(points, denominator, dist, pseudo, 1)


def _metric_report(points, denominator, dist, pseudo, diameter: int) -> ValidationReport:
    """validate_space with entries allowed up to ``diameter`` times the
    denominator; the one check of the metric axioms (weighted alphabets
    use it with diameter 2)."""
    try:
        points = list(points)
    except TypeError:
        return ValidationReport((Violation(
            "shape", f"points must be a sequence, got {reprlib.repr(points)}"),))
    problems: list[Violation] = []
    n = len(points)
    if n == 0:
        problems.append(Violation("shape", "space needs at least one point"))
    try:
        if len(set(points)) != n:
            problems.append(Violation("shape", "duplicate point names"))
    except TypeError:  # an unhashable name
        problems.append(Violation("shape", "point names must be hashable"))
    if not isinstance(pseudo, bool):
        problems.append(Violation("shape", f"pseudo must be True or False, got {pseudo!r}"))
    bad_denominator = denominator_problem(denominator)
    if bad_denominator:
        problems.append(Violation("shape", bad_denominator))
        return ValidationReport(tuple(problems))
    try:
        rows = list(dist)
    except TypeError:
        rows = None
    if rows is None or len(rows) != n or \
            any(not isinstance(row, Sequence) or len(row) != n for row in rows):
        problems.append(Violation("shape", f"distance matrix is not {n}x{n}"))
        return ValidationReport(tuple(problems))
    hi = diameter * denominator
    for i in range(n):
        for j in range(n):
            e = rows[i][j]
            if not is_grid_int(e, 0, hi):
                problems.append(Violation(
                    "range",
                    f"entry ({points[i]},{points[j]}) = {e!r} is not an integer in [0, {hi}]",
                    (i, j)))
    if any(v.kind == "range" for v in problems):
        return ValidationReport(tuple(problems))
    for i in range(n):
        if rows[i][i] != 0:
            problems.append(Violation("diagonal", f"d({points[i]},{points[i]}) = {rows[i][i]} != 0", (i,)))
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                problems.append(Violation(
                    "symmetry",
                    f"d({points[i]},{points[j]}) = {rows[i][j]} but d({points[j]},{points[i]}) = {rows[j][i]}",
                    (i, j)))
            elif not pseudo and rows[i][j] == 0:
                problems.append(Violation(
                    "identity",
                    f"distinct points {points[i]}, {points[j]} at distance 0 in a metric space",
                    (i, j)))
    for i, j, k in combinations(range(n), 3):
        for a, b, c in ((i, j, k), (i, k, j), (j, k, i)):
            if rows[a][b] > rows[a][c] + rows[c][b]:
                problems.append(Violation(
                    "triangle",
                    f"d({points[a]},{points[b]}) = {rows[a][b]} > "
                    f"{rows[a][c]} + {rows[c][b]} via {points[c]}",
                    (a, b, c)))
    return ValidationReport(tuple(problems))


class FiniteMetricSpace(Record):
    """Named points with an exact grid distance matrix, diameter <= 1.

    ``pseudo`` permits zero distances between distinct points; with the
    default False the constructor insists on a genuine metric.
    """

    _fields = ("points", "denominator", "dist", "pseudo")

    def __init__(self, points: tuple[str, ...], denominator: int,
                 dist: tuple[tuple[int, ...], ...], pseudo: bool = False):
        points = _as_tuple(points, "points")
        dist = _as_tuple(dist, "dist", rows=True)
        _raise_unless_ok(validate_space(points, denominator, dist, pseudo))
        self.__dict__.update(points=points, denominator=denominator, dist=dist, pseudo=pseudo)

    @cached_property
    def _index(self) -> dict:
        """point name -> its position"""
        return {p: i for i, p in enumerate(self.points)}

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ValidationError(f"unknown point {name!r}") from None

    def distance(self, a: str, b: str) -> int:
        return self.dist[self.index(a)][self.index(b)]

    def flat(self) -> list[int]:
        return [e for row in self.dist for e in row]

    def rescaled(self, new_denominator: int) -> "FiniteMetricSpace":
        """Same space over a finer grid; new denominator must be a multiple."""
        if new_denominator == self.denominator:
            return self
        if new_denominator % self.denominator != 0:
            raise ValidationError(
                f"cannot rescale grid {self.denominator} to {new_denominator}")
        f = new_denominator // self.denominator
        return FiniteMetricSpace(
            self.points, new_denominator,
            tuple(tuple(e * f for e in row) for row in self.dist), self.pseudo)

    def restrict(self, names) -> "FiniteMetricSpace":
        idx = [self.index(p) for p in names]
        return FiniteMetricSpace(
            tuple(self.points[i] for i in idx), self.denominator,
            tuple(tuple(self.dist[i][j] for j in idx) for i in idx), self.pseudo)

    def with_point(self, name: str, row, pseudo: bool | None = None) -> "FiniteMetricSpace":
        """Extension by one point whose distances to the old points are
        ``row``, built by the validating constructor on the grown matrix,
        so every refusal carries validate_space's report on it. The
        approximant builder grows its spaces with the O(n^2) new-row check
        of _new_row_fits instead."""
        if name in self.points:
            raise ValidationError(f"point name {name!r} already used")
        row = _as_tuple(row, "row")
        rows = tuple(old + row[i:i + 1] for i, old in enumerate(self.dist)) + (row + (0,),)
        return FiniteMetricSpace(self.points + (name,), self.denominator, rows,
                                 self.pseudo if pseudo is None else pseudo)


def _as_tuple(value, what: str, rows: bool = False) -> tuple:
    """value as a tuple, of row tuples with ``rows``; the constructors' one
    normalization, so a part that is not a sequence is a ValidationError."""
    try:
        return tuple(map(tuple, value)) if rows else tuple(value)
    except TypeError:
        raise ValidationError(f"{what} must be a sequence{' of rows' if rows else ''}, "
                              f"got {reprlib.repr(value)}") from None


def _raise_unless_ok(report: ValidationReport, what: str = "space"):
    if not report.ok:
        raise ValidationError(f"invalid {what}: {report}", report)


def _unit_grid(q: int, pseudo: bool) -> bool:
    """Whether a space over denominator ``q`` (a pseudometric when
    ``pseudo``) is a metric at q <= 2, where the triangle and Katetov
    inequalities hold by theorem.

    There every distance between distinct points lies in [1, q] ⊆ [1, 2],
    and so does every value of a zero-free profile. Any two such numbers
    differ by at most 1 and sum to at least 2 >= q. So d(a, b) <= d(a, c)
    + d(c, b) for any three distinct points: every triangle holds. And
    |w - d| <= 1 <= v <= q <= w + d: each value v lies in the Katetov
    interval of every other value w at distance d, so every zero-free
    vector over [1, q] is a Katetov profile, on any support. A pseudometric
    fails this (a zero distance forces values), and so does q = 3, where
    1 + 1 < 3."""
    return q <= 2 and not pseudo


def _new_row_fits(dist, q: int, row, pseudo: bool) -> bool:
    """Whether the space with distance rows ``dist`` over denominator ``q``,
    grown by a point at distances ``row``, is valid.

    That space is valid, ``row`` has one entry per old point, and ``pseudo``
    allows every zero the space has, so only what involves the new point
    can fail: its entries (range), their zeros (identity, in a metric) and
    the three triangles through it for every pair of old points. Where
    _unit_grid holds, the entries past the range and identity checks lie
    in [1, q] and no triangle can fail, so the O(n^2) triangle scan runs
    only where it does not."""
    if not all(is_grid_int(e, 0, q) for e in row) or (not pseudo and 0 in row):
        return False
    if _unit_grid(q, pseudo):
        return True
    n = len(row)
    for i in range(n):
        di, ri = dist[i], row[i]
        for j in range(i + 1, n):
            dij, rj = di[j], row[j]
            if dij > ri + rj or ri > dij + rj or rj > dij + ri:
                return False
    return True


def common_grid(x: FiniteMetricSpace, y: FiniteMetricSpace):
    """Rescale two spaces to their least common denominator."""
    q = lcm(x.denominator, y.denominator)
    return x.rescaled(q), y.rescaled(q)


class PartialSpec(Record):
    """A space candidate whose matrix may leave entries unspecified (None).
    Specified entries must be symmetric with a zero diagonal."""

    _fields = ("points", "denominator", "entries")

    def __init__(self, points: tuple[str, ...], denominator: int,
                 entries: tuple[tuple[int | None, ...], ...]):
        points = _as_tuple(points, "points")
        entries = _as_tuple(entries, "entries", rows=True)
        n = len(points)
        try:
            unique = len(set(points)) == n
        except TypeError:  # an unhashable name
            raise ValidationError("point names must be hashable") from None
        if not unique or n == 0:
            raise ValidationError("points must be nonempty and unique")
        q = denominator
        bad_denominator = denominator_problem(q)
        if bad_denominator:
            raise ValidationError(bad_denominator)
        if len(entries) != n or any(len(r) != n for r in entries):
            raise ValidationError(f"entry matrix is not {n}x{n}")
        for i in range(n):
            if entries[i][i] not in (0, None):
                raise ValidationError(f"nonzero diagonal at {points[i]}")
            for j in range(n):
                e = entries[i][j]
                if e is None:
                    continue
                if not is_grid_int(e, 0, q):
                    raise ValidationError(
                        f"entry ({points[i]},{points[j]}) = {e!r} "
                        f"is not an integer in [0, {q}]")
                if entries[j][i] is not None and entries[j][i] != e:
                    raise ValidationError(
                        f"asymmetric specification at ({points[i]},{points[j]})")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "entries", entries)


def shortest_path_completion(spec: PartialSpec, unreachable: str = "error") -> FiniteMetricSpace:
    """Fill the unspecified entries with minimum chain sums over specified
    edges, capped at the denominator.

    This is the largest pseudometric below the specification. A pair with no
    connecting chain raises by default; ``unreachable="cap"`` fills it with
    the diameter cap instead (the diameter-1 amalgamation convention). Any
    other mode is refused before the closure runs.

    A specification is mirror-closed when it gives (i, j) exactly when it
    gives (j, i), and PartialSpec makes the two equal. Its closure
    min(q, shortest chain) is then a pseudometric by theorem: symmetric,
    zero on the diagonal, in [0, q], and min(q, .) keeps the triangle
    inequality of shortest chains. A capped pair joins two components, and
    every third point is at q from one of them. So that result skips
    revalidation, after an O(n^2) mirror test in place of the O(n^3) scan.
    Any other specification goes through the validating constructor: one
    that leaves (i, j) open while fixing (j, i) makes the closure
    asymmetric, e.g. a-b 1, b-c 1, c-a 4 given one way each at q = 4
    closes to d(a, c) = 2 but d(c, a) = 4, and validate_space refuses it.
    """
    from ._kernels import INF, floyd_warshall_capped

    if unreachable not in ("error", "cap"):
        raise ValidationError(f"unreachable must be 'error' or 'cap', got {unreachable!r}")
    n = len(spec.points)
    q = spec.denominator
    w = [INF] * (n * n)
    for i in range(n):
        w[i * n + i] = 0
        for j in range(n):
            e = spec.entries[i][j]
            if e is not None:
                w[i * n + j] = e
    closed = floyd_warshall_capped(n, w, q)
    for i in range(n):
        for j in range(n):
            if closed[i * n + j] >= INF:
                if unreachable == "cap":
                    closed[i * n + j] = q
                else:
                    raise ValidationError(
                        f"no chain of specified entries connects "
                        f"{spec.points[i]} and {spec.points[j]}", (spec.points[i], spec.points[j]))
    rows = tuple(tuple(closed[i * n + j] for j in range(n)) for i in range(n))
    pseudo = any(rows[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    if spec.entries == tuple(zip(*spec.entries)):  # mirror-closed
        return FiniteMetricSpace._trusted(spec.points, q, rows, pseudo)
    return FiniteMetricSpace(spec.points, q, rows, pseudo=pseudo)


class QuotientResult(Record):
    _fields = ("space", "classes", "projection")

    def __init__(self, space: FiniteMetricSpace, classes: tuple[tuple[str, ...], ...],
                 projection: tuple[tuple[str, str], ...]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "projection", projection)


def quotient_pseudometric(space: FiniteMetricSpace) -> QuotientResult:
    """Identify points at distance zero. The zero relation is transitive by
    the triangle inequality, so the classes are well defined; each class is
    named after its first member and the projection, a (point, class name)
    pair per point in point order, is distance preserving."""
    n = space.n
    rep = list(range(n))
    for i in range(n):
        for j in range(i):
            if space.dist[i][j] == 0:
                rep[i] = rep[j]
                break
    classes: dict[int, list[int]] = {}
    for i in range(n):
        classes.setdefault(rep[i], []).append(i)
    reps = sorted(classes)
    names = tuple(space.points[r] for r in reps)
    rows = tuple(tuple(space.dist[a][b] for b in reps) for a in reps)
    out = FiniteMetricSpace(names, space.denominator, rows, pseudo=False)
    projection = tuple((space.points[i], space.points[rep[i]]) for i in range(n))
    return QuotientResult(
        out, tuple(tuple(space.points[i] for i in classes[r]) for r in reps), projection)


def amalgam(x: FiniteMetricSpace, y: FiniteMetricSpace, glue: dict) -> FiniteMetricSpace:
    """Glue two spaces along an isometry between a subspace of x and one of y.

    The union keeps all points of x plus the unglued points of y; missing
    cross distances are completed by shortest chains through the glued part
    and capped at the shared denominator. The two restrictions then embed
    both inputs isometrically.
    """
    x, y = common_grid(x, y)
    q = x.denominator
    for a in glue:
        x.index(a)
    for b in glue.values():
        y.index(b)
    if len(set(glue.values())) != len(glue):
        raise ValidationError("glue is not injective")
    for (a1, b1) in glue.items():
        for (a2, b2) in glue.items():
            if x.distance(a1, a2) != y.distance(b1, b2):
                raise ValidationError(
                    f"glue is not distance-preserving on ({a1},{a2}): "
                    f"{x.distance(a1, a2)} vs {y.distance(b1, b2)}",
                    ((a1, a2), (b1, b2)))
    glued_range = set(glue.values())
    y_rest = [p for p in y.points if p not in glued_range]
    clash = set(y_rest) & set(x.points)
    if clash:
        raise ValidationError(f"unglued point names appear in both spaces: {sorted(clash)}")
    names = tuple(x.points) + tuple(y_rest)
    to_y = {a: b for a, b in glue.items()}
    n = len(names)
    entries: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if a in x._index and b in x._index:
                entries[i][j] = x.distance(a, b)
            elif a not in x._index and b not in x._index:
                entries[i][j] = y.distance(a, b)
            else:
                # cross pair: specified only when one side is glued
                xa, yb = (a, b) if a in x._index else (b, a)
                if xa in to_y:
                    entries[i][j] = y.distance(to_y[xa], yb)
    spec = PartialSpec(names, q, tuple(tuple(r) for r in entries))
    return shortest_path_completion(spec, unreachable="cap")


def random_grid_space(n: int, q: int, seed: int) -> FiniteMetricSpace:
    """Deterministic random metric space on n points over the grid 1/q.

    Generator notes: draw a symmetric integer matrix uniform in [1, q] off
    the diagonal, close it with capped shortest paths to force the triangle
    inequality, then sweep the entries once more in row order, re-sampling
    each uniformly inside its exact feasible interval given the others.
    The second pass undoes the bias toward path-like metrics that closure
    alone would leave.

    The result skips revalidation because it is a metric by theorem. The
    closure of positive entries in [1, q] is one, and each redraw stays in
    katetov_bounds given all the other entries, an interval inside [1, q]
    that holds the old value. So every triangle still holds after each draw.
    """
    from ._kernels import floyd_warshall_capped

    if not is_grid_int(n, 1):
        raise ValidationError(f"need an integer n >= 1, got {n!r}")
    bad_denominator = denominator_problem(q)
    if bad_denominator:
        raise ValidationError(bad_denominator)
    if not is_grid_int(seed):
        raise ValidationError(f"random seed must be an integer, got {seed!r}")
    rng = random.Random(seed)
    names = tuple(f"p{i}" for i in range(n))
    if n == 1:
        return FiniteMetricSpace._trusted(names, q, ((0,),), False)
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = rng.randint(1, q)
    flat = floyd_warshall_capped(n, [e for row in w for e in row], q)
    d = [[flat[i * n + j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(*katetov_bounds(
                [(d[i][k], d[k][j]) for k in range(n) if k != i and k != j], 1, q))
    return FiniteMetricSpace._trusted(names, q, tuple(tuple(row) for row in d), False)
