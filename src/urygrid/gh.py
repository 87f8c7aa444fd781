"""Gromov-Hausdorff distance for enumerated finite spaces.

The enumerated variant matches points by their given order: the distance is
the infimum over common pseudometric extensions of the largest matched-point
distance. It comes out as exactly half the largest entrywise distortion
between the two matrices, a value on the half grid 1/(2q). The closed form
is paired with a feasibility oracle that rediscovers the value by scanning
cross-distances upward until the union graph's shortest-path closure stops
contracting either side.
"""

from __future__ import annotations

from ._kernels import INF, floyd_warshall_capped
from .errors import ValidationError
from .grid import Record, half_grid_value, lex_tuples
from .spaces import FiniteMetricSpace, common_grid


class EnumeratedPair(Record):
    """Two spaces of equal size whose point orders define the matching.
    Mixed denominators are reconciled on construction."""

    _fields = ("x", "y")

    def __init__(self, x: FiniteMetricSpace, y: FiniteMetricSpace):
        if x.n != y.n:
            raise ValidationError(f"enumerated spaces differ in size: {x.n} vs {y.n}")
        x, y = common_grid(x, y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def denominator(self) -> int:
        return self.x.denominator


def distortion(inst: EnumeratedPair) -> int:
    """Largest entrywise distance difference between the matched matrices."""
    n = inst.x.n
    return max(abs(inst.x.dist[i][j] - inst.y.dist[i][j])
               for i in range(n) for j in range(n)) if n else 0


def gh_distance(inst: EnumeratedPair) -> tuple[int, int]:
    """Closed form: half the distortion, as (numerator, denominator) on the
    half grid."""
    return half_grid_value(distortion(inst), inst.denominator)


def _closure_with_cross(inst: EnumeratedPair, t2: int):
    """Shortest-path closure of the union of both spaces with every matched
    cross pair set to t2 half-units, capped at the diameter."""
    n = inst.x.n
    q2 = 2 * inst.denominator
    m = 2 * n
    w = [INF] * (m * m)
    for i in range(n):
        for j in range(n):
            w[i * m + j] = 2 * inst.x.dist[i][j]
            w[(n + i) * m + (n + j)] = 2 * inst.y.dist[i][j]
        w[i * m + (n + i)] = t2
        w[(n + i) * m + i] = t2
    return floyd_warshall_capped(m, w, q2)


def feasible_at(inst: EnumeratedPair, t2: int):
    """Whether cross distance t2/(2q) admits a pseudometric extension that
    preserves both sides exactly; on failure also return one contracted
    pair as a witness."""
    n = inst.x.n
    m = 2 * n
    closed = _closure_with_cross(inst, t2)
    for i in range(n):
        for j in range(n):
            if closed[i * m + j] != 2 * inst.x.dist[i][j]:
                return False, ("x", inst.x.points[i], inst.x.points[j])
            if closed[(n + i) * m + (n + j)] != 2 * inst.y.dist[i][j]:
                return False, ("y", inst.y.points[i], inst.y.points[j])
    return True, None


def gh_distance_oracle(inst: EnumeratedPair) -> tuple[int, int]:
    """Scan the half grid upward for the first feasible cross distance.
    Must equal the closed form exactly."""
    q = inst.denominator
    for t2 in range(0, 2 * q + 1):
        ok, _ = feasible_at(inst, t2)
        if ok:
            return half_grid_value(t2, q)
    raise ValidationError("no feasible cross distance up to the diameter")


def realize_in_space(space: FiniteMetricSpace, anchors, target: FiniteMetricSpace,
                     eps: int):
    """Points of the space matching the target pattern exactly while staying
    within eps of the anchors.

    Requires |d(anchor_i, anchor_j) - target(i, j)| <= 2 eps (without it no
    realization can exist anywhere). Returns the matched point names, or
    None when this finite space is simply too small to contain them; a None
    is a report, not an error.
    """
    target = target.rescaled(space.denominator) if target.denominator != space.denominator \
        else target
    anchors_idx = [space.index(a) for a in anchors]
    n = len(anchors_idx)
    if target.n != n:
        raise ValidationError("anchor count and target size differ")
    for i in range(n):
        for j in range(n):
            gap = abs(space.dist[anchors_idx[i]][anchors_idx[j]] - target.dist[i][j])
            if gap > 2 * eps:
                raise ValidationError(
                    f"anchors distort the target by {gap} > 2*{eps} at ({i},{j})")
    dist = space.dist

    def points(chosen):
        # not injective: a pseudometric target may put two indices on one point
        i = len(chosen)
        near = dist[anchors_idx[i]]
        return [c for c in range(space.n) if near[c] <= eps
                and all(dist[cj][c] == target.dist[j][i] for j, cj in enumerate(chosen))]

    found = next(lex_tuples(n, points), None)
    return None if found is None else tuple(space.points[c] for c in found)
