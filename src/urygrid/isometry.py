"""Isometries of finite grid spaces: backtracking searches over a sphere
index, and the isometry group as a stabilizer chain.

The module needs only the grid helpers, so a command that only asks for
isometries never loads the Katetov approximant.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import GuardError, ValidationError
from .grid import is_grid_int, lex_tuples

ISO_GROUP_MAX_POINTS = 10


def _spheres(dist, q: int) -> list[list[int]]:
    """The sphere index of a distance matrix over the grid q: sph[t][v], for
    v in 0..q, is the int bitmask of the points at distance v from point t
    (bit j for point j), 0 when there are none. A point at distances
    (v_0, ..., v_k) from points t_0, ..., t_k lies in the AND of their
    spheres."""
    sph = []
    for row in dist:
        s = [0] * (q + 1)
        bit = 1
        for v in row:
            s[v] |= bit
            bit <<= 1
        sph.append(s)
    return sph


def _ranked(dist):
    """``dist`` with each distance replaced by its rank among the distinct
    distances in it, and that matrix's sphere index (_spheres). Relabeling
    distances one-to-one keeps every isometry and every pattern match, and
    the index has at most n(n-1)/2 + 1 entries per point whatever the grid."""
    rank = {v: r for r, v in enumerate(sorted({v for row in dist for v in row}))}
    ranked = [[rank[v] for v in row] for row in dist]
    return ranked, _spheres(ranked, len(rank) - 1)


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of a nonnegative mask, low to high."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _isometric_injections(pattern, sph, prefix=()):
    """Every injective index tuple img into the target with
    d(img[i], img[j]) == pattern[i][j], for a symmetric pattern on the
    target's grid, in lexicographic order; only those that start with
    ``prefix`` when one is given (it must carry the pattern's first points
    itself). The target is given by its sphere index ``sph`` (_spheres).

    The candidates for position i are the AND of the earlier images'
    spheres at the pattern's distances, minus the used points, listed low
    to high."""
    everything = (1 << len(sph)) - 1
    pinned = len(prefix)

    def images(image):
        i = len(image)
        if i < pinned:
            return (prefix[i],)
        cands = everything
        for j, t in enumerate(image):
            cands &= sph[t][pattern[j][i]] & ~(1 << t)
        return _bits(cands)

    return lex_tuples(len(pattern), images)


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
            rep = next(_isometric_injections(dist, sph, (*range(i), t)), None)
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


def iso_group(space, max_points: int = ISO_GROUP_MAX_POINTS):
    """Every distance-preserving permutation of a FiniteMetricSpace, as
    index tuples in lexicographic order: the products of a stabilizer chain
    (_stabilizer_chain) of the ranked distances (_ranked), sorted. The
    chain's searches are cheap, but the group itself can have n! elements,
    so it refuses outright beyond the size guard; a factorial listing is not
    something to time out on."""
    if not is_grid_int(max_points):
        raise ValidationError(f"isometry point limit must be an integer, got {max_points!r}")
    n = space.n
    if n > max_points:
        raise GuardError(f"isometry search refused for {n} > {max_points} points",
                         used=n, limit=max_points)
    # the products of the levels after i, with each of level i's on the
    # left: itemgetter(*h)(g) is g o h
    group = [tuple(range(n))]
    for level in reversed(_stabilizer_chain(*_ranked(space.dist))):
        if len(level) > 1:
            group = [itemgetter(*h)(g) for h in group for g in level.values()]
    return tuple(sorted(group))
