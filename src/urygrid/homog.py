"""Partial-isometry relations over a base space and the word machinery on
top of them.

A relation in the stock here is a finite set of point pairs forming the
graph of a distance-preserving partial map. Relations compose like partial
maps, carry a weight (their largest displacement) and live in a metric of
their own: the Hausdorff distance over the sum-of-coordinates metric on
pairs. Words over named relations map to relations by composition; the
Graev seminorm over the relation alphabet then prices how cheaply a word
can move one point to another, and the truncated orbit pseudometric takes
the cheapest word up to a length bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import GuardError, ValidationError
from .graev import WeightedAlphabet, Word, graev_norm
from .spaces import FiniteMetricSpace


@dataclass(frozen=True)
class PartialIsometryRelation:
    """Nonempty finite set of point pairs; membership of the stock requires
    the pairs to preserve distances coordinatewise (checked by
    relation_witness, not by the constructor)."""

    space: FiniteMetricSpace
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        pairs = sorted({(a, b) for a, b in self.pairs})
        if not pairs:
            raise ValidationError("the empty relation is excluded")
        for a, b in pairs:
            self.space.index(a)
            self.space.index(b)
        object.__setattr__(self, "pairs", tuple(pairs))

    def index_pairs(self) -> frozenset[tuple[int, int]]:
        s = self.space
        return frozenset((s.index(a), s.index(b)) for a, b in self.pairs)


def relation_witness(rel: PartialIsometryRelation):
    """None when the relation is the graph of a partial isometry, else two
    offending pairs."""
    s = rel.space
    pts = list(rel.pairs)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            (x1, y1), (x2, y2) = pts[i], pts[j]
            if s.distance(x1, x2) != s.distance(y1, y2):
                return (pts[i], pts[j])
    return None


def validate_relation(rel: PartialIsometryRelation) -> bool:
    return relation_witness(rel) is None


def _require_relation(rel: PartialIsometryRelation):
    w = relation_witness(rel)
    if w is not None:
        raise ValidationError(f"not a partial isometry, witness pairs {w}", w)


def pair_distance(space: FiniteMetricSpace, p: tuple[int, int], q: tuple[int, int]) -> int:
    """Metric on point pairs: sum of the two coordinate distances."""
    return space.dist[p[0]][q[0]] + space.dist[p[1]][q[1]]


def hausdorff_distance(r: PartialIsometryRelation, s: PartialIsometryRelation) -> int:
    """Two-sided Hausdorff distance between the pair sets, over the
    sum-of-coordinates metric. May exceed the denominator (diameter 2)."""
    if r.space != s.space:
        raise ValidationError("relations live over different spaces")
    rp, sp = list(r.index_pairs()), list(s.index_pairs())
    space = r.space
    a = max(min(pair_distance(space, p, q) for q in sp) for p in rp)
    b = max(min(pair_distance(space, p, q) for p in rp) for q in sp)
    return max(a, b)


def weight(rel: PartialIsometryRelation) -> int:
    """Largest displacement max d(x, y) over the pairs; non-expanding with
    respect to the Hausdorff distance."""
    s = rel.space
    return max(s.distance(a, b) for a, b in rel.pairs)


def compose(r: frozenset, s: frozenset) -> frozenset:
    """Relation composition, rightmost acting first: (x, y) is in r o s when
    some z has (x, z) in s and (z, y) in r."""
    by_first: dict[int, list[int]] = {}
    for (z, y) in r:
        by_first.setdefault(z, []).append(y)
    out = set()
    for (x, z) in s:
        for y in by_first.get(z, ()):
            out.add((x, y))
    return frozenset(out)


def invert(r: frozenset) -> frozenset:
    return frozenset((y, x) for (x, y) in r)


def diagonal(space: FiniteMetricSpace) -> frozenset:
    return frozenset((i, i) for i in range(space.n))


def word_image(rels: list[PartialIsometryRelation], word: Word) -> frozenset:
    """Image of a relation word: the signed composition of its letters, the
    diagonal for the empty word. May be empty (the empty set is not in the
    stock, but compositions can die)."""
    if not rels:
        raise ValidationError("need at least one relation")
    space = rels[0].space
    acc = diagonal(space)
    for idx, sign in word:
        img = rels[idx].index_pairs()
        if sign < 0:
            img = invert(img)
        acc = compose(acc, img)
    return acc


def word_relates(rels: list[PartialIsometryRelation], word: Word, a: str, b: str) -> bool:
    """Does the word's image relate a to b, i.e. move a onto b."""
    space = rels[0].space
    return (space.index(a), space.index(b)) in word_image(rels, word)


def relation_alphabet(rels: list[PartialIsometryRelation],
                      names: list[str] | None = None) -> WeightedAlphabet:
    """The weighted alphabet of a relation stock: Hausdorff distances between
    the relations, weights their largest displacements."""
    if not rels:
        raise ValidationError("need at least one relation")
    space = rels[0].space
    for r in rels:
        if r.space != space:
            raise ValidationError("relations live over different spaces")
        _require_relation(r)
    m = len(rels)
    if names is None:
        names = [f"r{i}" for i in range(m)]
    dist = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            dist[i][j] = dist[j][i] = hausdorff_distance(rels[i], rels[j])
            if dist[i][j] == 0:
                raise ValidationError(f"duplicate relations {names[i]} and {names[j]}")
    return WeightedAlphabet(tuple(names), space.denominator,
                            tuple(tuple(r) for r in dist),
                            tuple(weight(r) for r in rels))


@dataclass(frozen=True)
class OrbitDistance:
    value: int | None        # None when no word of the allowed length works
    word: Word | None
    words_searched: int


def nu_truncated(rels: list[PartialIsometryRelation], a: str, b: str,
                 max_len: int, word_budget: int = 2_000_000) -> OrbitDistance:
    """Cheapest seminorm of a reduced word over the stock whose image moves
    a to b, among words of length <= max_len.

    Breadth-first over reduced words (a word is reduced exactly when no
    letter is followed by its own inverse) with the image carried along
    incrementally. With every singleton pair relation available this equals
    the base distance d(a, b) on the nose: the singleton {(a, b)} gives the
    upper bound and no word can do better.
    """
    if max_len < 0:
        raise ValidationError("max_len must be >= 0")
    alphabet = relation_alphabet(rels)
    space = rels[0].space
    target = (space.index(a), space.index(b))
    images = []
    for r in rels:
        img = r.index_pairs()
        images.append((img, invert(img)))

    best: int | None = None
    best_word: Word | None = None
    searched = 0
    frontier: list[tuple[Word, frozenset]] = [((), diagonal(space))]
    for length in range(max_len + 1):
        for word, img in frontier:
            searched += 1
            if searched > word_budget:
                raise GuardError(
                    f"word search exceeded the budget {word_budget}",
                    partial=OrbitDistance(best, best_word, searched))
            if target in img:
                norm = graev_norm(word, alphabet)
                if best is None or norm < best or (norm == best and word < best_word):
                    best, best_word = norm, word
        if length == max_len:
            break
        nxt = []
        for word, img in frontier:
            if not img:
                continue  # composing an empty image stays empty forever
            for idx in range(len(rels)):
                for sign in (1, -1):
                    if word and word[-1] == (idx, -sign):
                        continue
                    step = images[idx][0] if sign == 1 else images[idx][1]
                    nxt.append((word + ((idx, sign),), compose(img, step)))
        if not nxt:
            break
        frontier = nxt
    return OrbitDistance(best, best_word, searched)


# (relations, signs) taken by each case of composition_weight_bound
_CASE_ARITY = {1: (2, 1), 2: (3, 2), 3: (2, 2)}


def composition_weight_bound(case: int, rels, signs) -> bool | None:
    """Weight bounds for short compositions; each should always hold, so a
    False is a bug witness. None signals an empty composition (nothing to
    bound).

    case 1: weight(R1^e o R2^-e)        <= hausdorff(R1, R2)
    case 2: weight(R1^e o R2^d o R3^-e) <= hausdorff(R1, R3) + weight(R2)
    case 3: weight(R1^e o R2^d)         <= weight(R1) + weight(R2)
    """
    rels = list(rels)
    signs = list(signs)
    if case not in _CASE_ARITY:
        raise ValidationError(f"case must be 1, 2 or 3, got {case}")
    want = _CASE_ARITY[case]
    if (len(rels), len(signs)) != want:
        raise ValidationError(f"case {case} takes {want[0]} relations and {want[1]} sign(s), "
                              f"got {len(rels)} and {len(signs)}")
    for r in rels:
        _require_relation(r)
    space = rels[0].space

    def signed(r, s):
        img = r.index_pairs()
        return img if s == 1 else invert(img)

    if case == 1:
        (r1, r2), (e,) = rels, signs
        comp = compose(signed(r1, e), signed(r2, -e))
        bound = hausdorff_distance(r1, r2)
    elif case == 2:
        (r1, r2, r3), (e, dl) = rels, signs
        comp = compose(compose(signed(r1, e), signed(r2, dl)), signed(r3, -e))
        bound = hausdorff_distance(r1, r3) + weight(r2)
    else:
        (r1, r2), (e, dl) = rels, signs
        comp = compose(signed(r1, e), signed(r2, dl))
        bound = weight(r1) + weight(r2)
    if not comp:
        return None
    kval = max(space.dist[x][y] for (x, y) in comp)
    return kval <= bound


def random_partial_isometry(space: FiniteMetricSpace, rng: random.Random,
                            max_size: int | None = None) -> PartialIsometryRelation:
    """Random element of the stock: grow a distance-preserving pair set by
    randomized greedy extension; a singleton always exists, so this never
    fails."""
    n = space.n
    target = rng.randint(1, max_size if max_size is not None else n)
    order = list(range(n))
    rng.shuffle(order)
    dom: list[int] = []
    img: list[int] = []
    for x in order:
        if len(dom) == target:
            break
        cands = [y for y in range(n)
                 if y not in img
                 and all(space.dist[x][a] == space.dist[y][b] for a, b in zip(dom, img))]
        if cands:
            dom.append(x)
            img.append(rng.choice(cands))
    if not dom:
        x = rng.randrange(n)
        dom, img = [x], [x]
    return PartialIsometryRelation(
        space, tuple((space.points[x], space.points[y]) for x, y in zip(dom, img)))
