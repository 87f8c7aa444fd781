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

from .errors import GuardError, ValidationError
from .graev import WeightedAlphabet, Word, _letters_and_signs, graev_norm
from .grid import Record, is_grid_int
from .spaces import FiniteMetricSpace, _as_tuple

# words nu_truncated may generate before it refuses the search
WORD_BUDGET = 2_000_000


class PartialIsometryRelation(Record):
    """Nonempty finite set of point pairs; membership of the stock requires
    the pairs to preserve distances coordinatewise (checked by
    relation_witness, not by the constructor)."""

    _fields = ("space", "pairs")

    def __init__(self, space: FiniteMetricSpace, pairs: tuple[tuple[str, str], ...]):
        given = _as_tuple(pairs, "pairs")
        for pair in given:
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValidationError(f"pair {pair!r} is not two point names")
            space.index(pair[0])
            space.index(pair[1])
        pairs = tuple(sorted({(a, b) for a, b in given}))
        if not pairs:
            raise ValidationError("the empty relation is excluded")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "pairs", pairs)

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


def _common_space(rels) -> FiniteMetricSpace:
    """The one space every relation of a nonempty stock lives over."""
    if not rels:
        raise ValidationError("need at least one relation")
    space = rels[0].space
    for r in rels:
        if r.space != space:
            raise ValidationError("relations live over different spaces")
    return space


def _hausdorff(dist, rp, sp) -> int:
    """Hausdorff distance between two index-pair collections, over the
    sum-of-coordinates metric on the distance matrix ``dist``."""
    worst = 0
    for near, far in ((rp, sp), (sp, rp)):
        for x, y in near:
            dx, dy = dist[x], dist[y]
            closest = None
            for u, v in far:
                t = dx[u] + dy[v]
                if closest is None or t < closest:
                    closest = t
            if closest > worst:
                worst = closest
    return worst


def hausdorff_distance(r: PartialIsometryRelation, s: PartialIsometryRelation) -> int:
    """Two-sided Hausdorff distance between the pair sets, over the
    sum-of-coordinates metric. May exceed the denominator (diameter 2)."""
    space = _common_space((r, s))
    return _hausdorff(space.dist, r.index_pairs(), s.index_pairs())


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
    stock, but compositions can die). The word is checked as graev checks
    words: letters index ``rels``, signs are 1 or -1."""
    acc = diagonal(_common_space(rels))
    letters, signs = _letters_and_signs(word, len(rels))
    for idx, sign in zip(letters, signs):
        img = rels[idx].index_pairs()
        if sign < 0:
            img = invert(img)
        acc = compose(acc, img)
    return acc


def word_relates(rels: list[PartialIsometryRelation], word: Word, a: str, b: str) -> bool:
    """Does the word's image relate a to b, i.e. move a onto b."""
    space = _common_space(rels)
    return (space.index(a), space.index(b)) in word_image(rels, word)


def relation_alphabet(rels: list[PartialIsometryRelation],
                      names: list[str] | None = None) -> WeightedAlphabet:
    """The weighted alphabet of a relation stock: Hausdorff distances between
    the relations, weights their largest displacements.

    Built without the alphabet's own O(m^3) revalidation, because both
    parts are valid by theorem: the Hausdorff distance over a pseudometric
    obeys the triangle inequality, and the largest displacement is
    1-Lipschitz for it. What is checked here is what the theorem assumes:
    each relation is a partial isometry, no two relations are at distance 0,
    and ``names`` gives one nonempty, unique string per relation."""
    space = _common_space(rels)
    for r in rels:
        _require_relation(r)
    m = len(rels)
    names = tuple(f"r{i}" for i in range(m)) if names is None else tuple(names)
    if len(names) != m:
        raise ValidationError(f"{len(names)} names given for {m} relations")
    for name in names:
        if not isinstance(name, str) or not name:
            raise ValidationError(f"relation name {name!r} is not a nonempty string")
    if len(set(names)) != m:
        raise ValidationError("relation names must be unique")
    pairs = [r.index_pairs() for r in rels]
    dist = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            dist[i][j] = dist[j][i] = _hausdorff(space.dist, pairs[i], pairs[j])
            if dist[i][j] == 0:
                raise ValidationError(f"duplicate relations {names[i]} and {names[j]}")
    return WeightedAlphabet._trusted(names, space.denominator,
                                     tuple(tuple(r) for r in dist),
                                     tuple(weight(r) for r in rels))


class OrbitDistance(Record):
    _fields = ("value", "word", "words_searched")

    def __init__(self, value: int | None, word: Word | None, words_searched: int):
        # value and word are None when no word of the allowed length works
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "words_searched", words_searched)


def nu_truncated(rels: list[PartialIsometryRelation], a: str, b: str,
                 max_len: int) -> OrbitDistance:
    """Cheapest seminorm of a reduced word over the stock whose image moves
    a to b, among words of length <= max_len. Generating more than
    WORD_BUDGET words raises GuardError, carrying the best word so far.

    Breadth-first over reduced words (a word is reduced exactly when no
    letter is followed by its own inverse). With every singleton pair
    relation available this equals the base distance d(a, b) on the nose:
    the singleton {(a, b)} gives the upper bound and no word can do better.

    A word's image is not carried whole, only as two point bitmasks: ``dom``,
    the domain of the image, and ``onto_b``, the points the image relates to
    b. The rightmost letter acts first, so appending a letter pulls both
    masks back through it. The image is empty exactly when ``dom`` is 0, and
    the word moves a to b exactly when ``onto_b`` has bit a.
    """
    if not is_grid_int(max_len, 0):
        raise ValidationError(f"max_len must be an integer >= 0, got {max_len!r}")
    alphabet = relation_alphabet(rels)
    space = rels[0].space
    a_bit, b_bit = 1 << space.index(a), 1 << space.index(b)
    # letter 2 * idx is rels[idx] and 2 * idx + 1 its inverse, so a letter's
    # inverse is its number xor 1; each letter is kept as the appended word
    # suffix and, per point z it reaches, (bit of z, mask of points sent to z)
    letters = []
    for idx, r in enumerate(rels):
        onto: dict[int, int] = {}
        back: dict[int, int] = {}
        for x, y in r.index_pairs():
            onto[y] = onto.get(y, 0) | 1 << x
            back[x] = back.get(x, 0) | 1 << y
        for sign, pre in ((1, onto), (-1, back)):
            letters.append((((idx, sign),), tuple((1 << z, m) for z, m in pre.items())))

    best: int | None = None
    best_word: Word | None = None

    def over_budget():
        return GuardError(f"word search used {searched} words, limit {WORD_BUDGET}",
                          used=searched, limit=WORD_BUDGET,
                          partial=OrbitDistance(best, best_word, searched))

    # Each word is checked as it is generated, in breadth-first order; only
    # words with a nonempty image are kept to be extended (composing an empty
    # image stays empty forever), and only a word that moves a to b is built.
    searched = 1
    if searched > WORD_BUDGET:
        raise over_budget()
    if a_bit == b_bit:
        best, best_word = graev_norm((), alphabet), ()
    # (word, number of its last letter or -1, dom, onto_b)
    frontier: list[tuple[Word, int, int, int]] = [((), -1, (1 << space.n) - 1, b_bit)]
    for length in range(1, max_len + 1):
        extend = length < max_len
        nxt = []
        for word, last, dom, onto_b in frontier:
            undo = last ^ 1
            for k, (suffix, pre) in enumerate(letters):
                if k == undo:
                    continue
                new_dom = new_onto = 0
                for z_bit, sources in pre:
                    if dom & z_bit:
                        new_dom |= sources
                        if onto_b & z_bit:
                            new_onto |= sources
                searched += 1
                if searched > WORD_BUDGET:
                    raise over_budget()
                if new_onto & a_bit:
                    child = word + suffix
                    norm = graev_norm(child, alphabet)
                    if best is None or norm < best or (norm == best and child < best_word):
                        best, best_word = norm, child
                if new_dom and extend:
                    nxt.append((word + suffix, k, new_dom, new_onto))
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
    space = _common_space(rels)
    if case == 1:
        (r1, r2), (e,) = rels, signs
        word, bound = ((0, e), (1, -e)), hausdorff_distance(r1, r2)
    elif case == 2:
        (r1, r2, r3), (e, dl) = rels, signs
        word, bound = ((0, e), (1, dl), (2, -e)), hausdorff_distance(r1, r3) + weight(r2)
    else:
        (r1, r2), (e, dl) = rels, signs
        word, bound = ((0, e), (1, dl)), weight(r1) + weight(r2)
    comp = word_image(rels, word)
    if not comp:
        return None
    kval = max(space.dist[x][y] for (x, y) in comp)
    return kval <= bound


def random_partial_isometry(space: FiniteMetricSpace, rng: random.Random) -> PartialIsometryRelation:
    """Random element of the stock: grow a distance-preserving pair set by
    randomized greedy extension; a singleton always exists, so this never
    fails."""
    n = space.n
    target = rng.randint(1, n)
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
