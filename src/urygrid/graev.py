"""Graev seminorms on free-group words over a weighted metric alphabet.

Words are signed letter sequences; a pairing connects opposite-sign letters
by non-crossing arcs. A pairing's cost charges each arc the distance between
its letters and each unpaired letter its weight, and the seminorm of a word
is the cheapest pairing. Costs are plain non-negative grid integers and are
never capped. Two routes compute the minimum: explicit enumeration of all
pairings (the oracle) and an interval dynamic program over the leftmost
position; they must agree exactly.
"""

from __future__ import annotations

from functools import cached_property

from . import _kernels
from .errors import GuardError, ValidationError
from .grid import Record, is_grid_int
from .spaces import FiniteMetricSpace, _as_tuple, _metric_report, _raise_unless_ok

PAIRING_ENUMERATION_MAX_LEN = 14

Word = tuple[tuple[int, int], ...]  # (letter index, sign +1/-1)


class WeightedAlphabet(Record):
    """Letters with exact pairwise distances and a weight per letter.

    Unlike a space, an alphabet has diameter up to 2: relation alphabets
    measured by sum-of-coordinates Hausdorff distances reach twice the base
    diameter. So the matrix is checked as a pseudometric with entries in
    [0, 2q], by the same check as a space. Weights must lie in [0, 2q] too
    and change by at most the distance between letters. The row-major flat
    distance tuple the kernels take is built once, on first use.
    """

    _fields = ("letters", "denominator", "dist", "weights")

    def __init__(self, letters: tuple[str, ...], denominator: int,
                 dist: tuple[tuple[int, ...], ...], weights: tuple[int, ...]):
        self.__dict__.update(letters=_as_tuple(letters, "letters"), denominator=denominator,
                             dist=_as_tuple(dist, "dist", rows=True),
                             weights=_as_tuple(weights, "weights"))
        self.__post_init__()

    def __post_init__(self):
        _raise_unless_ok(_metric_report(self.letters, self.denominator, self.dist,
                                        True, 2), "alphabet")
        n = len(self.letters)
        if len(self.weights) != n:
            raise ValidationError("one weight per letter required")
        cap = 2 * self.denominator
        for w in self.weights:
            if not is_grid_int(w, 0, cap):
                raise ValidationError(f"weight {w!r} is not an integer in [0, {cap}]")
        for i in range(n):
            for j in range(n):
                if abs(self.weights[i] - self.weights[j]) > self.dist[i][j]:
                    raise ValidationError(
                        f"weights expand: |k({self.letters[i]}) - k({self.letters[j]})| "
                        f"> d", (self.letters[i], self.letters[j]))

    @property
    def n(self) -> int:
        return len(self.letters)

    def index(self, name: str) -> int:
        try:
            return self.letters.index(name)
        except ValueError:
            raise ValidationError(f"unknown letter {name!r}") from None

    def flat(self) -> tuple[int, ...]:
        return self._flat

    @cached_property
    def _flat(self) -> tuple[int, ...]:
        return tuple(e for row in self.dist for e in row)

    @classmethod
    def from_space(cls, space: FiniteMetricSpace, weights) -> "WeightedAlphabet":
        return cls(space.points, space.denominator, space.dist, tuple(weights))


def parse_word(alphabet: WeightedAlphabet, text: str) -> Word:
    """Whitespace-separated tokens; ``name`` for a positive letter and
    ``name^-1`` for its inverse."""
    out = []
    for tok in text.split():
        if tok.endswith("^-1"):
            out.append((alphabet.index(tok[:-3]), -1))
        else:
            out.append((alphabet.index(tok), 1))
    return tuple(out)


def format_word(alphabet: WeightedAlphabet, word: Word) -> str:
    """The word as parse_word reads it, after checking it as the norms do."""
    _letters_and_signs(word, alphabet.n)
    return " ".join(alphabet.letters[l] + ("" if s == 1 else "^-1") for l, s in word)


def reduce_word(word: Word) -> Word:
    """Cancel adjacent mutually inverse letters until none remain."""
    stack: list[tuple[int, int]] = []
    for letter, sign in word:
        if stack and stack[-1] == (letter, -sign):
            stack.pop()
        else:
            stack.append((letter, sign))
    return tuple(stack)


def inverse_word(word: Word) -> Word:
    return tuple((letter, -sign) for letter, sign in reversed(word))


def concat(u: Word, v: Word) -> Word:
    """Concatenation without cancellation (the monoid product)."""
    return tuple(u) + tuple(v)


def _check_enumerable(word) -> None:
    """The length guard of both pairing enumerations, super-exponential."""
    n, limit = len(word), PAIRING_ENUMERATION_MAX_LEN
    if n > limit:
        raise GuardError(f"word of length {n} exceeds the enumeration bound {limit}; "
                         f"use the dynamic program", used=n, limit=limit)


def enumerate_pairings(word: Word):
    """Every valid pairing of the word as a frozenset of position arcs:
    arcs join opposite signs and never cross."""
    _check_enumerable(word)
    signs = [s for _, s in word]
    return [frozenset(p) for p in _iter_pairings(signs, 0, len(word))]


def _iter_pairings(signs: list[int], i: int, j: int):
    """Yield every non-crossing opposite-sign pairing of positions i..j-1,
    each as a list of (a, b) arcs, each pairing exactly once.

    Not a fold over the kernels' graev_pairing_step, though that step also
    lists every pairing: its states carry open arcs and a cost but no
    positions, and adding the closed arcs would touch every state of the
    exhaustive sweep for a listing only this function needs."""
    if i >= j:
        yield []
        return
    yield from _iter_pairings(signs, i + 1, j)
    for m in range(i + 1, j):
        if signs[m] == -signs[i]:
            for inner in _iter_pairings(signs, i + 1, m):
                for outer in _iter_pairings(signs, m + 1, j):
                    yield inner + outer + [(i, m)]


def _letters_and_signs(word: Word, nletters: int) -> tuple[list, list]:
    """The word as parallel letter and sign lists, the form the kernels
    take, after checking what they assume: every symbol is a pair of a
    letter, a non-bool int in [0, nletters), and a sign, the int 1 or -1."""
    try:
        letters = [l for l, _ in word]
        signs = [s for _, s in word]
    except (TypeError, ValueError):
        raise ValidationError(f"word {word!r} is not a sequence of (letter, sign) pairs") from None
    for letter in letters:
        # the exact-int test is the common case; is_grid_int admits int subclasses
        if (type(letter) is not int or letter < 0 or letter >= nletters) \
                and not is_grid_int(letter, 0, nletters - 1):
            raise ValidationError(
                f"letter {letter!r} is not an integer in [0, {nletters - 1}]")
    for sign in signs:
        if type(sign) is not int or (sign != 1 and sign != -1):
            raise ValidationError(f"sign {sign!r} is not 1 or -1")
    return letters, signs


def graev_sum(word: Word, pairing, alphabet: WeightedAlphabet) -> int:
    """Cost of one pairing: letter distances on arcs, weights off them.
    Validates the word and that the pairing is a genuine non-crossing
    opposite-sign matching of the word's positions."""
    _letters_and_signs(word, alphabet.n)
    n = len(word)
    arcs = sorted(tuple(sorted(arc)) for arc in pairing)
    used: set[int] = set()
    for a, b in arcs:
        if not (0 <= a < b < n):
            raise ValidationError(f"arc ({a},{b}) is out of range")
        if a in used or b in used:
            raise ValidationError(f"position reused by arc ({a},{b})")
        used.update((a, b))
        if word[a][1] != -word[b][1]:
            raise ValidationError(f"arc ({a},{b}) joins equal signs")
    for (a1, b1) in arcs:
        for (a2, b2) in arcs:
            if a1 < a2 < b1 < b2:
                raise ValidationError(f"arcs ({a1},{b1}) and ({a2},{b2}) cross")
    total = 0
    for a, b in arcs:
        total += alphabet.dist[word[a][0]][word[b][0]]
    for i in range(n):
        if i not in used:
            total += alphabet.weights[word[i][0]]
    return total


def graev_norm_bruteforce(word: Word, alphabet: WeightedAlphabet) -> int:
    """Minimum cost over pairings by explicit enumeration; the oracle."""
    letters, signs = _letters_and_signs(word, alphabet.n)
    _check_enumerable(word)
    return _kernels.graev_norm_bruteforce(letters, signs, alphabet.n,
                                          alphabet.flat(), alphabet.weights)


def graev_norm(word: Word, alphabet: WeightedAlphabet) -> int:
    """Minimum cost over pairings by the interval dynamic program: the
    leftmost position is unpaired, or arcs to an opposite-sign position,
    splitting the word into a nested interior and a disjoint tail. The
    last symbol is split off the same way, in one linear pass over the
    plan of the rest and the norms of its prefixes. Cubic."""
    letters, signs = _letters_and_signs(word, alphabet.n)
    return _kernels.graev_norm_dp(letters, signs, alphabet.n,
                                  alphabet.flat(), alphabet.weights)


def difference_word(u: Word, v: Word, alphabet: WeightedAlphabet) -> Word:
    """The reduced word u^{-1} v, whose norm is the distance from u to v.
    Both words are checked before reduce_word sees them."""
    _letters_and_signs(u, alphabet.n)
    _letters_and_signs(v, alphabet.n)
    return reduce_word(concat(inverse_word(u), v))


def graev_distance(u: Word, v: Word, alphabet: WeightedAlphabet) -> int:
    """Left-invariant pseudometric induced by the seminorm: the norm of
    u^{-1} v after reduction (difference_word)."""
    return graev_norm(difference_word(u, v, alphabet), alphabet)
