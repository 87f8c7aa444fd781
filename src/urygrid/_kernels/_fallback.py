"""Pure-Python kernels.

Same contract as the compiled extension in ``_ext.c``: arguments are
positional only, matrices come in as flat row-major lists of non-negative
ints, words as parallel letter/sign lists. These are the reference
implementations the compiled versions are tested against. Every kernel
checks its input, once per call, and raises ValueError on what the
compiled kernels refuse as malformed, in their order and words.
"""

from __future__ import annotations

import sys
from array import array

BACKEND = "python"

INF = 1 << 30


def _refuse_matrices(n, cap, **mats) -> None:
    """Raise the compiled matrix kernels' ValueError, in their order and
    words: n or cap below 0, then, matrix by matrix, other than n*n entries
    or a negative one. A kernel calls this when its one-line test fails."""
    if n < 0 or cap < 0:
        raise ValueError(f"n must be non-negative, got {n}" if n < 0 else
                         f"cap must be non-negative, got {cap}")
    for name, m in mats.items():
        if len(m) != n * n:
            raise ValueError(f"{name} has {len(m)} entries, expected {n * n}")
        if m and min(m) < 0:
            i = next(i for i, e in enumerate(m) if e < 0)
            raise ValueError(f"{name} entry {i} is {m[i]}, outside [0, {(1 << 63) - 1}]")


def minplus_product(n: int, f: list[int], g: list[int], cap: int, /) -> list[int]:
    """Entrywise min over z of min(f[x][z] + g[z][y], cap). Each min starts
    at cap, so a sum above cap is never taken and needs no clamp."""
    if n < 0 or cap < 0 or len(f) != n * n or len(g) != n * n or n and min(min(f), min(g)) < 0:
        _refuse_matrices(n, cap, f=f, g=g)
    out = [0] * (n * n)
    for x in range(n):
        row = x * n
        for y in range(n):
            best = cap
            for z in range(n):
                s = f[row + z] + g[z * n + y]
                if s < best:
                    best = s
            out[row + y] = best
    return out


def is_bikatetov(n: int, f: list[int], d: list[int], cap: int, /) -> bool:
    """Rows and columns of f are both Katetov on (range(n), d)."""
    if n < 0 or cap < 0 or len(f) != n * n or len(d) != n * n or n and min(min(f), min(d)) < 0:
        _refuse_matrices(n, cap, f=f, d=d)
    for x in range(n):
        row = x * n
        for y in range(n):
            for z in range(y + 1, n):
                dyz = d[y * n + z]
                a, b = f[row + y], f[row + z]
                if abs(a - b) > dyz or dyz > a + b:
                    return False
                a, b = f[y * n + x], f[z * n + x]
                if abs(a - b) > dyz or dyz > a + b:
                    return False
    return True


def floyd_warshall_capped(n: int, w: list[int], cap: int, /) -> list[int]:
    """All-pairs shortest chains with saturating addition at cap.

    Missing edges are INF; an entry still INF afterwards is unreachable.
    The result is the largest pseudometric below the specified entries.
    Malformed input, or a cap of INF or more (where a chain saturating at
    INF would read as missing), raises ValueError as in the compiled kernel.

    The matrix is one int of n*n b-bit fields: 0 on the diagonal, min(e,
    cap) for e < INF, else X = (n-1)*cap + 1 ("no chain"); capping once at
    the end equals saturating every sum, and no chain exceeds (n-1)*cap.
    Round k adds row k, repeated down, to column k, repeated across, and
    keeps the fieldwise min: each sum is below 2**(b-1), so subtracting the
    sums with every guard bit b-1 set borrows that bit only where the sum is
    larger (Lamport, CACM 1975). Big-endian order relabels the points."""
    if n < 0 or cap < 0 or len(w) != n * n or n and min(w) < 0:
        _refuse_matrices(n, cap, w=w)
    if cap >= INF:
        raise ValueError(f"cap must be below INF = {INF}, got {cap}")
    if not n:
        return []
    x = (n - 1) * cap + 1
    code, s = next((c, z) for c in "HIQ" for z in [array(c).itemsize] if 2 * x >> 8 * z - 1 == 0)
    b, nb, fb = 8 * s, 8 * s * n, int.from_bytes
    v = [x if e >= INF else e if e < cap else cap for e in w]
    v[::n + 1] = [0] * n
    d = fb(array(code, v).tobytes(), sys.byteorder)
    one, rmask = (1).to_bytes(s, "little"), (1 << nb) - 1
    rep, guard = fb(one * n, "little"), fb(one * (n * n), "little") << b - 1
    col = fb((b"\xff" * s + bytes(s * (n - 1))) * n, "little")
    for k in range(n):
        c = fb(((d >> k * nb) & rmask).to_bytes(n * s, "little") * n, "little")
        c += ((d >> k * b) & col) * rep
        t = ((d | guard) - c) & guard
        d ^= (d ^ c) & (t - (t >> b - 1))
    out = array(code, d.to_bytes(n * n * s, sys.byteorder)).tolist()
    return out if max(out) <= cap else [
        e0 if e == x else e if e < cap else cap for e, e0 in zip(out, w)]


def _dp_column(plan: list, letter: int, sign: int, weight: int) -> list[int]:
    """The next column of the interval dynamic program: P[i][n+1] for every
    i, for the word of n = len(plan) symbols extended by one symbol of the
    given letter, sign and weight. Filled from the bottom: position i is
    unpaired and pays its weight on top of P[i+1][n+1], or arcs to an
    opposite-sign position m of the word (a planned arc plus the tail
    P[m+1][n+1]), or arcs to the new symbol itself (the letter distance
    plus P[i+1][n])."""
    n = len(plan)
    col = [0] * (n + 2)
    best = col[n] = weight
    for i, w, row, opp, pin, arcs in plan:
        best += w
        for a, k in arcs:
            c = a + col[k]
            if c < best:
                best = c
        if sign == opp:
            c = row[letter] + pin
            if c < best:
                best = c
        col[i] = best
    return col


def graev_dp_step(plan: list, letter: int, sign: int, nl: int,
                  dist: list[int], weights: list[int]) -> tuple[list[int], list]:
    """Extend a word by one symbol in the interval dynamic program over the
    leftmost position. Returns the longer word's column, whose entry 0 is
    its norm, and its plan.

    P[i][k] = min cost of positions i..k-1: either position i is unpaired
    and pays its weight, or it arcs to an opposite-sign position m, paying
    the letter distance plus the nested interior P[i+1][m] plus the
    disjoint tail P[m+1][k]. The plan of a word of n symbols holds, for
    each position i from n - 1 down to 0, the terms of the next column that
    do not involve the next symbol: (i, weight, letter row, opposite sign,
    P[i+1][n], arcs), arcs being (dist[l_i][l_m] + P[i+1][m], m + 1) for
    each opposite-sign position m in (i, n). Every one-symbol extension of
    a word reads the same plan, so its column is one _dp_column pass; the
    empty word's plan is []. Quadratic in the length.
    """
    weight = weights[letter]
    col = _dp_column(plan, letter, sign, weight)
    n = len(plan)
    longer = [(n, weight, dist[letter * nl:letter * nl + nl], -sign, 0, ())]
    for i, w, row, opp, pin, arcs in plan:
        if opp == sign:
            arcs += ((row[letter] + pin, n + 1),)
        longer.append((i, w, row, opp, col[i + 1], arcs))
    return col, longer


def _family_norms(plan, norms, symbols, rows, unpaired, weights):
    """The norm of each child of a word among symbols, each followed by the
    norms of its 2*nl leaves, letters ascending, +1 first, in one flat list:
    one _dp_column per child and no plan of its own. A leaf's new symbol
    pays its weight on the child's norm, or arcs to an opposite-sign
    position m, which parts the rest into [0, m) and (m, n], each paired on
    its own, and pays the letter distance on the split term
    P[0][m] + P[m+1][n+1]. Each split term is costed against the leaves as
    soon as it is known; none is stored. rows and unpaired: the sweep's
    alphabet tables."""
    head = norms[len(plan)]
    # (P[0][i], i + 1, row of l_i, first leaf that arcs to i); an int, not
    # a bool, keeps the index arithmetic on the interpreter's int fast path
    splits = [(norms[i], i + 1, row, 1 + (opp < 0)) for i, _, row, opp, _, _ in plan]
    out = []
    for letter, sign in symbols:
        col = _dp_column(plan, letter, sign, weights[letter])
        leaves = [col[0] + w for w in unpaired]
        k = 1 + (sign > 0)
        for r in rows[letter]:
            c = head + r
            if c < leaves[k]:
                leaves[k] = c
            k += 2
        for prefix, m, row, k in splits:
            t = prefix + col[m]
            for r in row:
                c = t + r
                if c < leaves[k]:
                    leaves[k] = c
                k += 2
        out += leaves
    return out


def graev_norm_dp(letters: list[int], signs: list[int], nl: int,
                  dist: list[int], weights: list[int], /) -> int:
    """Interval dynamic program over the leftmost position: the plan of all
    but the last symbol, built one symbol at a time with graev_dp_step, then
    the column of the last symbol, whose entry 0 is the norm. Cubic in the
    word length. Malformed input raises ValueError, as in the compiled
    kernel."""
    _check_alphabet(nl, dist, weights)
    _check_word(letters, signs, nl, "letters", "signs")
    if not letters:
        return 0
    plan: list = []
    for p in range(len(letters) - 1):
        plan = graev_dp_step(plan, letters[p], signs[p], nl, dist, weights)[1]
    letter = letters[-1]
    return _dp_column(plan, letter, signs[-1], weights[letter])[0]


def graev_pairing_step(states: list, letter: int, sign: int, room: int,
                       nl: int, dist: list[int], weights: list[int]) -> list:
    """Extend every partial pairing by one symbol.

    A state is (stack, depth, cost): the open arcs as a linked stack of
    (letter, sign, below) nodes (None when empty), its depth, and the cost
    so far. The symbol is left unpaired and pays its weight, closes the top
    arc if the signs are opposite and pays the letter distance, or opens a
    new arc. room is how many more symbols the word may still get; a state
    deeper than that can never close all its arcs and is dropped. No two
    states are merged, so each complete pairing ends as exactly one state.
    """
    w = weights[letter]
    opp = -sign
    out = []
    add = out.append
    for stack, depth, cost in states:
        if depth <= room:
            add((stack, depth, cost + w))
        if stack is not None and stack[1] == opp:
            add((stack[2], depth - 1, cost + dist[stack[0] * nl + letter]))
        if depth < room:
            add(((letter, sign, stack), depth + 1, cost))
    return out


def _complete_min(states: list) -> int:
    """Cheapest state with no open arc, i.e. the cheapest complete pairing."""
    return min([cost for stack, _, cost in states if stack is None])


def _family_minima(states, complete, symbols, rows, unpaired, weights):
    """The cheapest complete pairing of each child of a word among symbols,
    each followed by those of its 2*nl leaves, letters ascending, +1 first,
    in one flat list: from the word's states (none deeper than 2) and
    cheapest complete pairing, with no state list for the children. A
    child's closers, its states with one open arc, come from leaving the
    symbol unpaired at depth 1, closing an arc at depth 2, or opening one on
    the cheapest complete state. A leaf is unpaired on the child's cheapest
    complete pairing or closes one closer of the other sign. Each closer is
    costed against every leaf as soon as it is known; none is stored or
    merged with another. rows and unpaired: the sweep's alphabet tables."""
    # ones: (sign of the open arc, its row, cost, first leaf that closes it);
    # twos: (sign of the top arc, its row, cost, row and first leaf below)
    ones, twos = [], []
    for stack, depth, cost in states:
        if depth == 1:
            ones.append((stack[1], rows[stack[0]], cost, 1 + (stack[1] > 0)))
        elif depth == 2:
            below = stack[2]
            twos.append((stack[1], rows[stack[0]], cost, rows[below[0]], 1 + (below[1] > 0)))
    out = []
    for letter, sign in symbols:
        w = weights[letter]
        least = complete + w
        for s, row, cost, _ in ones:
            if s != sign:
                c = cost + row[letter]
                if c < least:
                    least = c
        leaves = [least + v for v in unpaired]
        k = 1 + (sign > 0)
        for r in rows[letter]:
            c = complete + r
            if c < leaves[k]:
                leaves[k] = c
            k += 2
        for _, row, cost, k in ones:
            t = cost + w
            for r in row:
                c = t + r
                if c < leaves[k]:
                    leaves[k] = c
                k += 2
        for s, top, cost, row, k in twos:
            if s != sign:
                t = cost + top[letter]
                for r in row:
                    c = t + r
                    if c < leaves[k]:
                        leaves[k] = c
                    k += 2
        out += leaves
    return out


def graev_norm_bruteforce(letters: list[int], signs: list[int], nl: int,
                          dist: list[int], weights: list[int], /) -> int:
    """Minimum Graev sum over all pairings, enumerated one symbol at a time
    with graev_pairing_step: every complete pairing is its own state and
    carries its own sum of arc distances and unpaired weights; no interval
    value is shared between pairings. Deliberately enumerative; the oracle
    side of the DP. Malformed input raises ValueError, as in the compiled
    kernel."""
    _check_alphabet(nl, dist, weights)
    _check_word(letters, signs, nl, "letters", "signs")
    n = len(letters)
    states = [(None, 0, 0)]
    for p in range(n):
        states = graev_pairing_step(states, letters[p], signs[p], n - p - 1,
                                    nl, dist, weights)
    return _complete_min(states)


def _check_alphabet(nl, dist, weights) -> None:
    """Raise ValueError on what the compiled kernels refuse in an alphabet,
    in their order and words: nl below 0, dist not nl*nl entries or weights
    not nl, a negative entry. O(nl^2), in builtins unless it raises."""
    if nl < 0:
        raise ValueError(f"nl must be non-negative, got {nl}")
    for name, values, want in (("dist", dist, nl * nl), ("weights", weights, nl)):
        if len(values) != want:
            raise ValueError(f"{name} has {len(values)} entries, expected {want}")
        if values and min(values) < 0:
            i = next(i for i, v in enumerate(values) if v < 0)
            raise ValueError(f"{name} entry {i} is {values[i]}, outside [0, {(1 << 63) - 1}]")


def _check_word(letters, signs, nl, lname, sname) -> None:
    """Raise ValueError on what the compiled kernels refuse in a word, in
    their order and words: a letter outside [0, nl), then signs not as many
    as letters, a sign outside [-1, 1], a sign of 0; in builtins unless it
    raises."""
    if letters and not 0 <= min(letters) <= max(letters) < nl:
        i = next(i for i, v in enumerate(letters) if not 0 <= v < nl)
        raise ValueError(f"{lname} entry {i} is {letters[i]}, outside [0, {nl - 1}]")
    if len(signs) != len(letters):
        raise ValueError(f"{sname} has {len(signs)} entries, expected {len(letters)}")
    if signs.count(1) + signs.count(-1) != len(signs):
        i = next((i for i, v in enumerate(signs) if not -1 <= v <= 1), None)
        if i is not None:
            raise ValueError(f"{sname} entry {i} is {signs[i]}, outside [-1, 1]")
        raise ValueError(f"{sname} entry {signs.index(0)} is 0, not +1 or -1")


def graev_agree_exhaustive(nl: int, dist: list[int], weights: list[int],
                           max_len: int, /) -> tuple[int, int]:
    """Check graev_norm_dp == graev_norm_bruteforce on every (letter, sign)
    sequence of length <= max_len. Returns (words checked, mismatches).
    Malformed input raises ValueError, in the compiled sweep's order and
    words.

    The depth-first walk carries both routes' prefix state down the tree,
    with the norms of the current word's prefixes. A word shorter than
    max_len - 2 builds one graev_dp_step plan for all its children and
    takes one graev_pairing_step per child, with room counted up to max_len.
    A word of length max_len - 2 finishes its children and their leaves in
    one call per side: _family_norms folds its plan and prefix norms,
    _family_minima its states and cheapest pairing, each into one list of
    every child's value and its leaves'. Both read the letter rows and the
    family layout, built once per sweep from the input alphabet and
    computed by neither side."""
    _check_alphabet(nl, dist, weights)
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    children = [(letter, sign) for letter in range(nl) for sign in (1, -1)]
    # the empty word has norm 0 both ways
    checked = 1
    mismatches = 0
    # norms[k] is the norm of the current word's first k symbols
    norms = [0] * (max_len + 1)
    # each letter's row, and a family's layout: the child at 0, then leaf
    # (l, +1) at 2l + 1 and (l, -1) at 2l + 2, at its weight when unpaired
    rows = [dist[l * nl:l * nl + nl] for l in range(nl)]
    unpaired = [0] + [w for w in weights for _ in (1, -1)]
    if max_len == 1:
        # the empty word's children are the leaves: each family's first entry
        family = 1 + len(children)
        dp = _family_norms([], norms, children, rows, unpaired, weights)[::family]
        bf = _family_minima([(None, 0, 0)], 0, children, rows, unpaired, weights)[::family]
        return checked + len(dp), sum(a != b for a, b in zip(dp, bf))

    def walk(plan, states, complete):
        # each child of the current word, with its descendants; the current
        # word is at least two symbols short of max_len
        nonlocal checked, mismatches
        n = len(plan)
        if n + 2 == max_len:
            dp = _family_norms(plan, norms, children, rows, unpaired, weights)
            bf = _family_minima(states, complete, children, rows, unpaired, weights)
            checked += len(dp)
            if dp != bf:
                mismatches += sum(a != b for a, b in zip(dp, bf))
            return
        for letter, sign in children:
            col, longer = graev_dp_step(plan, letter, sign, nl, dist, weights)
            child = graev_pairing_step(states, letter, sign, max_len - n - 1,
                                       nl, dist, weights)
            least = _complete_min(child)
            checked += 1
            if col[0] != least:
                mismatches += 1
            norms[n + 1] = col[0]
            walk(longer, child, least)

    if max_len > 1:
        walk([], [(None, 0, 0)], 0)
    return checked, mismatches
