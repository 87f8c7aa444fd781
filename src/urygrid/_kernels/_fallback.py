"""Pure-Python kernels.

Same contract as the compiled extension in ``_ext.c``: arguments are
positional only, matrices come in as flat row-major lists of non-negative
ints, words as parallel letter/sign lists. These are the reference
implementations the compiled versions are tested against. The Graev
kernels check their input, once per call, and raise ValueError on what
the compiled kernels refuse as malformed. The matrix kernels assume
well-formed input, as every caller in the library checks it first; the
compiled kernels, which would otherwise read past their buffers, refuse
malformed input themselves.
"""

from __future__ import annotations

BACKEND = "python"

INF = 1 << 30


def minplus_product(n: int, f: list[int], g: list[int], cap: int, /) -> list[int]:
    """Entrywise min over z of min(f[x][z] + g[z][y], cap)."""
    out = [0] * (n * n)
    for x in range(n):
        row = x * n
        for y in range(n):
            best = cap
            for z in range(n):
                s = f[row + z] + g[z * n + y]
                if s > cap:
                    s = cap
                if s < best:
                    best = s
            out[row + y] = best
    return out


def is_bikatetov(n: int, f: list[int], d: list[int], cap: int, /) -> bool:
    """Rows and columns of f are both Katetov on (range(n), d)."""
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

    One list per row; for each k the finite entries of row k are listed
    once and every row relaxes through them. Row k changes during round k
    only where row k itself relaxes through d(k, k) = 0, which caps entries
    above cap at cap, and a sum through such an entry saturates at cap
    either way, so the listing taken before the round gives the same sums.
    """
    rows = [w[i:i + n] for i in range(0, n * n, n)]
    for i in range(n):
        rows[i][i] = 0
    for k in range(n):
        through = [(j, dkj) for j, dkj in enumerate(rows[k]) if dkj < INF]
        for row in rows:
            dik = row[k]
            if dik >= INF:
                continue
            for j, dkj in through:
                s = dik + dkj
                if s > cap:
                    s = cap
                if s < row[j]:
                    row[j] = s
    return [e for row in rows for e in row]


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
            raise ValueError(f"{name} entry {i} is {values[i]}, below 0")


def _check_word(letters, signs, nl, lname, sname) -> None:
    """Raise ValueError unless signs has as many entries as letters, every
    letter lies in [0, nl) and every sign is +1 or -1; in builtins unless
    it raises."""
    if len(signs) != len(letters):
        raise ValueError(f"{sname} has {len(signs)} entries, expected {len(letters)}")
    if letters and not 0 <= min(letters) <= max(letters) < nl:
        i = next(i for i, v in enumerate(letters) if not 0 <= v < nl)
        raise ValueError(f"{lname} entry {i} is {letters[i]}, outside [0, {nl - 1}]")
    if signs.count(1) + signs.count(-1) != len(signs):
        i = next(i for i, v in enumerate(signs) if v != 1 and v != -1)
        raise ValueError(f"{sname} entry {i} is {signs[i]}, not +1 or -1")


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
