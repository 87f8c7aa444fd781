"""Pure-Python kernels.

Same contract as the compiled extension in ``_ext.c``; matrices come in as
flat row-major lists of non-negative ints, words as parallel letter/sign
lists. These are the reference implementations the compiled versions are
tested against. They assume well-formed input, as every caller in the
library checks it first; the compiled kernels, which would otherwise read
past their buffers, refuse malformed input themselves.
"""

from __future__ import annotations

BACKEND = "python"

INF = 1 << 30


def minplus_product(n: int, f: list[int], g: list[int], cap: int) -> list[int]:
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


def is_bikatetov(n: int, f: list[int], d: list[int], cap: int) -> bool:
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


def floyd_warshall_capped(n: int, w: list[int], cap: int) -> list[int]:
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


def graev_dp_step(cols: list[list[int]], letters: list[int],
                  signs: list[int], nl: int, dist: list[int],
                  weights: list[int]) -> int:
    """Append column j = len(cols) of the interval dynamic program over the
    leftmost position and return P[0][j], the norm of the first j symbols.

    cols[k][i] = P[i][k] = min cost of positions i..k-1: either position i
    is unpaired and pays its weight, or it arcs to an opposite-sign position
    m, paying the letter distance plus the nested interior P[i+1][m] (an
    older column) plus the disjoint tail P[m+1][j] (this column, filled from
    the bottom). Quadratic in j; letters and signs need only j entries.
    """
    j = len(cols)
    col = [0] * (j + 1)
    for i in range(j - 1, -1, -1):
        li = letters[i]
        row = li * nl
        opp = -signs[i]
        i1 = i + 1
        best = weights[li] + col[i1]
        for m in range(i1, j):
            if signs[m] == opp:
                c = dist[row + letters[m]] + cols[m][i1] + col[m + 1]
                if c < best:
                    best = c
        col[i] = best
    cols.append(col)
    return col[0]


def graev_norm_dp(letters: list[int], signs: list[int], nl: int,
                  dist: list[int], weights: list[int]) -> int:
    """Interval dynamic program over the leftmost position, built one
    column per symbol with graev_dp_step. Cubic in the word length."""
    cols = [[0]]
    for _ in letters:
        graev_dp_step(cols, letters, signs, nl, dist, weights)
    return cols[-1][0]


def iter_pairings(signs: list[int], i: int, j: int):
    """Yield every non-crossing opposite-sign pairing of positions i..j-1,
    each as a list of (a, b) arcs, each pairing exactly once."""
    if i >= j:
        yield []
        return
    yield from iter_pairings(signs, i + 1, j)
    for m in range(i + 1, j):
        if signs[m] == -signs[i]:
            for inner in iter_pairings(signs, i + 1, m):
                for outer in iter_pairings(signs, m + 1, j):
                    yield inner + outer + [(i, m)]


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


def graev_norm_bruteforce(letters: list[int], signs: list[int], nl: int,
                          dist: list[int], weights: list[int]) -> int:
    """Minimum Graev sum over all pairings, enumerated one symbol at a time
    with graev_pairing_step: every complete pairing is its own state and
    carries its own sum of arc distances and unpaired weights; no interval
    value is shared between pairings. Deliberately enumerative; the oracle
    side of the DP."""
    n = len(letters)
    states = [(None, 0, 0)]
    for p in range(n):
        states = graev_pairing_step(states, letters[p], signs[p], n - p - 1,
                                    nl, dist, weights)
    return _complete_min(states)


def graev_agree_exhaustive(nl: int, dist: list[int], weights: list[int],
                           max_len: int, prefix_letters=(), prefix_signs=()
                           ) -> tuple[int, int]:
    """Check graev_norm_dp == graev_norm_bruteforce on every (letter, sign)
    sequence of length <= max_len extending the given prefix (the prefix
    itself included). Returns (words checked, mismatches). The prefix lets
    callers partition the sweep across workers by first symbol.

    The depth-first walk makes each word its parent plus one symbol, so it
    carries both routes' prefix state down the tree: one graev_dp_step
    column and one graev_pairing_step per word, with room counted up to
    max_len so partial pairings are shared by all their extensions."""
    letters: list[int] = []
    signs: list[int] = []
    cols = [[0]]
    states = [(None, 0, 0)]
    for letter, sign in zip(prefix_letters, prefix_signs):
        letters.append(letter)
        signs.append(sign)
        graev_dp_step(cols, letters, signs, nl, dist, weights)
        states = graev_pairing_step(states, letter, sign,
                                    max_len - len(letters), nl, dist, weights)
    checked = 0
    mismatches = 0

    def rec(states: list) -> None:
        nonlocal checked, mismatches
        checked += 1
        if cols[-1][0] != _complete_min(states):
            mismatches += 1
        room = max_len - len(letters) - 1
        if room < 0:
            return
        for letter in range(nl):
            for s in (1, -1):
                letters.append(letter)
                signs.append(s)
                graev_dp_step(cols, letters, signs, nl, dist, weights)
                rec(graev_pairing_step(states, letter, s, room,
                                       nl, dist, weights))
                cols.pop()
                letters.pop()
                signs.pop()

    rec(states)
    return checked, mismatches
