"""Reference warping-distance loops, in plain Python so that their
arithmetic is plain to see.

``dtw_cost`` is the textbook two-row dynamic program.  ``dtw_joined`` runs
that program forward and on the reversed series, and joins the two at the
middle anti-diagonal as ``turnoutguard.comparator.dtw`` does; tests require
the kernel to equal it exactly, and to lie within a rounding bound of
``dtw_cost``.
"""

import math


def dtw_cost(a, b):
    """Minimal accumulated |a_i - b_j| path cost over the full cost matrix.

    Admissible moves are (i-1, j), (i, j-1), (i-1, j-1).  Keeps two rows of
    length len(b) + 1.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    n, m = len(a), len(b)
    inf = math.inf
    prev = [inf] * (m + 1)
    prev[0] = 0.0
    curr = [inf] * (m + 1)
    for i in range(1, n + 1):
        ai = a[i - 1]
        curr[0] = inf
        for j in range(1, m + 1):
            d = ai - b[j - 1]
            if d < 0.0:
                d = -d
            best = prev[j]
            step = prev[j - 1]
            if step < best:
                best = step
            step = curr[j - 1]
            if step < best:
                best = step
            curr[j] = d + best
        prev, curr = curr, prev
    return prev[m]


def _table(a, b):
    """The textbook program's whole accumulated-cost table, borders included."""
    n, m = len(a), len(b)
    inf = math.inf
    table = [[inf] * (m + 1) for _ in range(n + 1)]
    table[0][0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d = a[i - 1] - b[j - 1]
            if d < 0.0:
                d = -d
            best = table[i - 1][j]
            step = table[i - 1][j - 1]
            if step < best:
                best = step
            step = table[i][j - 1]
            if step < best:
                best = step
            table[i][j] = d + best
    return table


def dtw_joined(a, b):
    """Least forward cost at X plus reverse cost at Y over the moves X -> Y
    that cross from anti-diagonal K = (n + m) // 2 + 1 or below to K + 1 or
    above.

    The reverse table is the forward program on both series reversed, so
    its entry (n + 1 - i, m + 1 - j) is the least cost from cell (i, j) to
    (n, m), both counted; a Y one past the last row or column reads its
    border: inf, or 0 past the corner (n, m).
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    n, m = len(a), len(b)
    forward, reverse = _table(a, b), _table(a[::-1], b[::-1])
    middle = (n + m) // 2 + 1
    best = math.inf
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if i + j not in (middle - 1, middle):
                continue
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                if i + j + di + dj > middle:
                    total = forward[i][j] + reverse[n + 1 - i - di][m + 1 - j - dj]
                    if total < best:
                        best = total
    return best
