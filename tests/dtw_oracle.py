"""Reference warping-distance loop: the textbook two-row dynamic program.

Tests compare ``turnoutguard.comparator.dtw`` against it for exact
equality; it is kept in plain Python so that its arithmetic is plain to see.
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
