"""Triples with exact intersection numbers at any rank, from Monk's rule.

Monk's rule: sigma_{s_r} * sigma_u is the sum of sigma_{u t_ab} over the
transpositions t_ab with a <= r < b and l(u t_ab) = l(u) + 1.  So for
x = u t_ab with l(x) = l(u) + 1, the intersection number of
(s_r, u, w0 x) is 1 when a <= r < b and 0 otherwise.  The lengths always
sum to n(n-1)/2, so every triple is well posed.

Standard library only, and nothing from the package, so the values are an
independent reference for the package's tests at ranks no oracle reaches.
"""

from __future__ import annotations

import random

Perm = tuple[int, ...]


def monk_triple(n: int, rng: random.Random) -> tuple[tuple[Perm, Perm, Perm], int]:
    """A random (s_r, u, w0 x) at rank n >= 2 and its intersection number.

    u is uniform in S_n other than w0 and (a, b) uniform among the covers
    u -> u t_ab.  r is uniform in a..b-1 (value 1) or, with even odds when
    that leaves any, uniform among the other ranks (value 0), so both
    values are common at every rank.
    """
    while True:
        u = list(range(1, n + 1))
        rng.shuffle(u)
        # u t_ab covers u iff u(a) < u(b) and no value of u between positions
        # a and b lies between u(a) and u(b)
        covers = [
            (a, b)
            for a in range(1, n)
            for b in range(a + 1, n + 1)
            if u[a - 1] < u[b - 1]
            and not any(u[a - 1] < u[c - 1] < u[b - 1] for c in range(a + 1, b))
        ]
        if covers:
            break
    a, b = rng.choice(covers)
    outside = [r for r in range(1, n) if not a <= r < b]
    if outside and rng.random() < 0.5:
        r = rng.choice(outside)
    else:
        r = rng.randint(a, b - 1)
    x = list(u)
    x[a - 1], x[b - 1] = x[b - 1], x[a - 1]
    s_r = list(range(1, n + 1))
    s_r[r - 1], s_r[r] = r + 1, r
    w0x = tuple(n + 1 - v for v in x)
    return (tuple(s_r), tuple(u), w0x), int(a <= r < b)
