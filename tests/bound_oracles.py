"""The paper's c2 inequalities on the quartic, read point by point, kept as
a test oracle for ``constraints.enumerate_acm_r4``.

The library folds its bound clauses into one closed interval per (k, c1).
This oracle instead asks, for a single c2, whether every inequality holds,
written the way the paper states it and sharing no code with the library,
so a slipped coefficient, a misplaced rank or c1 condition, or a lost
c1 = 1 pin shows as a mismatch of the admitted c2 values.  ``castelnuovo``
is Castelnuovo's genus bound, a geometric cross-check of the tables' genera.
"""

from __future__ import annotations


def admissible(k: int, c1: int, c2: int) -> bool:
    """Whether c2 passes every c2 bound for a normalized rank-k ACM bundle
    with first Chern class c1 on the quartic."""
    refined = k == 3 or k == 4
    if refined and c1 == 1:
        return c2 == k + 2
    square = 2 * c1 * c1
    if c2 < square - 2 * c1 + k:
        return False
    # restriction to a hyperplane section, and chi(E) >= k from h^0(E) >= k
    if c2 > square - 4 * c1 + 4 * k or c2 > square + k:
        return False
    if refined and c1 > 1 and c2 < square - 4 * c1 + 8:
        return False
    if k == 3 and c1 >= 3 and not square - 4 * c1 + 11 <= c2 <= square - 4 * c1 + 12:
        return False
    return True


def window(k: int, c1: int) -> range:
    """A c2 range wide enough to hold every admissible value, with a margin
    below zero and above the largest upper bound."""
    return range(-10, 2 * c1 * c1 + 4 * k + 10)


def castelnuovo(d: int, n: int) -> int:
    """Castelnuovo's bound pi(d, n): the largest genus of a smooth connected
    curve of degree d >= 1 that spans P^n, n >= 2; with d - 1 = m(n - 1) + e
    and 0 <= e < n - 1, pi = m(m - 1)(n - 1)/2 + m e."""
    m, e = divmod(d - 1, n - 1)
    return m * (m - 1) * (n - 1) // 2 + m * e
