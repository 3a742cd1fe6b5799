"""Laplace-expansion reference for determinants over a CoeffRing.

The expansion runs along the rows and memoizes each minor on the set of
columns already used, so it needs no division but takes time and memory
exponential in the matrix size.  It is slow and exists to check the
library's division-free determinant against an independent construction.
"""

from __future__ import annotations


def _det_memo(rows, ring) -> int:
    """Determinant by Laplace expansion memoized on column subsets."""
    n = len(rows)
    full = (1 << n) - 1
    memo = {full: ring.one}

    def det(row, mask):
        if row == n:
            return ring.one
        cached = memo.get((row, mask))
        if cached is not None:
            return cached
        acc = ring.zero
        sign = 0
        r = rows[row]
        for col in range(n):
            bit = 1 << col
            if mask & bit:
                continue
            a = r[col]
            if a != 0:
                sub = det(row + 1, mask | bit)
                if sub != 0:
                    term = ring.rmul(a, sub)
                    acc = ring.radd(acc, term if sign % 2 == 0 else ring.rneg(term))
            sign += 1
        memo[(row, mask)] = acc
        return acc

    return det(0, 0)
