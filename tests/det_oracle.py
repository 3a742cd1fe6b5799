"""Two reference determinants over a CoeffRing, neither of which divides.

``_det_memo`` is the Laplace expansion along the rows, memoizing each minor
on the set of columns already used; it takes time and memory exponential
in the matrix size.  ``_det_bird`` is Bird's division-free recurrence
(R. S. Bird, "A simple division-free algorithm for computing
determinants", IPL 111, 2011), O(N^4) ring operations.  Both check the
library's valuation-pivoted elimination against constructions that never
pick a pivot.
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


def _det_bird(rows, ring) -> int:
    """Determinant by Bird's division-free recurrence.

    X_1 = A and X_(k+1) = mu(X_k) A, where mu(X) keeps the strict upper
    triangle of X and puts -(X[i+1][i+1] + ... + X[n-1][n-1]) on the
    diagonal; then det A = (-1)^(n-1) X_n[0][0].  Rows of mu(X) A are
    sums of scaled rows of A, so zero entries of A are skipped.
    """
    radd, rneg, rmul = ring.radd, ring.rneg, ring.rmul
    n = len(rows)
    sparse = [[(j, a) for j, a in enumerate(r) if a] for r in rows]
    x = rows
    for step in range(1, n):
        diag = [0] * n
        trace = 0
        for i in range(n - 1, -1, -1):
            diag[i] = rneg(trace)
            trace = radd(trace, x[i][i])
        # only X_n[0][0] is read, so the last product needs row 0 alone
        nxt = []
        for i in range(1 if step == n - 1 else n):
            out = [0] * n
            xi = x[i]
            for k in range(i, n):
                c = diag[i] if k == i else xi[k]
                if c:
                    for j, a in sparse[k]:
                        out[j] = radd(out[j], rmul(c, a))
            nxt.append(out)
        x = nxt
    det = x[0][0]
    return rneg(det) if n % 2 == 0 else det
