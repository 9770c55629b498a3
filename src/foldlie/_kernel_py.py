"""The hot numeric kernels, in pure Python.

All routines operate on flat, row-major sequences.  Rational matrices
arrive as integer numerators over one denominator (see
:class:`foldlie.exactalg.RatMatrix`), so products, row reduction and
characteristic polynomials run on ints: ``mat_mul``, ``mat_vec``, ``rref``
and ``charpoly_int`` are called with ints only.  ``rref`` is fraction-free
elimination and ``charpoly_int`` one Bareiss determinant read off in a large
integer base.  ``charpoly_generic`` takes the characteristic polynomial of
a matrix over Z[x_1, ..., x_v], each entry a dict from a packed exponent
(the exponent vector in fixed-width fields of one int) to an int, by
Faddeev-LeVerrier with exact division by k; this is how the characteristic
polynomial of a matrix with polynomial entries (see
:class:`foldlie.exactalg.PolyMatrix`) is taken.  Callers import them
through ``foldlie.kernel``.
"""

from __future__ import annotations

from math import gcd, lcm


def mat_mul(a, b, n, k, m):
    """Multiply an n x k by a k x m flat row-major matrix."""
    if not k:
        return [0] * (n * m)
    out = [None] * (n * m)
    for i in range(n):
        arow = i * k
        for j in range(m):
            acc = a[arow] * b[j]
            for t in range(1, k):
                acc = acc + a[arow + t] * b[t * m + j]
            out[i * m + j] = acc
    return out


def mat_vec(a, v, n, k):
    """Apply an n x k flat matrix to a length-k vector."""
    if not k:
        return [0] * n
    out = [None] * n
    for i in range(n):
        arow = i * k
        acc = a[arow] * v[0]
        for t in range(1, k):
            acc = acc + a[arow + t] * v[t]
        out[i] = acc
    return out


def rref(entries, rows, cols):
    """Reduced row echelon form of an integer matrix, without fractions.

    Returns ``(numerators, denominator, pivot_columns)``: the reduced form is
    ``numerators / denominator`` with ``denominator > 0`` and no factor
    common to it and every numerator.  Rows stay integer vectors: eliminating
    column c from row i replaces it by ``a * row_i - b * pivot_row`` with
    ``a / b`` the pivot over the row's entry in lowest terms, then divides out
    the row's content.  At the end each pivot row is divided by its pivot,
    over the lcm of the pivots.  The input is not mutated.
    """
    m = [list(entries[i * cols:(i + 1) * cols]) for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        best, size = -1, 0
        for i in range(r, rows):
            x = abs(m[i][c])
            if x and (best < 0 or x < size):
                best, size = i, x
                if x == 1:
                    break
        if best < 0:
            continue
        m[r], m[best] = m[best], m[r]
        prow = m[r]
        pv = prow[c]
        for i in range(rows):
            row = m[i]
            f = row[c]
            if f and i != r:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                new = [a * x - b * y for x, y in zip(row, prow)]
                g = gcd(*new)
                m[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    den = 1
    for k, c in enumerate(pivots):
        row = m[k]
        g = gcd(*row) if row[c] > 0 else -gcd(*row)
        if g != 1:
            m[k] = [x // g for x in row]
        den = lcm(den, m[k][c])
    for k, c in enumerate(pivots):
        s = den // m[k][c]
        if s != 1:
            m[k] = [x * s for x in m[k]]
    return [x for row in m for x in row], den, pivots


def charpoly_int(entries, n):
    """Characteristic polynomial of an integer matrix A, coefficients
    ``[1, c_1, ..., c_n]`` of x^n .. x^0, from one integer determinant.

    det(X I - A) = sum_k c_k X^(n-k) is evaluated at one integer X and the
    c_k are read off as its balanced base-X digits.  c_k is (-1)^k times the
    sum of the k x k principal minors, so by Hadamard's inequality
    sum_k |c_k| <= B = prod_i (1 + ||row_i||_1), and X = 2B + 1 keeps every
    digit in [-B, B].  X I - A is strictly diagonally dominant, so its
    leading minors are non-zero and fraction-free Bareiss elimination needs
    no pivoting: O(n^3) integer operations.
    """
    if n == 0:
        return [1]
    rows = [[-x for x in entries[i * n:(i + 1) * n]] for i in range(n)]
    bound = 1
    for row in rows:
        bound *= 1 + sum(map(abs, row))
    base = 2 * bound + 1
    for i, row in enumerate(rows):
        row[i] += base
    # after step k, rows[i][j] (i, j > k) is the minor on rows 0..k, i and
    # columns 0..k, j; the division by the previous pivot is exact
    prev = 1
    for k in range(n - 1):
        prow, p = rows[k], rows[k][k]
        for row in rows[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - f * prow[j]) // prev
        prev = p
    det, coeffs = rows[-1][-1], []
    for _ in range(n):
        det, c = divmod(det, base)
        if c > bound:
            c -= base
            det += 1
        coeffs.append(c)
    if det != 1:
        raise ArithmeticError("characteristic polynomial is not monic: digit bound violated")
    return [1] + coeffs[::-1]


def charpoly_generic(entries, n):
    """Characteristic polynomial of a matrix A over Z[x_1, ..., x_v], by the
    Faddeev-LeVerrier recursion M_1 = I, c_k = -tr(A M_k) / k,
    M_(k+1) = A M_k + c_k I; returns ``[c_0 = 1, c_1, ..., c_n]``.

    A polynomial is a dict {packed exponent: non-zero int}: the exponent
    vector packed into one int, a fixed-width field per variable, so a
    monomial product is one int addition.  The caller picks a field width
    that holds every exponent up to n times the largest total degree of an
    entry, so no field carries into the next.  Every c_k of an integer
    matrix is an integer polynomial, so each division by k is exact; a
    remainder raises ``ArithmeticError``.  The products A M_k run over the
    non-zero entries of each row of A; the first is A itself, and the last
    forms only the diagonal its trace needs.  The input is not mutated.
    """
    rows = [[(t, x) for t, x in enumerate(entries[i * n:(i + 1) * n]) if x]
            for i in range(n)]
    coeffs = [{0: 1}]
    am = list(entries)
    for k in range(1, n + 1):
        tr = {}
        for i in range(n):
            _add_into(tr, am[i * n + i].items())
        c = {}
        for e, x in tr.items():
            q, r = divmod(-x, k)
            if r:
                raise ArithmeticError("Faddeev-LeVerrier division by k is not exact")
            c[e] = q
        coeffs.append(c)
        if k == n:
            break
        m = am
        for i in range(n):
            d = m[i * n + i] = dict(m[i * n + i])
            _add_into(d, c.items())
        am = [None] * (n * n)
        for i in range(n):
            for j in (range(n) if k + 1 < n else (i,)):
                acc = {}
                get = acc.get
                for t, x in rows[i]:
                    y = m[t * n + j].items()
                    for e1, c1 in x.items():
                        for e2, c2 in y:
                            e = e1 + e2
                            s = get(e, 0) + c1 * c2
                            if s:
                                acc[e] = s
                            else:
                                del acc[e]
                am[i * n + j] = acc
    return coeffs


def _add_into(acc, items):
    """Add the (packed exponent, int) pairs into ``acc``, dropping every term
    that cancels to zero."""
    get = acc.get
    for e, x in items:
        s = get(e, 0) + x
        if s:
            acc[e] = s
        else:
            del acc[e]
