"""The hot numeric kernels, in pure Python.

All routines operate on flat, row-major sequences whose entries are exact
scalars: Python ints, ``fractions.Fraction``, or any commutative ring
element supporting ``+``, ``-``, ``*`` (and ``/`` by small integers for
the generic characteristic polynomial).  Rational matrices arrive as
integer numerators over a common denominator, so products and
characteristic polynomials run on ints.  Callers import them through
``foldlie.kernel``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def mat_mul(a, b, n, k, m):
    """Multiply an n x k by a k x m flat row-major matrix."""
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
    out = [None] * n
    for i in range(n):
        arow = i * k
        acc = a[arow] * v[0]
        for t in range(1, k):
            acc = acc + a[arow + t] * v[t]
        out[i] = acc
    return out


def rref(entries, rows, cols):
    """Reduced row echelon form over Fraction entries.

    Returns (new_entries, pivot_columns).  The input list is not mutated.
    """
    m = [Fraction(x) for x in entries]
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = -1
        for i in range(r, rows):
            if m[i * cols + c] != 0:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        if pivot_row != r:
            for j in range(cols):
                m[r * cols + j], m[pivot_row * cols + j] = (
                    m[pivot_row * cols + j],
                    m[r * cols + j],
                )
        pv = m[r * cols + c]
        if pv != 1:
            inv = 1 / pv
            for j in range(c, cols):
                m[r * cols + j] *= inv
        for i in range(rows):
            if i == r:
                continue
            f = m[i * cols + c]
            if f != 0:
                for j in range(c, cols):
                    m[i * cols + j] -= f * m[r * cols + j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def charpoly_int(entries, n):
    """Characteristic polynomial of an integer matrix, coefficients of
    x^n .. x^0, via the division-exact Faddeev-LeVerrier recursion.

    All intermediate divisions are exact over the integers.
    """
    if n == 0:
        return [1]
    a = list(entries)
    coeffs = [1]
    m = [0] * (n * n)
    for i in range(n):
        m[i * n + i] = 1
    for k in range(1, n + 1):
        am = [0] * (n * n)
        for i in range(n):
            arow = i * n
            for j in range(n):
                acc = 0
                for t in range(n):
                    acc += a[arow + t] * m[t * n + j]
                am[i * n + j] = acc
        tr = 0
        for i in range(n):
            tr += am[i * n + i]
        c = -tr // k
        if c * k != -tr:
            raise ArithmeticError("non-exact division in integer Faddeev-LeVerrier")
        coeffs.append(c)
        if k < n:
            m = am
            for i in range(n):
                m[i * n + i] += c
    return coeffs


def charpoly_generic(entries, n, one):
    """Characteristic polynomial over any commutative Q-algebra.

    ``one`` is the multiplicative identity of the coefficient ring; the
    recursion divides only by the integers 1..n (as exact scalars).
    """
    if n == 0:
        return [one]
    zero = one - one
    a = list(entries)
    coeffs = [one]
    m = [zero] * (n * n)
    for i in range(n):
        m[i * n + i] = one
    for k in range(1, n + 1):
        am = [zero] * (n * n)
        for i in range(n):
            arow = i * n
            for j in range(n):
                acc = zero
                for t in range(n):
                    acc = acc + a[arow + t] * m[t * n + j]
                am[i * n + j] = acc
        tr = zero
        for i in range(n):
            tr = tr + am[i * n + i]
        c = (-tr) / k if k > 1 else -tr
        coeffs.append(c)
        if k < n:
            m = am
            for i in range(n):
                m[i * n + i] = m[i * n + i] + c
    return coeffs


def entries_common_denominator(entries):
    """lcm of the denominators of a list of Fractions (ints allowed)."""
    d = 1
    for x in entries:
        q = x.denominator if isinstance(x, Fraction) else 1
        d = d * q // gcd(d, q)
    return d
