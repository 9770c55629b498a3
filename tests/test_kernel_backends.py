"""The pure-Python kernels against plain Fraction/int references kept here."""

import math
import random
from fractions import Fraction as Q

import pytest

import foldlie
from foldlie import _kernel_py, kernel


def rand_entries(rng, n, m):
    return [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n * m)]


def ref_mat_mul(a, b, n, k, m):
    return [sum((a[i * k + t] * b[t * m + j] for t in range(k)), Q(0))
            for i in range(n) for j in range(m)]


def ref_rref(a, rows, cols):
    """Gauss-Jordan on a list of row lists; the reduced form is unique."""
    m = [[Q(x) for x in a[i * cols:(i + 1) * cols]] for i in range(rows)]
    pivots, r = [], 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return [x for row in m for x in row], pivots


def ref_det(a, n):
    """Determinant by Fraction Gaussian elimination."""
    m = [[Q(x) for x in a[i * n:(i + 1) * n]] for i in range(n)]
    det = Q(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            return Q(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def ref_charpoly_faddeev_leverrier(entries, n):
    """Characteristic polynomial of an integer matrix, coefficients of
    x^n .. x^0, by the division-exact Faddeev-LeVerrier recursion:
    M_1 = I, c_k = -tr(A M_k) / k, M_(k+1) = A M_k + c_k I."""
    if n == 0:
        return [1]
    a = list(entries)
    coeffs = [1]
    m = [1 if i == j else 0 for i in range(n) for j in range(n)]
    for k in range(1, n + 1):
        am = [sum(a[i * n + t] * m[t * n + j] for t in range(n))
              for i in range(n) for j in range(n)]
        tr = -sum(am[i * n + i] for i in range(n))
        assert tr % k == 0, "non-exact division in Faddeev-LeVerrier"
        coeffs.append(tr // k)
        m = am
        for i in range(n):
            m[i * n + i] += coeffs[-1]
    return coeffs


def charpoly_matches_det(coeffs, a, n):
    """coeffs (x^n .. x^0) agree with det(x I - a) at n + 1 points."""
    for x in range(n + 1):
        shifted = [(x if i == j else 0) - a[i * n + j] for i in range(n) for j in range(n)]
        value = sum(c * x ** (n - k) for k, c in enumerate(coeffs))
        if value != ref_det(shifted, n):
            return False
    return True


class TestAgreement:
    def test_backend_selected(self):
        assert kernel.BACKEND == foldlie.BACKEND == "python"
        for name in ("mat_mul", "mat_vec", "rref", "charpoly_int", "charpoly_generic"):
            assert getattr(kernel, name) is getattr(_kernel_py, name)

    def test_mat_mul(self):
        rng = random.Random(1)
        for _ in range(20):
            n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
            a, b = rand_entries(rng, n, k), rand_entries(rng, k, m)
            assert _kernel_py.mat_mul(list(a), list(b), n, k, m) == ref_mat_mul(a, b, n, k, m)
            ia = [rng.randint(-9, 9) for _ in range(n * k)]
            ib = [rng.randint(-9, 9) for _ in range(k * m)]
            out = _kernel_py.mat_mul(ia, ib, n, k, m)
            assert out == ref_mat_mul(ia, ib, n, k, m)
            assert all(type(x) is int for x in out)
            v = b[:k]
            assert _kernel_py.mat_vec(list(a), v, n, k) == ref_mat_mul(a, v, n, k, 1)

    def test_rref(self):
        """The integer rref of the numerators over their lcm denominator is the
        Fraction reduced form, divided once, in canonical form."""
        rng = random.Random(2)
        for _ in range(200):
            n, m = rng.randint(0, 6), rng.randint(0, 7)
            a = rand_entries(rng, n, m)
            if n > 1 and rng.random() < 0.4:  # rank deficiency
                k = rng.randrange(1, n)
                a[k * m:(k + 1) * m] = [Q(rng.randint(-3, 3), 2) * x for x in a[:m]]
            d = math.lcm(*(x.denominator for x in a))
            ints = [int(x * d) for x in a]
            nums, den, pivots = _kernel_py.rref(ints, n, m)
            assert all(type(x) is int for x in nums) and den > 0
            assert math.gcd(den, *nums) == 1
            assert ([Q(x, den) for x in nums], pivots) == ref_rref(a, n, m)

    def test_charpoly_int(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 6)
            a = [rng.randint(-9, 9) for _ in range(n * n)]
            coeffs = _kernel_py.charpoly_int(list(a), n)
            assert all(type(c) is int for c in coeffs)
            assert charpoly_matches_det(coeffs, a, n)

    def test_charpoly_generic(self):
        """Rational matrices as constant polynomials over their common
        denominator d: the kernel's c_k of the numerators, over d^k."""
        def check(a, n):
            d = math.lcm(*(x.denominator for x in a))
            ent = [{0: int(x * d)} if x else {} for x in a]
            out = _kernel_py.charpoly_generic(ent, n)
            assert all(set(c) <= {0} and all(type(x) is int and x for x in c.values())
                       for c in out)
            coeffs = [Q(c.get(0, 0), d**k) for k, c in enumerate(out)]
            assert charpoly_matches_det(coeffs, a, n)

        rng = random.Random(4)
        for _ in range(10):
            n = rng.randint(1, 4)
            check(rand_entries(rng, n, n), n)
        # mostly-zero matrices, including zero rows, exercise the sparse rows
        for _ in range(20):
            n = rng.randint(1, 5)
            check([Q(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < 0.3 else Q(0)
                   for _ in range(n * n)], n)

    def test_charpoly_generic_inexact_division_raises(self):
        """Each c_k = -tr(A M_k) / k is an exact division, checked: outside
        Z[x], diag(1/2, 1/2) gives tr(A M_2) = -1/2, not a multiple of 2."""
        half = {0: Q(1, 2)}
        with pytest.raises(ArithmeticError):
            _kernel_py.charpoly_generic([half, {}, {}, half], 2)

    def test_common_denominator(self):
        """``exactalg._integer_vector``: numerators over the lcm of the
        denominators; a vector of ints passes as it is, over 1."""
        from foldlie.exactalg import _integer_vector

        vals = [Q(1, 2), Q(3, 4), Q(5, 6), 7]
        assert _integer_vector(vals) == ((6, 9, 10, 84), 12)
        assert _integer_vector([3, -1, 0]) == ((3, -1, 0), 1)
        assert _integer_vector([Q(1, 2), "x"]) is None
        rng = random.Random(6)
        for _ in range(20):
            vals = rand_entries(rng, 1, rng.randint(1, 8))
            nums, d = _integer_vector(vals)
            assert d == math.lcm(*(x.denominator for x in vals))
            assert [Q(x, d) for x in nums] == vals


class TestKroneckerCharpoly:
    """``charpoly_int`` reads the coefficients off one determinant
    det(X I - A) in base X; Faddeev-LeVerrier is the independent reference."""

    def test_matches_eigenvalue_expansion(self):
        # diag(1, 2, -1, -2): x^4 - 5 x^2 + 4
        a = [0] * 16
        for i, v in enumerate((1, 2, -1, -2)):
            a[i * 4 + i] = v
        assert _kernel_py.charpoly_int(a, 4) == [1, 0, -5, 0, 4]

    def test_weyl_group_d5(self):
        from foldlie.rootsys import build_root_system
        from foldlie.weyl import WeylGroup

        wg = WeylGroup.generate(build_root_system("D5"))
        assert wg.order == 1920
        for w in wg.flat_matrices(range(wg.order)):
            assert _kernel_py.charpoly_int(w, 5) == ref_charpoly_faddeev_leverrier(w, 5)

    def test_random_matrices_match_reference(self):
        rng = random.Random(5)
        for _ in range(150):
            n = rng.randint(0, 8)
            bound = rng.choice((1, 10, 10**6))
            a = [rng.randint(-bound, bound) for _ in range(n * n)]
            coeffs = _kernel_py.charpoly_int(a, n)
            assert all(type(c) is int for c in coeffs)
            assert coeffs == ref_charpoly_faddeev_leverrier(a, n)

    def test_zero_identity_nilpotent(self):
        for n in range(0, 9):
            zero = [0] * (n * n)
            assert _kernel_py.charpoly_int(zero, n) == [1] + [0] * n
            eye = [1 if i == j else 0 for i in range(n) for j in range(n)]
            assert _kernel_py.charpoly_int(eye, n) == [math.comb(n, k) * (-1) ** k
                                                       for k in range(n + 1)]
            # strictly upper triangular with large entries: x^n
            rng = random.Random(n)
            nil = [rng.randint(-10**6, 10**6) if j > i else 0
                   for i in range(n) for j in range(n)]
            assert _kernel_py.charpoly_int(nil, n) == [1] + [0] * n
            assert ref_charpoly_faddeev_leverrier(nil, n) == [1] + [0] * n
