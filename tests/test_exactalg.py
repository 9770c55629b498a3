import itertools
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldlie.exactalg import (
    MultiPoly,
    PolyMatrix,
    RatMatrix,
    SpanSolver,
    char_poly_coefficients,
    exterior_traces,
    nullspace,
)


def exterior_trace(m, k):
    """tr(Lambda^k m), one degree at a time."""
    return exterior_traces(m, (k,))[0]


def variables(names):
    """The variables of a ring, in order, as polynomials."""
    return [MultiPoly.var(names, n) for n in names]


def principal_minor_sum(m, k):
    """Sum of the k x k principal minors by the Leibniz formula: an oracle
    for exterior_traces independent of the characteristic-polynomial kernels.
    Exponential in n."""
    total = Q(0)
    n = m.rows
    for subset in itertools.combinations(range(n), k):
        for perm in itertools.permutations(range(k)):
            inversions = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
            term = Q((-1) ** inversions)
            for a, b in enumerate(perm):
                term = term * m.entries[subset[a] * n + subset[b]]
            total = total + term
    return total


def rand_matrix(rng, rows, cols):
    return RatMatrix(
        rows, cols,
        [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rows * cols)],
    )


class TestCharPoly:
    def test_diag_example(self):
        cp = char_poly_coefficients(RatMatrix.diagonal([1, 2, -1, -2]))
        assert cp == [1, 0, -5, 0, 4]

    def test_zero_matrix(self):
        assert char_poly_coefficients(RatMatrix.zeros(2, 2)) == [1, 0, 0]

    def test_nilpotent_sp4_x(self):
        x = RatMatrix.from_rows(
            [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
        )
        assert char_poly_coefficients(x) == [1, 0, 0, 0, 0]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            char_poly_coefficients(RatMatrix.zeros(2, 3))

    def test_conjugation_invariance(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(2, 4)
            m = rand_matrix(rng, n, n)
            while True:
                p = rand_matrix(rng, n, n)
                try:
                    pinv = p.inverse()
                    break
                except ValueError:
                    continue
            assert char_poly_coefficients(p * m * pinv) == char_poly_coefficients(m)

    def test_rational_entries_exact(self):
        m = RatMatrix.from_rows([[Q(1, 2), Q(1, 3)], [Q(1, 5), Q(1, 7)]])
        cp = char_poly_coefficients(m)
        assert cp[1] == -(Q(1, 2) + Q(1, 7))
        assert cp[2] == Q(1, 2) * Q(1, 7) - Q(1, 3) * Q(1, 5)
        # det(m) = (-1)^n c_n
        assert cp[2] == m.entry(0, 0) * m.entry(1, 1) - m.entry(0, 1) * m.entry(1, 0)


class TestExteriorTrace:
    def test_examples(self):
        m = RatMatrix.diagonal([1, 2, -1, -2])
        assert exterior_trace(m, 2) == -5
        assert exterior_trace(RatMatrix.identity(4), 4) == 1

    def test_range_errors(self):
        m = RatMatrix.identity(3)
        for k in (0, 4):
            with pytest.raises(ValueError):
                exterior_trace(m, k)

    def test_against_principal_minors(self):
        rng = random.Random(5)
        for _ in range(15):
            n = rng.randint(2, 4)
            m = rand_matrix(rng, n, n)
            for k in range(1, n + 1):
                assert exterior_trace(m, k) == principal_minor_sum(m, k)

    @given(st.lists(st.integers(-6, 6), min_size=9, max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_minor_oracle_property(self, entries):
        m = RatMatrix(3, 3, entries)
        for k in (1, 2, 3):
            assert exterior_trace(m, k) == principal_minor_sum(m, k)


class TestNullspace:
    def test_zero_matrix(self):
        assert len(nullspace(RatMatrix.zeros(2, 2))) == 2

    def test_identity(self):
        assert nullspace(RatMatrix.identity(3)) == []

    def test_sp4_ad_y_kernel(self, sp4):
        from foldlie.slodowy import ad_matrix

        y = RatMatrix.from_rows(
            [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]]
        )
        assert len(nullspace(ad_matrix(sp4, y))) == 4

    def test_rank_nullity_on_random_matrices(self):
        rng = random.Random(42)
        for _ in range(500):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = rand_matrix(rng, rows, cols)
            basis = nullspace(m)
            assert len(basis) + m.rank() == cols
            for v in basis:
                assert (m * v).is_zero()


class TestMultiPoly:
    def test_eval_examples(self):
        c7 = MultiPoly.const(("x",), 7)
        assert c7.evaluate({"x": Q(123)}) == 7
        x, y, z = variables(["x", "y", "z"])
        f = x**4 - y * z
        assert f.evaluate({"x": 1, "y": 1, "z": 1}) == 0
        vs = ("t1", "t2", "t3", "t4")
        t = variables(vs)
        sigma2 = sum((a * b for a, b in itertools.combinations(t, 2)), MultiPoly.zero(vs))
        assert sigma2.evaluate(dict(zip(vs, (1, 2, -1, -2)))) == -5

    def test_missing_variable_errors(self):
        x, y = variables(["x", "y"])
        with pytest.raises(KeyError):
            (x + y).evaluate({"x": Q(1)})

    def test_variable_order_mismatch_is_an_error(self):
        x1 = MultiPoly.var(("x", "y"), "x")
        x2 = MultiPoly.var(("y", "x"), "x")
        with pytest.raises(ValueError):
            _ = x1 + x2
        with pytest.raises(ValueError):
            _ = x1 * x2

    def test_no_zero_terms_stored(self):
        x, y = variables(["x", "y"])
        p = (x + y) - x - y
        assert p.terms == {} and p.is_zero()

    def test_reduce_square(self):
        vs = ("a", "i")
        a = MultiPoly.var(vs, "a")
        i = MultiPoly.var(vs, "i")
        p = (a + i) * (a - i)
        assert p.reduce_square("i", Q(-1)) == a**2 + 1

    def test_substitute(self):
        x, y = variables(["x", "y"])
        p = x**2 + y
        q = p.substitute({"x": y, "y": x * y})
        assert q == y**2 + x * y

    def test_diff(self):
        x, y = variables(["x", "y"])
        assert (x**3 * y).diff("x") == 3 * x**2 * y

    def test_weighted_degrees(self):
        x, y, z = variables(["x", "y", "z"])
        f = x**4 - y * z
        assert f.weighted_degrees({"x": 1, "y": 2, "z": 2}) == {4}


class TestSpanSolver:
    def test_roundtrip(self):
        basis = [(1, 0, 1), (0, 1, 1)]
        s = SpanSolver(basis)
        assert s.coordinates((2, 3, 5)) == (Q(2), Q(3))
        assert s.coordinates((1, 1, 1)) is None

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            SpanSolver([(1, 2), (2, 4)])

    def test_zero_and_sparse_vectors(self):
        """A solve reads only the vector's non-zero entries: zero vectors
        and 64-long vectors with a few non-zeros, inside and outside a span
        of sparse basis vectors."""
        rng = random.Random(64)
        m, d = 64, 10
        basis = [[Q(int(i == 6 * j)) if i % 6 == 0 else rng.choice((0, 0, 0, 1, Q(-1, 2)))
                  for i in range(m)] for j in range(d)]
        solver = SpanSolver(basis)
        assert solver.coordinates([0] * m) == (Q(0),) * d
        assert solver.coordinates(RatMatrix(8, 8, [0] * m)) == (Q(0),) * d
        for _ in range(20):
            coeffs = [rng.choice((0, 0, 0, 2, Q(1, 3))) for _ in range(d)]
            v = [sum((c * b[i] for c, b in zip(coeffs, basis)), Q(0)) for i in range(m)]
            assert solver.coordinates(v) == tuple(Q(c) for c in coeffs)
            k = rng.randrange(m)
            outside = [Q(int(i == k)) for i in range(m)]
            got = solver.coordinates(outside)
            assert (got is None) == (_ref_rank(basis + [outside]) > d)


class TestImmutability:
    def test_matrix_immutable(self):
        m = RatMatrix.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 3

    def test_poly_immutable(self):
        p = MultiPoly.const(("x",), 1)
        with pytest.raises(AttributeError):
            p.terms = {}


# -- the integer path against plain Fraction loops -----------------------------


def _ref_mul(a, b, n, k, m):
    return [sum((a[i * k + t] * b[t * m + j] for t in range(k)), Q(0))
            for i in range(n) for j in range(m)]


def _ref_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _entries(rng, rows, cols, kind):
    """Random entries: mixed denominators, all integers, or with zero rows."""
    if kind == "integer":
        ent = [Q(rng.randint(-6, 6)) for _ in range(rows * cols)]
    else:
        ent = [Q(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rows * cols)]
    if kind == "zero_rows":
        for i in rng.sample(range(rows), rng.randint(1, rows)):
            ent[i * cols:(i + 1) * cols] = [Q(0)] * cols
    return ent


def _normalized(values):
    """Every value is a Fraction in lowest terms with a positive denominator."""
    return all(type(x) is Q and x.denominator > 0
               and math.gcd(x.numerator, x.denominator) == 1 for x in values)


KINDS = ["mixed", "integer", "zero_rows"]


class TestIntegerPath:
    @pytest.mark.parametrize("kind", KINDS)
    def test_mul_and_bracket(self, kind):
        rng = random.Random(f"mul-{kind}")
        for _ in range(40):
            n, k, m = (rng.randint(1, 8) for _ in range(3))
            a, b = _entries(rng, n, k, kind), _entries(rng, k, m, kind)
            prod = RatMatrix(n, k, a) * RatMatrix(k, m, b)
            assert (prod.rows, prod.cols) == (n, m)
            assert list(prod.entries) == _ref_mul(a, b, n, k, m)
            assert _normalized(prod.entries)
            c = _entries(rng, n, n, kind)
            d = _entries(rng, n, n, kind)
            br = RatMatrix(n, n, c).bracket(RatMatrix(n, n, d))
            assert list(br.entries) == [x - y for x, y in zip(_ref_mul(c, d, n, n, n),
                                                              _ref_mul(d, c, n, n, n))]
            assert _normalized(br.entries)

    @pytest.mark.parametrize("kind", KINDS)
    def test_apply(self, kind):
        rng = random.Random(f"apply-{kind}")
        for _ in range(40):
            n, k = rng.randint(1, 8), rng.randint(1, 8)
            a, v = _entries(rng, n, k, kind), _entries(rng, k, 1, kind)
            out = RatMatrix(n, k, a).apply(v)
            assert list(out) == _ref_mul(a, v, n, k, 1)
            assert _normalized(out)
            # plain ints in the vector take the same path
            ints = [rng.randint(-5, 5) for _ in range(k)]
            assert list(RatMatrix(n, k, a).apply(ints)) == _ref_mul(a, ints, n, k, 1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_span_solver_coordinates(self, kind):
        rng = random.Random(f"span-{kind}")
        for _ in range(25):
            m = rng.randint(1, 8)
            d = rng.randint(1, m)
            basis = [_entries(rng, m, 1, "mixed" if kind == "zero_rows" else kind)
                     for _ in range(d)]
            if _ref_rank(basis) < d:
                continue
            solver = SpanSolver(basis)
            coeffs = _entries(rng, d, 1, kind)
            v = [sum((c * b[i] for c, b in zip(coeffs, basis)), Q(0)) for i in range(m)]
            got = solver.coordinates(v)
            assert list(got) == coeffs and _normalized(got)
            w = _entries(rng, m, 1, kind)
            got = solver.coordinates(w)
            if _ref_rank(basis + [w]) > d:
                assert got is None
            else:
                assert [sum((c * b[i] for c, b in zip(got, basis)), Q(0))
                        for i in range(m)] == w

    def test_integer_form_is_cached_and_exact(self):
        m = RatMatrix(2, 2, [Q(1, 2), Q(-2, 3), 0, 5])
        nums, d = m._integer_form()
        assert d == 6 and nums == (3, -4, 0, 30)
        assert m._integer_form() is m._integer_form()

    @pytest.mark.parametrize("name", ["A3", "B3", "G2", "D4/3 folded"])
    def test_root_system_inner(self, name):
        from foldlie.rootsys import build_root_system, fold_coinvariants, folding_datum

        if name.endswith("folded"):
            rs = fold_coinvariants(folding_datum("D4", 3))
        else:
            rs = build_root_system(name)
        g = rs.gram.to_rows()
        n = len(g)
        for u in rs.all_roots:
            for v in rs.all_roots:
                got = rs.inner(u, v)
                ref = sum((u[i] * g[i][j] * v[j] for i in range(n) for j in range(n)), Q(0))
                assert got == ref and _normalized([got])


# -- integer numerators over one denominator, against plain Fraction lists -----

scalars = st.fractions(min_value=-12, max_value=12, max_denominator=9)


@st.composite
def matrices(draw, rows=None, cols=None):
    """(rows, cols, Fraction entries); about a third of them zero."""
    r = draw(st.integers(0, 4)) if rows is None else rows
    c = draw(st.integers(0, 4)) if cols is None else cols
    ent = draw(st.lists(st.one_of(st.just(Q(0)), scalars), min_size=r * c, max_size=r * c))
    return r, c, ent


def _canonical_storage(m):
    nums, d = m._integer_form()
    return d > 0 and math.gcd(d, *nums) == 1 and type(nums) is tuple


def _ref_rref(a, rows, cols):
    """Gauss-Jordan over Fractions on row lists: (flat reduced form, pivots)."""
    m = [list(a[i * cols:(i + 1) * cols]) for i in range(rows)]
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


class TestIntegerStorage:
    """Every RatMatrix operation on integer numerators against the same
    operation on plain Fraction lists."""

    @settings(max_examples=80, deadline=None)
    @given(matrices(), st.data())
    def test_entrywise_operations(self, mat, data):
        r, c, a = mat
        _, _, b = data.draw(matrices(r, c))
        k = data.draw(scalars)
        ma, mb = RatMatrix(r, c, a), RatMatrix(r, c, b)
        assert list(ma.entries) == a and _normalized(ma.entries)
        assert [ma.entry(i, j) for i in range(r) for j in range(c)] == a
        assert [x for i in range(r) for x in ma.row(i)] == a
        for got, ref in [(ma + mb, [x + y for x, y in zip(a, b)]),
                         (ma - mb, [x - y for x, y in zip(a, b)]),
                         (-ma, [-x for x in a]),
                         (ma.scale(k), [x * k for x in a]),
                         (ma * k, [x * k for x in a]),
                         (ma.transpose(), [a[i * c + j] for j in range(c) for i in range(r)])]:
            assert list(got.entries) == ref and _canonical_storage(got)
        assert ma.is_zero() == all(x == 0 for x in a)
        assert (ma == mb) == (a == b)
        if a == b:
            assert hash(ma) == hash(mb)

    @settings(max_examples=80, deadline=None)
    @given(matrices(), st.data())
    def test_products(self, mat, data):
        r, k, a = mat
        m = data.draw(st.integers(0, 4))
        _, _, b = data.draw(matrices(k, m))
        v = data.draw(st.lists(scalars, min_size=k, max_size=k))
        prod = RatMatrix(r, k, a) * RatMatrix(k, m, b)
        assert list(prod.entries) == _ref_mul(a, b, r, k, m) and _canonical_storage(prod)
        assert list(RatMatrix(r, k, a).apply(v)) == _ref_mul(a, v, r, k, 1)
        if r == k:
            sq = RatMatrix(r, r, a)
            assert sq.trace() == sum((a[i * r + i] for i in range(r)), Q(0))
            if r:
                _, _, b = data.draw(matrices(r, r))
                br = sq.bracket(RatMatrix(r, r, b))
                assert list(br.entries) == [x - y for x, y in zip(
                    _ref_mul(a, b, r, r, r), _ref_mul(b, a, r, r, r))]
                assert _canonical_storage(br)

    @settings(max_examples=80, deadline=None)
    @given(matrices())
    def test_rref_rank_and_nullspace(self, mat):
        r, c, a = mat
        m = RatMatrix(r, c, a)
        red, pivots = m.rref()
        assert (list(red.entries), pivots) == _ref_rref(a, r, c)
        assert _canonical_storage(red) and m.rank() == len(pivots)
        basis = nullspace(m)
        ref_red, _ = _ref_rref(a, r, c)
        expected = []
        for f in (j for j in range(c) if j not in pivots):
            v = [Q(0)] * c
            v[f] = Q(1)
            for row, p in enumerate(pivots):
                v[p] = -ref_red[row * c + f]
            expected.append(v)
        assert [list(v.col(0)) for v in basis] == expected

    @settings(max_examples=80, deadline=None)
    @given(matrices(), st.data())
    def test_inverse_and_span_solver(self, mat, data):
        r, c, a = mat
        if r == c and r:
            m = RatMatrix(r, r, a)
            aug = [x for i in range(r)
                   for x in a[i * r:(i + 1) * r] + [Q(int(i == j)) for j in range(r)]]
            red, pivots = _ref_rref(aug, r, 2 * r)
            if pivots[:r] == list(range(r)):
                inv = m.inverse()
                assert list(inv.entries) == [red[i * 2 * r + r + j]
                                             for i in range(r) for j in range(r)]
                assert m * inv == RatMatrix.identity(r) and _canonical_storage(inv)
            else:
                with pytest.raises(ValueError, match="singular"):
                    m.inverse()
        # columns of a as a basis, when independent
        if c and r and _ref_rank([a[i::c] for i in range(c)]) == c:
            basis = [a[j::c] for j in range(c)]
            solver = SpanSolver(basis)
            coeffs = data.draw(st.lists(scalars, min_size=c, max_size=c))
            v = [sum((x * b[i] for x, b in zip(coeffs, basis)), Q(0)) for i in range(r)]
            got = solver.coordinates(v)
            assert list(got) == coeffs and _normalized(got)
            assert solver.coordinates(RatMatrix(r, 1, v)) == got
            w = data.draw(st.lists(scalars, min_size=r, max_size=r))
            inside = _ref_rank(basis + [w]) == c
            assert (solver.coordinates(w) is not None) == inside

    def test_zero_matrices(self):
        for r, c in [(0, 0), (0, 3), (3, 0), (2, 3)]:
            z = RatMatrix(r, c, [Q(0)] * (r * c))
            assert z._integer_form() == ((0,) * (r * c), 1)
            assert z == RatMatrix.zeros(r, c) and hash(z) == hash(RatMatrix.zeros(r, c))
            assert z.is_zero() and z.rref() == (z, []) and len(nullspace(z)) == c
        m = RatMatrix(2, 2, [Q(1, 3), Q(-1, 6), 2, 0])
        assert (m - m)._integer_form() == ((0, 0, 0, 0), 1)
        assert m.scale(0) == RatMatrix.zeros(2, 2)

    def test_negative_and_mixed_denominators(self):
        m = RatMatrix(2, 2, [Q(1, -2), Q(-3, 4), Q(5, 6), Q(-7, -9)])
        assert m._integer_form() == ((-18, -27, 30, 28), 36)
        assert m.entries == (Q(-1, 2), Q(-3, 4), Q(5, 6), Q(7, 9))
        # the common factor of a result is divided out once
        half = RatMatrix(1, 2, [Q(1, 2), Q(3, 2)])
        assert (half + half)._integer_form() == ((1, 3), 1)
        assert half.scale(Q(2, 3))._integer_form() == ((1, 3), 3)
        assert RatMatrix.from_integers(1, 2, [-4, 6], -8)._integer_form() == ((2, -3), 4)

    def test_only_rational_entries(self):
        v = MultiPoly.var(("x",), "x")
        m = RatMatrix(1, 2, [Q(1, 2), 3])
        solver = SpanSolver([[Q(1, 2), 0], [0, 1]])
        for bad in (v, 0.5, "2/3"):
            with pytest.raises(TypeError):
                RatMatrix(1, 2, [bad, 1])
            with pytest.raises(TypeError):
                m.scale(bad)
            with pytest.raises(TypeError):
                RatMatrix.diagonal([bad, 1])
            with pytest.raises(TypeError):
                SpanSolver([[bad, 0], [0, 1]])
            with pytest.raises(TypeError):
                solver.coordinates([bad, 1])

    def test_canonical_form_is_independent_of_the_chain(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 4)
            a = RatMatrix(n, n, _entries(rng, n, n, "mixed"))
            b = RatMatrix(n, n, _entries(rng, n, n, "mixed"))
            k = Q(rng.randint(1, 9), rng.randint(1, 9))
            chains = [
                a.scale(k) + b,
                b + a * k,
                (a + b.scale(1 / k)).scale(k),
                -((-b) - a.scale(k)),
                RatMatrix(n, n, [x * k + y for x, y in zip(a.entries, b.entries)]),
                (a.scale(k).transpose() + b.transpose()).transpose(),
                RatMatrix.identity(n) * (a.scale(2 * k) + b.scale(2)) * RatMatrix.identity(n).scale(
                    Q(1, 2)),
            ]
            forms = {c._integer_form() for c in chains}
            assert len(forms) == 1 and _canonical_storage(chains[0])
            assert len({hash(c) for c in chains}) == 1 and len(set(chains)) == 1



# -- MultiPoly ring operations against the validating constructor --------------

VARS = ("x", "y", "z")


def _rand_poly(rng, max_terms=6):
    """Random polynomial: negative and fractional coefficients, repeated
    exponents (summed by the constructor) and zero coefficients (dropped)."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, 3) for _ in VARS)
        terms[e] = terms.get(e, Q(0)) + Q(rng.randint(-4, 4), rng.randint(1, 3))
    return MultiPoly(VARS, terms)


def _ref(vs, pairs):
    """The validating constructor applied to summed ``(exponents, coefficient)``
    pairs: the reference every ring operation must match."""
    terms = {}
    for e, c in pairs:
        terms[e] = terms.get(e, Q(0)) + c
    return MultiPoly(vs, terms)


def _ref_mul_poly(p, q):
    return _ref(p.variables, ((tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                              for e1, c1 in p.terms.items() for e2, c2 in q.terms.items()))


def _ref_reduce_square(p, name, square):
    i = p.variables.index(name)
    while any(e[i] >= 2 for e in p.terms):
        pairs = []
        for e, c in p.terms.items():
            if e[i] < 2:
                pairs.append((e, c))
                continue
            low = list(e)
            low[i] -= 2
            pairs.extend(_ref_mul_poly(_ref(p.variables, [(tuple(low), c)]), square)
                         .terms.items())
        p = _ref(p.variables, pairs)
    return p


def _canonical(p, nvars=len(VARS)):
    """Every coefficient a non-zero Fraction, every exponent an int tuple of
    the ring's length, and nothing the validating constructor would change."""
    return (all(type(c) is Q and c != 0 for c in p.terms.values())
            and all(type(e) is tuple and len(e) == nvars
                    and all(type(k) is int and k >= 0 for k in e) for e in p.terms)
            and MultiPoly(p.variables, p.terms).terms == p.terms)


class TestTrustedRingOps:
    def test_add_sub_neg(self):
        rng = random.Random("add")
        for _ in range(200):
            p, q = _rand_poly(rng), _rand_poly(rng)
            for got, pairs in (
                (p + q, [*p.terms.items(), *q.terms.items()]),
                (p - q, [*p.terms.items(), *((e, -c) for e, c in q.terms.items())]),
                (-p, [(e, -c) for e, c in p.terms.items()]),
            ):
                assert got == _ref(VARS, pairs) and _canonical(got)

    def test_cancellation_to_zero(self):
        rng = random.Random("cancel")
        for _ in range(100):
            p, r = _rand_poly(rng), _rand_poly(rng, max_terms=2)
            q = -p + r  # shares p's monomials, so p + q cancels down to r
            assert p + q == r and _canonical(p + q)
            assert (p - p).is_zero() and (p - p).terms == {}
            assert (p + (-p)).terms == {}
        x, y, _ = variables(VARS)
        diff = (x + y) * (x - y)
        assert diff == x**2 - y**2 and _canonical(diff)
        assert _canonical((x + y) * (x - y) - x**2 + y**2)

    def test_mul_and_pow(self):
        rng = random.Random("mul")
        for _ in range(150):
            p, q = _rand_poly(rng), _rand_poly(rng)
            got = p * q
            assert got == _ref_mul_poly(p, q) and _canonical(got)
            # the cross terms of (p + q)(p - q) cancel inside the product
            got = (p + q) * (p - q)
            assert got == _ref_mul_poly(p + q, p - q) and _canonical(got)
            k = rng.randint(0, 3)
            ref = MultiPoly.const(VARS, 1)
            for _ in range(k):
                ref = _ref_mul_poly(ref, p)
            assert p**k == ref and _canonical(p**k)

    def test_scalar_mul(self):
        rng = random.Random("scalar")
        for _ in range(150):
            p = _rand_poly(rng)
            c = rng.choice([0, Q(0), -1, Q(rng.randint(-5, 5), rng.randint(1, 4))])
            for got in (p * c, c * p):
                assert got == _ref(VARS, [(e, k * c) for e, k in p.terms.items()])
                assert _canonical(got)
            assert (p * 0).terms == {}

    def test_diff_and_with_variables(self):
        rng = random.Random("diff")
        wider = ("w", "z", "x", "v", "y")
        for _ in range(150):
            p = _rand_poly(rng)
            name = rng.choice(VARS)
            i = VARS.index(name)
            got = p.diff(name)
            ref = _ref(VARS, [(tuple(k - (j == i) for j, k in enumerate(e)), c * e[i])
                              for e, c in p.terms.items() if e[i]])
            assert got == ref and _canonical(got)
            emb = p.with_variables(wider)
            ref = _ref(wider, [(tuple(e[VARS.index(v)] if v in VARS else 0 for v in wider), c)
                               for e, c in p.terms.items()])
            assert emb == ref and _canonical(emb, len(wider))

    def test_reduce_square(self):
        rng = random.Random("reduce")
        for _ in range(100):
            p = _rand_poly(rng)
            name = rng.choice(VARS)
            square = rng.choice([Q(-1), Q(2, 3), Q(0), _rand_poly(rng, max_terms=3)])
            sq = square if isinstance(square, MultiPoly) else MultiPoly.const(VARS, square)
            i = VARS.index(name)
            if any(e[i] for e in sq.terms):
                continue  # the rewrite terminates only if the square avoids the symbol
            got = p.reduce_square(name, square)
            assert got == _ref_reduce_square(p, name, sq) and _canonical(got)
            assert all(e[i] < 2 for e in got.terms)

    def test_public_constructor_still_validates(self):
        with pytest.raises(ValueError):
            MultiPoly(("x", "y"), {(1,): 1})
        with pytest.raises(ValueError):
            MultiPoly(("x",), {(-1,): 1})
        p = MultiPoly(("x",), {(1.0,): 2, (2,): Q(0), (3,): 1})
        assert p.terms == {(1,): Q(2), (3,): Q(1)} and _canonical(p, 1)


class TestExteriorTraces:
    def _poly_matrix(self, rng, n):
        ent = [_rand_poly(rng, max_terms=2) if k == 0 or rng.random() < 0.6
               else Q(rng.randint(-3, 3), rng.randint(1, 2)) for k in range(n * n)]
        return PolyMatrix([ent[i * n:(i + 1) * n] for i in range(n)])

    def test_rational_matrices(self):
        rng = random.Random("traces-q")
        for _ in range(20):
            n = rng.randint(1, 5)
            m = rand_matrix(rng, n, n)
            ks = rng.sample(range(1, n + 1), rng.randint(1, n))
            got = exterior_traces(m, ks)
            assert got == tuple(exterior_trace(m, k) for k in ks)
            assert got == tuple(principal_minor_sum(m, k) for k in ks)

    def test_multipoly_matrices(self):
        rng = random.Random("traces-poly")
        for _ in range(6):
            n = rng.randint(1, 3)
            m = self._poly_matrix(rng, n)
            ks = list(range(1, n + 1))
            got = exterior_traces(m, ks)
            assert got == tuple(exterior_trace(m, k) for k in ks)
            assert got == tuple(principal_minor_sum(m, k) for k in ks)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            exterior_traces(RatMatrix.identity(3), (2, 4))
        with pytest.raises(ValueError):
            exterior_traces(RatMatrix.zeros(2, 3), (1,))


# -- the integer polynomial layer against a Fraction-dict reference -------------
#
# The reference keeps a polynomial as a plain {exponents: Fraction} dict and
# runs every operation with Fraction arithmetic, independently of MultiPoly.

MIXED = [Q(1, 2), Q(2, 3), Q(1, 6), Q(-1, 2), Q(-2, 3), Q(-1, 6), Q(1), Q(-1), Q(3), Q(5, 6)]
exponents = st.tuples(*[st.integers(0, 3)] * len(VARS))
coefficient_dicts = st.dictionaries(exponents, st.sampled_from(MIXED), max_size=5)


@st.composite
def poly_pairs(draw):
    """(p, q): q often shares p's monomials with opposite coefficients, so
    that p + q cancels in part or in full."""
    p = draw(coefficient_dicts)
    q = draw(coefficient_dicts)
    if draw(st.booleans()):
        q = {**q, **{e: -c for e, c in p.items() if draw(st.booleans())}}
    return p, q


def _clean(d):
    return {e: c for e, c in d.items() if c}


def _r_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Q(0)) + c
    return _clean(out)


def _r_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Q(0)) + c1 * c2
    return _clean(out)


def _r_pow(a, n, nvars=len(VARS)):
    out = {(0,) * nvars: Q(1)}
    for _ in range(n):
        out = _r_mul(out, a)
    return out


def _r_evaluate(a, vals):
    total = Q(0)
    for e, c in a.items():
        for x, k in zip(vals, e):
            c *= x**k
        total += c
    return total


def _storage_ok(p):
    """Canonical storage: a positive denominator, 1 for the zero polynomial,
    non-zero int numerators and no factor common to all of them and it."""
    nums, d = p._integer_form()
    return (type(d) is int and d > 0 and (d == 1 or bool(nums))
            and all(type(c) is int and c != 0 for c in nums.values())
            and math.gcd(d, *nums.values()) == 1)


class TestIntegerPolynomials:
    @settings(max_examples=60, deadline=None)
    @given(poly_pairs())
    def test_add_sub_neg(self, pair):
        a, b = pair
        p, q = MultiPoly(VARS, a), MultiPoly(VARS, b)
        neg_b = {e: -c for e, c in b.items()}
        for got, ref in ((p + q, _r_add(a, b)), (p - q, _r_add(a, neg_b)),
                         (-q, _clean(neg_b)), (p + 0, _clean(a))):
            assert got.terms == ref and _storage_ok(got)
        assert (p + q)._integer_form() == (q + p)._integer_form()
        assert ((p + q) - q)._integer_form() == p._integer_form()
        assert (p - p)._integer_form() == ({}, 1)

    @settings(max_examples=60, deadline=None)
    @given(poly_pairs(), st.integers(0, 3))
    def test_mul_and_pow(self, pair, n):
        a, b = pair
        p, q = MultiPoly(VARS, a), MultiPoly(VARS, b)
        assert (p * q).terms == _r_mul(a, b) and _storage_ok(p * q)
        assert (p * q)._integer_form() == (q * p)._integer_form()
        assert (p**n).terms == _r_pow(a, n) and _storage_ok(p**n)
        for c in (Q(0), Q(-2, 3), 3):
            got = p * c
            assert got.terms == _clean({e: k * c for e, k in a.items()}) and _storage_ok(got)

    @settings(max_examples=60, deadline=None)
    @given(coefficient_dicts, st.sampled_from(VARS))
    def test_diff_and_with_variables(self, a, name):
        p = MultiPoly(VARS, a)
        i = VARS.index(name)
        ref = _clean({tuple(k - (j == i) for j, k in enumerate(e)): c * e[i]
                      for e, c in a.items() if e[i]})
        assert p.diff(name).terms == ref and _storage_ok(p.diff(name))
        wider = ("w", "z", "x", "v", "y")
        emb = p.with_variables(wider)
        assert emb.terms == {tuple(e[VARS.index(v)] if v in VARS else 0 for v in wider): c
                             for e, c in a.items()}
        assert _storage_ok(emb)

    @settings(max_examples=40, deadline=None)
    @given(coefficient_dicts, st.lists(coefficient_dicts, min_size=3, max_size=3))
    def test_substitute(self, a, images):
        p = MultiPoly(VARS, a)
        got = p.substitute({v: MultiPoly(VARS, img) for v, img in zip(VARS, images)})
        ref = {}
        for e, c in a.items():
            term = {(0,) * len(VARS): c}
            for img, k in zip(images, e):
                term = _r_mul(term, _r_pow(_clean(img), k))
            ref = _r_add(ref, term)
        assert got.terms == ref and _storage_ok(got)
        # scalar images and unmapped variables carried across
        got = p.substitute({"x": Q(2, 3)}, target_variables=VARS)
        ref = {}
        for e, c in a.items():
            ref = _r_add(ref, {(0,) + e[1:]: c * Q(2, 3) ** e[0]})
        assert got.terms == ref and _storage_ok(got)

    @settings(max_examples=40, deadline=None)
    @given(coefficient_dicts, st.sampled_from(VARS),
           st.one_of(st.sampled_from([Q(-1), Q(2, 3), Q(0)]), coefficient_dicts))
    def test_reduce_square(self, a, name, square):
        i = VARS.index(name)
        sq = square if isinstance(square, dict) else {(0,) * len(VARS): square}
        sq = _clean({e: c for e, c in sq.items() if not e[i]})  # must avoid the symbol
        ref = _clean(a)
        while any(e[i] >= 2 for e in ref):
            nxt = {}
            for e, c in ref.items():
                if e[i] < 2:
                    nxt = _r_add(nxt, {e: c})
                else:
                    low = e[:i] + (e[i] - 2,) + e[i + 1:]
                    nxt = _r_add(nxt, _r_mul({low: c}, sq))
            ref = nxt
        got = MultiPoly(VARS, a).reduce_square(name, MultiPoly(VARS, sq))
        assert got.terms == ref and _storage_ok(got)

    @settings(max_examples=60, deadline=None)
    @given(coefficient_dicts, st.lists(st.sampled_from(MIXED + [Q(0)]), min_size=3,
                                       max_size=3))
    def test_evaluate_and_boundary(self, a, vals):
        p = MultiPoly(VARS, a)
        assert p.evaluate(dict(zip(VARS, vals))) == _r_evaluate(a, vals)
        assert p.terms == _clean(a)
        c = MultiPoly.const(VARS, vals[0])
        assert c.terms.get((0, 0, 0), 0) == vals[0] and c.is_constant() and c == vals[0]
        assert _storage_ok(c)

    def test_pow_matches_repeated_product(self):
        x, y, z = variables(VARS)
        p = x * Q(1, 2) + y * Q(2, 3) - Q(1, 6) + z * x
        assert p._integer_form()[1] == 6
        ref = MultiPoly.const(VARS, 1)
        for n in range(10):
            assert p**n == ref and _storage_ok(p**n)
            ref = ref * p

    def test_pow_squares_only_while_bits_remain(self, monkeypatch):
        calls = []
        mul = MultiPoly.__mul__

        def counted(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(MultiPoly, "__mul__", counted)
        x, y, _ = variables(VARS)
        p = x + y * Q(1, 2)
        for n in range(1, 10):
            calls.clear()
            p**n
            # one squaring per bit after the top one, one product per set bit
            # after the first
            assert len(calls) == (n.bit_length() - 1) + (bin(n).count("1") - 1)


def _count_fractions(fn) -> int:
    """Fraction constructions made by ``fn()``, counted by wrapping
    ``Fraction.__new__`` and restoring it afterwards."""
    original = Q.__dict__["__new__"]
    count = [0]

    def counted_new(cls, *args, **kwargs):
        count[0] += 1
        return original.__func__(cls, *args, **kwargs)

    Q.__new__ = staticmethod(counted_new)
    try:
        fn()
    finally:
        Q.__new__ = original
    return count[0]


class TestFractionFree:
    def test_integer_ring_operations_build_no_fraction(self):
        x, y, z = variables(VARS)
        p = x**2 * 3 - y * z + 5
        q = x * y - z * 2 + 1

        def ring_ops():
            s = p + q
            t = p * q - s
            u = t**3
            u.substitute({"x": q, "y": p - 1, "z": y}, target_variables=VARS)

        assert _count_fractions(ring_ops) == 0

    def test_warm_appendix_request(self):
        import contextlib
        import io

        from foldlie.cli import main

        def request():
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["--format", "json", "slice", "--verify-appendix",
                             "--samples", "10"]) == 0

        request()
        assert _count_fractions(request) < 2000
