"""Exact rational arithmetic kernel: matrices, nullspaces, characteristic
polynomials, exterior-power traces, and sparse multivariate polynomials.

No floating point appears anywhere.  Rational matrices (:class:`RatMatrix`)
and polynomials (:class:`MultiPoly`) are both stored as integer numerators
over one positive denominator, in canonical form, so their arithmetic runs
on ints and equal values have equal storage; scalars are handed out at the
boundary as ``fractions.Fraction``.  A matrix with polynomial entries,
needed only for symbolic adjoint quotients, is a :class:`PolyMatrix`: it is
built and read, never computed with; its characteristic polynomial packs
each entry's exponent tuples into ints over one denominator and runs on
integer polynomials in the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Mapping, Sequence, Union

from . import kernel

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)  # shared by every zero entry handed out


def _integer_vector(values):
    """``(numerators, d)`` with ``values[i] == numerators[i] / d``, where d is
    the lcm of the denominators; None if a value is not an int or Fraction.
    A vector of ints comes back as a tuple of itself, over 1.

    This form is canonical: d > 0 and no factor is common to d and every
    numerator."""
    for x in values:
        if x.__class__ is not int:
            break
    else:
        return tuple(values), 1
    if not all(isinstance(x, (int, Fraction)) for x in values):
        return None
    d = lcm(*[x.denominator for x in values])
    if d == 1:
        return tuple(x.numerator for x in values), 1
    return tuple(x.numerator * (d // x.denominator) for x in values), d


def _canonical(nums, d) -> tuple:
    """``(numerators, d)`` divided by their common factor, with d > 0."""
    if d == 1:
        return tuple(nums), 1
    g = gcd(d, *nums)
    if d < 0:
        g = -g
    if g == 1:
        return tuple(nums), d
    return tuple(x // g for x in nums), d // g


def _from_ints(rows: int, cols: int, nums, d) -> "RatMatrix":
    """The matrix ``nums / d`` (flat, row-major), brought to canonical form."""
    m = object.__new__(RatMatrix)
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "_ints", _canonical(nums, d))
    object.__setattr__(m, "_entries", None)
    return m


class RatMatrix:
    """Immutable matrix with rational entries, stored row-major.

    The entries are ints and Fractions, stored as integer numerators over
    one denominator, in canonical form: the denominator is positive and has
    no factor common to every numerator, so equal matrices have equal
    storage.  Sums, products, brackets, row reduction, equality and hashing
    run on these ints and bring each result to canonical form once.
    ``entries``, :meth:`entry` and :meth:`row` hand out Fractions, built on
    first use and cached.
    """

    __slots__ = ("rows", "cols", "_ints", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        ent = tuple(entries)
        if len(ent) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ent)}")
        form = _integer_vector(ent)
        if form is None:
            raise TypeError("RatMatrix entries must be ints or Fractions")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_ints", form)
        object.__setattr__(self, "_entries", None)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    # -- constructors ----------------------------------------------------
    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RatMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = [x for row in rows for x in row]
        return RatMatrix(r, c, flat)

    @staticmethod
    def from_integers(rows: int, cols: int, numerators: Sequence[int],
                      denominator: int = 1) -> "RatMatrix":
        """The matrix ``numerators / denominator`` from flat row-major ints."""
        if len(numerators) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(numerators)}")
        if not denominator:
            raise ZeroDivisionError("zero denominator")
        return _from_ints(rows, cols, numerators, denominator)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        ent = [0] * (n * n)
        for i in range(n):
            ent[i * n + i] = 1
        return _from_ints(n, n, ent, 1)

    @staticmethod
    def zeros(rows: int, cols: int) -> "RatMatrix":
        return _from_ints(rows, cols, (0,) * (rows * cols), 1)

    @staticmethod
    def diagonal(values: Sequence) -> "RatMatrix":
        vals = list(values)
        n = len(vals)
        ent = [0] * (n * n)
        for i, v in enumerate(vals):
            ent[i * n + i] = v
        return RatMatrix(n, n, ent)

    # -- basic access -----------------------------------------------------
    @property
    def entries(self) -> tuple:
        """The entries, row-major: Fractions for a rational matrix."""
        ent = self._entries
        if ent is None:
            nums, d = self._ints
            ent = tuple(Fraction(x, d) if x else _ZERO for x in nums)
            object.__setattr__(self, "_entries", ent)
        return ent

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self._ints[0])

    def _integer_form(self) -> tuple:
        """``(numerators, d)`` with ``entries == numerators / d`` in canonical
        form."""
        return self._ints

    # -- algebra ----------------------------------------------------------
    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, -1)

    def _combine(self, other: "RatMatrix", sign: int) -> "RatMatrix":
        """self + sign * other."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        (a, da), (b, db) = self._ints, other._ints
        if da == db:
            nums = [x + y for x, y in zip(a, b)] if sign > 0 else [x - y for x, y in zip(a, b)]
            return _from_ints(self.rows, self.cols, nums, da)
        d = lcm(da, db)
        ka, kb = d // da, sign * (d // db)
        return _from_ints(self.rows, self.cols, [x * ka + y * kb for x, y in zip(a, b)], d)

    def __neg__(self) -> "RatMatrix":
        nums, d = self._ints
        return _from_ints(self.rows, self.cols, [-x for x in nums], d)

    def __mul__(self, other):
        if isinstance(other, RatMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matrix product")
            fa, fb = self._ints, other._ints
            ent = kernel.mat_mul(fa[0], fb[0], self.rows, self.cols, other.cols)
            return _from_ints(self.rows, other.cols, ent, fa[1] * fb[1])
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "RatMatrix":
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"a RatMatrix scales by an int or a Fraction, not {type(c).__name__}")
        p = c.numerator
        nums, d = self._ints
        return _from_ints(self.rows, self.cols, [x * p for x in nums], d * c.denominator)

    def transpose(self) -> "RatMatrix":
        r, c = self.rows, self.cols
        nums, d = self._ints
        return _from_ints(c, r, [nums[j * c + i] for i in range(c) for j in range(r)], d)

    def trace(self):
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        n = self.rows
        nums, d = self._ints
        return Fraction(sum(nums[i * n + i] for i in range(n)), d)

    def bracket(self, other: "RatMatrix") -> "RatMatrix":
        """Commutator [self, other]; both products share one denominator and
        run over the non-zero numerators of each row only (basis matrices of
        a Lie algebra have one or two)."""
        n = self.rows
        if (self.cols, other.rows, other.cols) != (n, n, n):
            raise ValueError("bracket of matrices of different shapes")
        fa, fb = self._ints, other._ints
        ra, rb = _sparse_rows(fa[0], n), _sparse_rows(fb[0], n)
        out = [0] * (n * n)
        for i in range(n):
            base = i * n
            for t, x in ra[i]:
                for j, y in rb[t]:
                    out[base + j] += x * y
            for t, x in rb[i]:
                for j, y in ra[t]:
                    out[base + j] -= x * y
        return _from_ints(n, n, out, fa[1] * fb[1])

    # -- linear algebra ----------------------------------------------------
    def rank(self) -> int:
        return len(kernel.rref(self._ints[0], self.rows, self.cols)[2])

    def inverse(self) -> "RatMatrix":
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        nums, d = self._ints
        # row-reducing [N | d I] to [I | X] gives X = d N^-1, the inverse of N / d
        red, den, pivots = kernel.rref(_augment(nums, n, n, d), n, 2 * n)
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return _from_ints(n, n, _right_block(red, n, n), den)

    # -- dunder plumbing ----------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix) or (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return self._ints == other._ints

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._ints))

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RatMatrix({self.rows}x{self.cols}: {rows})"


class PolyMatrix:
    """A square matrix with polynomial entries, for symbolic adjoint
    quotients: ``entries`` row-major, each a :class:`MultiPoly` of the ring
    ``variables`` or an exact rational, at least one a polynomial.  It is
    built from its rows and only read, by :func:`char_poly_coefficients`
    and by the membership test of a matrix Lie algebra."""

    __slots__ = ("rows", "cols", "entries", "variables")

    def __init__(self, rows: Sequence[Sequence]):
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("a PolyMatrix is square")
        ent = tuple(x for row in rows for x in row)
        if not all(isinstance(x, (int, Fraction, MultiPoly)) for x in ent):
            raise TypeError("PolyMatrix entries must be MultiPolys, ints or Fractions")
        rings = {x.variables for x in ent if isinstance(x, MultiPoly)}
        if len(rings) != 1:
            raise ValueError("PolyMatrix entries must include polynomials of one ring")
        self.rows = self.cols = n
        self.entries = ent
        (self.variables,) = rings


def _sparse_rows(nums, n: int) -> list:
    """Per row of a flat n x n matrix, its (column, value) pairs with a
    non-zero value."""
    return [[(j, x) for j, x in enumerate(nums[i * n:(i + 1) * n]) if x] for i in range(n)]


def _augment(nums, rows: int, cols: int, d: int) -> list:
    """The flat rows x (cols + rows) integer matrix [nums | d I]."""
    out = []
    for i in range(rows):
        out.extend(nums[i * cols:(i + 1) * cols])
        tail = [0] * rows
        tail[i] = d
        out.extend(tail)
    return out


def _right_block(flat, rows: int, cols: int) -> list:
    """The last ``rows`` columns of a flat rows x (cols + rows) matrix."""
    width = cols + rows
    return [x for i in range(rows) for x in flat[i * width + cols:(i + 1) * width]]


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    A polynomial is stored as integer numerators keyed by exponent tuple
    over one positive denominator, in canonical form: no numerator is zero,
    the zero polynomial has denominator 1, and no factor is common to the
    denominator and every numerator, so equal polynomials have equal
    storage (the form :class:`RatMatrix` uses).  Ring operations, ``diff``,
    ``with_variables``, ``reduce_square`` and ``substitute`` run on these
    ints and bring each result to canonical form once; ``terms`` and
    :meth:`evaluate` hand out Fractions.

    The variable order is fixed at construction; mixing polynomials with
    different variable tuples raises instead of silently merging symbol
    sets.  Use :meth:`with_variables` for deliberate embeddings.
    """

    __slots__ = ("variables", "_nums", "_den")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Scalar]):
        vs = tuple(variables)
        pairs = []
        for exps, coeff in terms.items():
            p, q = _ratio(coeff)
            if not p:
                continue
            e = tuple(int(x) for x in exps)
            if len(e) != len(vs):
                raise ValueError("exponent vector length mismatch")
            if any(x < 0 for x in e):
                raise ValueError("negative exponent")
            pairs.append((e, p, q))
        d = lcm(*(q for _, _, q in pairs))
        nums: dict = {}
        _accumulate(nums, ((e, p * (d // q)) for e, p, q in pairs))
        _init_poly(self, vs, nums, d)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ----------------------------------------------------
    @staticmethod
    def from_integers(variables: Sequence[str], numerators: Mapping[tuple, int],
                      denominator: int = 1) -> "MultiPoly":
        """The polynomial ``numerators / denominator``; ``numerators`` maps
        int exponent tuples of the ring's length to ints (zeros are
        dropped)."""
        if not denominator:
            raise ZeroDivisionError("zero denominator")
        return _poly(tuple(variables), {e: c for e, c in numerators.items() if c}, denominator)

    @staticmethod
    def zero(variables: Sequence[str]) -> "MultiPoly":
        return _poly(tuple(variables), {})

    @staticmethod
    def const(variables: Sequence[str], c) -> "MultiPoly":
        vs = tuple(variables)
        p, q = _ratio(c)
        return _poly(vs, {(0,) * len(vs): p} if p else {}, q)

    @staticmethod
    def var(variables: Sequence[str], name: str) -> "MultiPoly":
        vs = tuple(variables)
        if name not in vs:
            raise KeyError(f"unknown variable {name!r}")
        e = [0] * len(vs)
        e[vs.index(name)] = 1
        return _poly(vs, {tuple(e): 1})

    # -- access -------------------------------------------------------------
    @property
    def terms(self) -> dict:
        """The non-zero coefficients as Fractions, keyed by exponent tuple."""
        d = self._den
        return {e: Fraction(c, d) for e, c in self._nums.items()}

    def _integer_form(self) -> tuple:
        """``(numerators, d)``: the exponent-to-numerator dict (shared, not
        to be mutated) and the denominator, in canonical form."""
        return self._nums, self._den

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._nums

    def is_constant(self) -> bool:
        return all(not any(e) for e in self._nums)

    def depends_on(self, name: str) -> bool:
        i = self.variables.index(name)
        return any(e[i] > 0 for e in self._nums)

    # -- ring operations ----------------------------------------------------
    def _check(self, other: "MultiPoly"):
        if self.variables != other.variables:
            raise ValueError(
                f"variable order mismatch: {self.variables} vs {other.variables}"
            )

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _combine(self, other, sign: int) -> "MultiPoly":
        """self + sign * other, over the lcm of the two denominators."""
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.variables, other)
        self._check(other)
        if not other._nums:
            return self
        if not self._nums:
            return other if sign > 0 else -other
        (a, da), (b, db) = (self._nums, self._den), (other._nums, other._den)
        if da == db:
            d, terms, kb = da, dict(a), sign
        else:
            d = lcm(da, db)
            ka, kb = d // da, sign * (d // db)
            terms = {e: c * ka for e, c in a.items()} if ka != 1 else dict(a)
        _accumulate(terms, b.items(), kb)
        return _poly(self.variables, terms, d)

    def __neg__(self):
        return _poly(self.variables, {e: -c for e, c in self._nums.items()}, self._den)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            p, q = _ratio(other)
            if p == q:
                return self
            return _poly(self.variables, {e: c * p for e, c in self._nums.items()} if p else {},
                         self._den * q)
        self._check(other)
        return _poly(self.variables, _mul_terms(self._nums, other._nums),
                     self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MultiPoly":
        p, q = _ratio(other)
        if not p:
            raise ZeroDivisionError("division of MultiPoly by zero scalar")
        return _poly(self.variables, {e: c * q for e, c in self._nums.items()}, self._den * p)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of MultiPoly")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return MultiPoly.const(self.variables, 1) if result is None else result

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return (self.variables == other.variables and self._den == other._den
                    and self._nums == other._nums)
        if isinstance(other, (int, Fraction)):
            if not self.is_constant():
                return False
            p, q = _ratio(other)
            return self._nums.get((0,) * len(self.variables), 0) * q == p * self._den
        return NotImplemented

    def __repr__(self) -> str:
        if not self._nums:
            return "0"
        terms = self.terms
        bits = []
        for e in sorted(terms, key=lambda t: (sum(t), t), reverse=True):
            c = terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.variables, e) if k
            )
            bits.append(f"{c}" if not mono else (f"{c}*{mono}" if c != 1 else mono))
        return " + ".join(bits)

    # -- calculus / substitution -------------------------------------------
    def diff(self, name: str) -> "MultiPoly":
        i = self.variables.index(name)
        terms = {}
        for e, c in self._nums.items():
            k = e[i]
            if k:
                terms[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return _poly(self.variables, terms, self._den)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact evaluation; every variable must be assigned.

        With x_i = p_i / q_i and m_i the top degree in x_i, the value is
        sum_e c_e prod_i p_i^e_i q_i^(m_i - e_i) over d prod_i q_i^m_i: one
        integer sum and one Fraction."""
        missing = [v for v in self.variables if v not in point]
        if missing:
            raise KeyError(f"missing variables in evaluation point: {missing}")
        vals = [_ratio(point[v]) for v in self.variables]
        top = [max((e[i] for e in self._nums), default=0) for i in range(len(vals))]
        num = 0
        for e, c in self._nums.items():
            for (p, q), k, m in zip(vals, e, top):
                if m:
                    c *= p**k * q**(m - k)
            num += c
        den = self._den
        for (_, q), m in zip(vals, top):
            den *= q**m
        return Fraction(num, den)

    def substitute(self, mapping: Mapping[str, "MultiPoly | Scalar"],
                   target_variables: Sequence[str] | None = None) -> "MultiPoly":
        """Substitute polynomials (or scalars) for variables.

        Unmapped variables must exist in the target variable tuple and are
        carried across unchanged.  Each power of an image is computed once;
        the terms are summed over one common denominator.
        """
        if target_variables is None:
            polys = [v for v in mapping.values() if isinstance(v, MultiPoly)]
            if polys:
                target_variables = polys[0].variables
            else:
                target_variables = self.variables
        tvs = tuple(target_variables)
        images: list[MultiPoly] = []
        for v in self.variables:
            if v in mapping:
                img = mapping[v]
                if not isinstance(img, MultiPoly):
                    img = MultiPoly.const(tvs, img)
                elif img.variables != tvs:
                    raise ValueError("substitution images disagree on variables")
            else:
                img = MultiPoly.var(tvs, v)
            images.append(img)
        powers: dict = {}
        one = (0,) * len(tvs)
        acc, acc_den = {}, 1
        for e, c in self._nums.items():
            nums, den = {one: c}, 1
            for i, k in enumerate(e):
                if k:
                    pw = powers.get((i, k))
                    if pw is None:
                        pw = powers[(i, k)] = images[i] ** k
                    nums = _mul_terms(nums, pw._nums)
                    den *= pw._den
            d = lcm(acc_den, den)
            if d != acc_den:
                acc = {x: y * (d // acc_den) for x, y in acc.items()}
                acc_den = d
            _accumulate(acc, nums.items(), acc_den // den)
        return _poly(tvs, acc, acc_den * self._den)

    def with_variables(self, variables: Sequence[str]) -> "MultiPoly":
        """Embed into a ring with a larger (or reordered) variable tuple."""
        vs = tuple(variables)
        idx = []
        for v in self.variables:
            if v not in vs:
                raise ValueError(f"variable {v!r} missing from target tuple")
            idx.append(vs.index(v))
        terms = {}
        for e, c in self._nums.items():
            e2 = [0] * len(vs)
            for i, k in zip(idx, e):
                e2[i] = k
            terms[tuple(e2)] = c
        return _poly(vs, terms, self._den)

    def reduce_square(self, name: str, square: "MultiPoly | Scalar") -> "MultiPoly":
        """Rewrite ``name**2 -> square`` until the degree in ``name`` is < 2.

        This is how algebraic constants (i with i^2 = -1, r with r^2 = 2/3,
        a primitive cube root mu with mu^2 = -1 - mu) are handled exactly.
        Each pass splits off the terms of degree >= 2 in ``name`` by their
        power q of ``name**2`` and multiplies each group by ``square**q``
        once.
        """
        i = self.variables.index(name)
        if not isinstance(square, MultiPoly):
            square = MultiPoly.const(self.variables, square)
        self._check(square)
        vs = self.variables
        powers = {}
        cur = self
        while True:
            kept, groups = {}, {}
            for e, c in cur._nums.items():
                if e[i] < 2:
                    kept[e] = c
                    continue
                q, r = divmod(e[i], 2)
                groups.setdefault(q, {})[e[:i] + (r,) + e[i + 1:]] = c
            if not groups:
                return cur
            acc = _poly(vs, kept, cur._den)
            for q, low in groups.items():
                if q not in powers:
                    powers[q] = square**q
                acc = acc + _poly(vs, low, cur._den) * powers[q]
            cur = acc

    def weighted_degrees(self, weights: Mapping[str, int]) -> set:
        """Set of weighted degrees of the monomials (empty for 0)."""
        ws = [weights[v] for v in self.variables]
        return {sum(w * k for w, k in zip(ws, e)) for e in self._nums}


def _ratio(x) -> tuple:
    """``(numerator, denominator)`` of an exact scalar, the denominator
    positive; an int or a Fraction is read without building a Fraction."""
    if isinstance(x, int):
        return x, 1
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


def _init_poly(p: "MultiPoly", variables: tuple, nums: dict, den: int) -> None:
    """Fill the slots of ``p`` with ``nums / den`` brought to canonical form:
    ``nums`` maps int exponent tuples to non-zero ints."""
    if den != 1:
        g = gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums = {e: c // g for e, c in nums.items()}
            den //= g
    object.__setattr__(p, "variables", variables)
    object.__setattr__(p, "_nums", nums)
    object.__setattr__(p, "_den", den)


def _poly(variables: tuple, nums: dict, den: int = 1) -> MultiPoly:
    """The polynomial ``nums / den`` (see :func:`_init_poly`); ``nums`` is
    taken over, not copied."""
    p = object.__new__(MultiPoly)
    _init_poly(p, variables, nums, den)
    return p


def _mul_terms(a: dict, b: dict) -> dict:
    """The product of two exponent-to-numerator dicts, without zero terms."""
    terms: dict = {}
    get = terms.get
    items = b.items()
    for e1, c1 in a.items():
        for e2, c2 in items:
            # _accumulate, inlined: this is the hottest loop of the symbolic checks
            e = tuple(map(add, e1, e2))
            s = get(e, 0) + c1 * c2
            if s:
                terms[e] = s
            else:
                del terms[e]
    return terms


def _accumulate(terms: dict, items, scale: int = 1) -> None:
    """Add ``scale`` times the ``(exponents, numerator)`` pairs into
    ``terms`` in place, dropping every term that cancels to zero."""
    get = terms.get
    for e, c in items:
        s = get(e, 0) + c * scale
        if s:
            terms[e] = s
        else:
            del terms[e]


# -- spec operations ------------------------------------------------------


def nullspace(m: RatMatrix) -> list[RatMatrix]:
    """Basis of ker(m) as column vectors; rank-nullity is verified."""
    cols = m.cols
    red, den, pivots = kernel.rref(m._integer_form()[0], m.rows, cols)
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = [0] * cols
        v[f] = den
        for r, p in enumerate(pivots):
            v[p] = -red[r * cols + f]
        basis.append(_from_ints(cols, 1, v, den))
    if len(basis) + len(pivots) != cols:
        raise AssertionError("rank-nullity violated")
    for v in basis:
        if not (m * v).is_zero():
            raise AssertionError("nullspace vector fails m*v = 0")
    return basis


def char_poly_coefficients(m: RatMatrix | PolyMatrix) -> list:
    """Coefficients [c_0=1, c_1, ..., c_n] of det(x*I - m) ordered from x^n
    down to x^0: Fractions for a RatMatrix, MultiPolys for a PolyMatrix."""
    n = m.rows
    if isinstance(m, PolyMatrix):
        return _symbolic_char_poly(m)
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    ints, d = m._integer_form()
    coeffs = kernel.charpoly_int(ints, n)
    return [Fraction(c, d**k) for k, c in enumerate(coeffs)]


def _symbolic_char_poly(m: PolyMatrix) -> list:
    """The characteristic polynomial of a PolyMatrix, as MultiPolys: the
    entries are brought over one denominator d and their exponent tuples
    packed into ints, and c_k(N / d) = c_k(N) / d^k is read off the integer
    coefficients the kernel returns for the numerator matrix N.

    A field of w bits per variable holds every exponent of every product
    the kernel forms: each is at most n times the largest total degree of
    an entry."""
    n, vs = m.rows, m.variables
    forms = []
    for x in m.entries:
        if isinstance(x, MultiPoly):
            forms.append(x._integer_form())
        else:
            p, q = _ratio(x)
            forms.append(({(0,) * len(vs): p} if p else {}, q))
    d = lcm(*(den for _, den in forms))
    top = max((sum(e) for nums, _ in forms for e in nums), default=0)
    w = (n * top).bit_length()
    shifts = [w * i for i in range(len(vs))]
    place = [1 << b for b in shifts]
    ent = [{sum(map(mul, e, place)): c * (d // den) for e, c in nums.items()}
           for nums, den in forms]
    mask = (1 << w) - 1
    return [_poly(vs, {tuple([p >> b & mask for b in shifts]): c for p, c in ck.items()}, d**k)
            for k, ck in enumerate(kernel.charpoly_generic(ent, n))]


def exterior_traces(m: RatMatrix | PolyMatrix, ks: Sequence[int]) -> tuple:
    """tr(Lambda^k m) for every k in ``ks``, from one characteristic
    polynomial: e_k(eigenvalues) is (-1)^k times the coefficient of x^(n-k);
    exact, symbolic for a PolyMatrix."""
    if m.rows != m.cols:
        raise ValueError("exterior_traces of a non-square matrix")
    n = m.rows
    for k in ks:
        if not 1 <= k <= n:
            raise ValueError(f"exterior power degree {k} out of range 1..{n}")
    coeffs = char_poly_coefficients(m)
    return tuple(-coeffs[k] if k % 2 else coeffs[k] for k in ks)


class SpanSolver:
    """Repeated exact coordinate extraction against a fixed basis.

    Precomputes a row-reduction operator so that each solve is one integer
    matrix-vector product, summed over the operator's columns at the
    vector's non-zero entries, plus a consistency check.  A vector is a
    sequence of scalars or a :class:`RatMatrix`, read row-major.
    """

    def __init__(self, basis_vectors: Sequence[Sequence]):
        cols = [_vector_form(v) for v in basis_vectors]
        if not cols:
            raise ValueError("empty basis")
        m = len(cols[0][0])
        d = len(cols)
        if any(len(nums) != m for nums, _ in cols):
            raise ValueError("basis vectors differ in length")
        # basis matrix B = N / D with one denominator D for all columns
        D = lcm(*(den for _, den in cols))
        scaled = [[x * (D // den) for x in nums] for nums, den in cols]
        # row-reducing [N | D I] to [I_d ; 0 | X] gives X = D P, where P N is
        # the reduced form of N: the coordinates of v are the first d entries
        # of X v, and v is in the span when the others vanish
        numerators = [scaled[j][i] for i in range(m) for j in range(d)]
        red, den, pivots = kernel.rref(_augment(numerators, m, d, D), m, d + m)
        if pivots[:d] != list(range(d)):
            raise ValueError("basis vectors are linearly dependent")
        self.dim = d
        self.length = m
        op = _right_block(red, m, d)
        self._columns = [op[j::m] for j in range(m)]
        self._den = den

    def coordinates(self, vector) -> tuple | None:
        """Coordinates of ``vector`` in the basis, or None if outside the span."""
        nums, dv = _vector_form(vector)
        if len(nums) != self.length:
            raise ValueError("vector length mismatch")
        w = [0] * self.length
        for x, column in zip(nums, self._columns):
            if x:
                w = [a + x * c for a, c in zip(w, column)]
        if any(w[self.dim:]):
            return None
        d = self._den * dv
        return tuple(Fraction(x, d) for x in w[: self.dim])


def _vector_form(vector) -> tuple:
    """Integer numerators and denominator of a rational vector or matrix."""
    form = vector._ints if isinstance(vector, RatMatrix) else _integer_vector(list(vector))
    if form is None:
        raise TypeError("a span needs rational vectors")
    return form
