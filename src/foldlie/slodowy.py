"""Slodowy slices S = x + ker ad_y through subregular nilpotents, their
C*- and finite-order actions, restricted adjoint quotients, and the explicit
slice-to-slice isomorphism Phi of the sp4/sl4 pair with both commuting
squares.

The sp4 slice and the sl4 slice are pinned to the worked matrices
(parameters (v1-, v2-, v1+, v2+) and (u1-, u2-, u3-, u1+, u2+)); the
construction still *computes* ker ad_y and verifies the pinned directions
span it.  The algebraic constants sqrt(2/3) and i that Phi needs are carried
as polynomial variables r, i reduced by r^2 = 2/3 and i^2 = -1, so every
identity stays in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt

from .exactalg import MultiPoly, PolyMatrix, RatMatrix, SpanSolver, nullspace
from .liealg import MatrixLieAlgebra, _E, adjoint_quotient, build_algebra
from .verify import Report


def ad_matrix(alg: MatrixLieAlgebra, m: RatMatrix) -> RatMatrix:
    """ad_m as a dim x dim matrix on basis coordinates."""
    cols = []
    for b in alg.basis:
        c = alg.coords(m.bracket(b))
        if c is None:
            raise ValueError("bracket left the algebra")
        cols.append(c)
    d = alg.dim
    return RatMatrix(d, d, [cols[j][i] for i in range(d) for j in range(d)])


@dataclass
class Sl2Triple:
    algebra: MatrixLieAlgebra
    x: RatMatrix
    y: RatMatrix
    h: RatMatrix

    def verify(self):
        if self.h.bracket(self.x) != self.x.scale(2):
            raise AssertionError("[h,x] != 2x")
        if self.h.bracket(self.y) != self.y.scale(-2):
            raise AssertionError("[h,y] != -2y")
        if self.x.bracket(self.y) != self.h:
            raise AssertionError("[x,y] != h")
        p = self.x
        for _ in range(self.x.rows):
            p = p * self.x
        if not p.is_zero():
            raise AssertionError("x is not nilpotent")

    def centralizer_dimension(self) -> int:
        return len(nullspace(ad_matrix(self.algebra, self.x)))

    def is_subregular(self) -> bool:
        return self.centralizer_dimension() == self.algebra.dtype.rank + 2


@dataclass
class CAction:
    """Finite-order action on a slice: either conjugation by a group element
    (inner) or an explicit algebra automorphism (outer)."""

    kind: str  # "inner" | "outer"
    conjugator: RatMatrix | None
    param_signs: tuple

    def apply_to_matrix(self, m: RatMatrix) -> RatMatrix:
        if self.kind == "inner":
            g = self.conjugator
            return g * m * g.inverse()
        return phi_a_map(m)


def phi_a_map(m: RatMatrix) -> RatMatrix:
    """phi_a: A -> -A~ (negated reflection in the northeast-southwest
    diagonal), the outer automorphism fixing the sl4 triple."""
    n = m.rows
    anti = [[m.entry(n - 1 - j, n - 1 - i) for j in range(n)] for i in range(n)]
    return -RatMatrix.from_rows(anti)


@dataclass
class SlodowySlice:
    triple: Sl2Triple
    directions: list
    cstar_weights: tuple
    caction: CAction | None
    _solver: SpanSolver

    @property
    def base_point(self) -> RatMatrix:
        return self.triple.x

    @property
    def dimension(self) -> int:
        return len(self.directions)

    def matrix_at(self, params) -> RatMatrix | PolyMatrix:
        """x + sum params * directions: a RatMatrix at rational parameters,
        a PolyMatrix when a parameter is a MultiPoly."""
        if len(params) != self.dimension:
            raise ValueError(f"expected {self.dimension} parameters")
        if not any(isinstance(p, MultiPoly) for p in params):
            acc = self.base_point
            for p, d in zip(params, self.directions):
                acc = acc + d.scale(p)
            return acc
        ent = self.base_point.entries
        for p, d in zip(params, self.directions):
            ent = [a + p * b if b else a for a, b in zip(ent, d.entries)]
        return _matrix(ent)

    def params_of(self, m: RatMatrix) -> tuple:
        c = self._solver.coordinates(m - self.base_point)
        if c is None:
            raise ValueError("matrix is not on the slice")
        return c


def _slice_from_directions(triple: Sl2Triple, directions, caction) -> SlodowySlice:
    alg = triple.algebra
    ady = ad_matrix(alg, triple.y)
    kernel_basis = nullspace(ady)
    if len(kernel_basis) != len(directions):
        raise AssertionError(
            f"slice dimension {len(directions)} != dim ker ad_y {len(kernel_basis)}"
        )
    kernel_solver = SpanSolver(kernel_basis)
    weights = []
    for d in directions:
        coords = alg.coords(d)
        if coords is None:
            raise AssertionError("direction is not in the algebra")
        if kernel_solver.coordinates(list(coords)) is None:
            raise AssertionError("direction is not in ker ad_y")
        br = triple.h.bracket(d)
        eig = None
        for b, e in zip(br.entries, d.entries):
            if e != 0:
                eig = b / e
                break
        if eig is None or d.scale(eig) != br:
            raise AssertionError("direction is not an ad_h eigenvector")
        weights.append(2 - eig)
    sl = SlodowySlice(
        triple=triple,
        directions=list(directions),
        cstar_weights=tuple(int(w) for w in weights),
        caction=caction,
        _solver=SpanSolver(directions),
    )
    return sl


def _sp4_data():
    def mat(entries):
        m = [[0] * 4 for _ in range(4)]
        for (i, j), v in entries.items():
            m[i][j] = v
        return RatMatrix.from_rows(m)

    x = mat({(0, 2): 1, (1, 3): 1})
    y = x.transpose()
    h = RatMatrix.diagonal([1, 1, -1, -1])
    directions = [
        mat({(0, 1): 1, (1, 0): -1, (2, 3): 1, (3, 2): -1}),  # v1-
        mat({(2, 0): 1, (3, 1): -1}),                         # v2-
        mat({(2, 1): 1, (3, 0): 1}),                          # v1+
        mat({(2, 0): 1, (3, 1): 1}),                          # v2+
    ]
    conj = RatMatrix.from_rows(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    return x, y, h, directions, conj


def _sl4_appendix_data():
    def mat(rows):
        return RatMatrix.from_rows(rows)

    x = mat([[0, 1, 1, 0], [0, 0, 0, -1], [0, 0, 0, -1], [0, 0, 0, 0]])
    y = x.transpose()
    h = RatMatrix.diagonal([2, 0, 0, -2])
    directions = [
        mat([[1, 0, 0, 0], [0, -1, 2, 0], [0, 2, -1, 0], [0, 0, 0, 1]]),   # u1-
        mat([[0, 0, 0, 0], [-1, 0, 0, 0], [1, 0, 0, 0], [0, 1, -1, 0]]),   # u2-
        mat([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]),     # u3-
        mat([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0]]),    # u1+
        mat([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, -1, 0, 0]]),    # u2+
    ]
    return x, y, h, directions


def build_subregular_slice(alg: MatrixLieAlgebra) -> SlodowySlice:
    """S = x + ker ad_y through a subregular nilpotent.

    sp4 and sl4 use the worked triples (so the returned parametrizations
    match the published matrices verbatim); other sl_n use the Jordan-type
    (n-1, 1) triple.  Inputs with no subregular construction are rejected.
    Built once per algebra and process; the result is shared.
    """
    return _build_subregular_slice(alg)


@cache
def _build_subregular_slice(alg: MatrixLieAlgebra) -> SlodowySlice:
    if alg.family == "sp" and alg.size == 4:
        x, y, h, dirs, conj = _sp4_data()
        triple = Sl2Triple(alg, x, y, h)
        triple.verify()
        if not triple.is_subregular():
            raise AssertionError("sp4 triple is not subregular")
        caction = CAction(kind="inner", conjugator=conj, param_signs=(-1, -1, 1, 1))
        return _slice_from_directions(triple, dirs, caction)
    if alg.family == "sl" and alg.size == 4:
        x, y, h, dirs = _sl4_appendix_data()
        triple = Sl2Triple(alg, x, y, h)
        triple.verify()
        if not triple.is_subregular():
            raise AssertionError("sl4 triple is not subregular")
        caction = CAction(kind="outer", conjugator=None,
                          param_signs=(-1, -1, -1, 1, 1))
        return _slice_from_directions(triple, dirs, caction)
    if alg.family == "sl" and alg.size >= 3:
        n = alg.size
        m = n - 1  # big Jordan block
        x = RatMatrix.zeros(n, n)
        for i in range(m - 1):
            x = x + _E(n, i, i + 1)
        y = RatMatrix.zeros(n, n)
        for i in range(1, m):
            y = y + _E(n, i, i - 1).scale(i * (m - i))
        h = RatMatrix.diagonal([m - 1 - 2 * i for i in range(m)] + [0])
        triple = Sl2Triple(alg, x, y, h)
        triple.verify()
        if not triple.is_subregular():
            raise AssertionError("Jordan-type (n-1,1) triple is not subregular")
        ady = ad_matrix(alg, y)
        dirs = [alg.from_coords(v.col(0)) for v in nullspace(ady)]
        return _slice_from_directions(triple, dirs, None)
    raise ValueError(
        f"no subregular slice construction for {alg.family}_{alg.size}"
    )


# -- slice operations ---------------------------------------------------------------


def slice_quotient(sl: SlodowySlice, params) -> tuple:
    """xi o chi at x + sum params * directions, via the adjoint quotient."""
    m = sl.matrix_at(params)
    return adjoint_quotient(sl.triple.algebra, m).values


def cstar_action(sl: SlodowySlice, lam, params) -> tuple:
    """lambda . v = lambda^2 Ad_{exp(-t h)}(v) acts on slice parameters by
    the stored weights."""
    lam = Fraction(lam) if not isinstance(lam, MultiPoly) else lam
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    return tuple(p * lam**w for p, w in zip(params, sl.cstar_weights))


def c_action_on_slice(sl: SlodowySlice, params) -> tuple:
    """The finite-order action on slice parameters, computed by applying the
    stored realization (conjugation or phi_a) to the slice matrix and
    re-reading the parameters; verified to be the sign pattern."""
    if sl.caction is None:
        raise ValueError("slice carries no finite-order action data")
    img = sl.caction.apply_to_matrix(sl.matrix_at(params))
    out = sl.params_of(img)
    expected = tuple(s * p for s, p in zip(sl.caction.param_signs, params))
    if out != expected:
        raise AssertionError("action did not induce the documented sign pattern")
    return out


def sp4_centralizer_representatives() -> list[RatMatrix]:
    """Representatives of C(x,y) = {blockdiag(K, K) : K K^T = 1} for the sp4
    triple: one per connected component plus a non-trivial rotation."""
    def blockdiag(k):
        rows = [[k[0][0], k[0][1], 0, 0], [k[1][0], k[1][1], 0, 0],
                [0, 0, k[0][0], k[0][1]], [0, 0, k[1][0], k[1][1]]]
        return RatMatrix.from_rows(rows)

    rot = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]]
    return [
        blockdiag([[1, 0], [0, 1]]),
        blockdiag(rot),
        blockdiag([[0, 1], [1, 0]]),
        blockdiag([[Fraction(4, 5), Fraction(3, 5)], [Fraction(3, 5), Fraction(-4, 5)]]),
    ]


def appendix_mm_matrix(m) -> RatMatrix:
    """The one-parameter family M_m whose adjoint action fixes the sl4
    triple; together with Ad_{M_m} o phi_a it exhausts the automorphisms
    fixing (x_h, y_h)."""
    m = Fraction(m)
    if m == 0:
        raise ValueError("m must be nonzero")
    p = (m + m**-3) / 2
    q = (m - m**-3) / 2
    return RatMatrix.from_rows(
        [[m, 0, 0, 0], [0, p, q, 0], [0, q, p, 0], [0, 0, 0, m]]
    )


# -- Appendix A: Phi and the commuting squares ------------------------------------------


PHI_VARS = ("v1m", "v2m", "v1p", "v2p", "i", "r")


def _reduce_tower(p: MultiPoly) -> MultiPoly:
    p = p.reduce_square("i", Fraction(-1))
    return p.reduce_square("r", Fraction(2, 3))


def _poly(name):
    return MultiPoly.var(PHI_VARS, name)


def phi_parameters(v1m, v2m, v1p, v2p):
    """Phi in slice parameters: (u1-, u2-, u1+, u2+) of the image point,
    over the ring with r^2 = 2/3 and i^2 = -1.  The inputs may live in any
    variable tuple containing the symbols i and r."""
    ring_vars = v1m.variables
    sym_i = MultiPoly.var(ring_vars, "i")
    sym_r = MultiPoly.var(ring_vars, "r")
    half = Fraction(1, 2)
    u1m = sym_r * v1m
    u2m = sym_i * v2m * Fraction(3, 2)
    u1p = v1m**2 * half + (v1p - v2p) * Fraction(3, 2)
    u2p = v1m**2 * half - (v1p + v2p) * Fraction(3, 2)
    return u1m, u2m, u1p, u2p


def sh_fixed_base_matrix(u1m, u2m, u1p, u2p) -> RatMatrix | PolyMatrix:
    """The s_h parametrization of chi_h^{-1}((t_h/W_h)^C): the slice matrix
    with u3- = -4 u1-^3 + 2 u1- (u1+ + u2+)."""
    u3m = u1m**3 * (-4) + u1m * (u1p + u2p) * 2
    return sh_matrix(u1m, u2m, u3m, u1p, u2p)


def sh_matrix(u1m, u2m, u3m, u1p, u2p) -> RatMatrix | PolyMatrix:
    """The sl4 slice matrix at (u1-, u2-, u3-, u1+, u2+)."""
    return _matrix([
        u1m, 1, 1, 0,
        u1p - u2m, -u1m, u1m * 2, -1,
        u2p + u2m, u1m * 2, -u1m, -1,
        u3m, u2m - u2p, -u1p - u2m, u1m,
    ])


def s_matrix(v1m, v2m, v1p, v2p) -> RatMatrix | PolyMatrix:
    """The sp4 slice matrix at (v1-, v2-, v1+, v2+)."""
    return _matrix([
        0, v1m, 1, 0,
        -v1m, 0, 0, 1,
        v2p + v2m, v1p, 0, v1m,
        v1p, v2p - v2m, -v1m, 0,
    ])


def _matrix(entries) -> RatMatrix | PolyMatrix:
    """The square matrix with these row-major entries: a PolyMatrix when
    one is a MultiPoly, else a RatMatrix."""
    n = isqrt(len(entries))
    if any(isinstance(x, MultiPoly) for x in entries):
        return PolyMatrix([entries[i:i + n] for i in range(0, n * n, n)])
    return RatMatrix(n, n, entries)


def xi_tilde_h(b2h, b4h):
    """Rescaled base coordinates on (t_h/W_h)^C: (-b2/6, -b4)."""
    return (-b2h * Fraction(1, 6), -b4h)


def xi_tilde(b2, b4):
    """Rescaled base coordinates on t/W: (b2/2, 9(b4 - b2^2/4))."""
    return (b2 * Fraction(1, 2), (b4 - b2 * b2 * Fraction(1, 4)) * 9)


def phi_psi_square_check(sample_count: int = 100, seed: int = 42) -> Report:
    """The commuting square: xi~_h o chi_h o Phi = xi~ o chi as polynomials
    over the Q(i, r)-tower with all final coefficients rational, plus exact
    point checks and C- / C*-equivariance of Phi."""
    import random

    report = Report("appendix-phi-psi")
    sl4 = build_algebra("sl", 4)
    sp4 = build_algebra("sp", 4)
    v = [_poly(n) for n in ("v1m", "v2m", "v1p", "v2p")]

    u = phi_parameters(*v)
    mh = sh_fixed_base_matrix(*u)
    b2h, b3h, b4h = (
        _reduce_tower(x) for x in adjoint_quotient(sl4, mh).values
    )
    ms = s_matrix(*v)
    b2, b4 = adjoint_quotient(sp4, ms).values
    lhs = tuple(_reduce_tower(x) for x in xi_tilde_h(b2h, b4h))
    rhs = tuple(_reduce_tower(x) for x in xi_tilde(b2, b4))

    report.cases_run += 4
    if not b3h.is_zero():
        report.fail("sigma_3-coordinate on the image of Phi", "0", b3h)
    for k, (left, right) in enumerate(zip(lhs, rhs)):
        if left != right:
            report.fail(f"square coordinate {k}", right, left)
        if left.depends_on("i") or left.depends_on("r"):
            report.fail(f"coordinate {k} rationality", "coefficients in Q", left)

    # C-equivariance: Phi(-v1m, -v2m, v1p, v2p) = sign-flip of Phi(v)
    flipped = phi_parameters(-v[0], -v[1], v[2], v[3])
    signs = (-1, -1, 1, 1)
    report.expect(all(_reduce_tower(a) == _reduce_tower(b * s)
                      for a, b, s in zip(flipped, u, signs)),
                  "C-equivariance of Phi", "sign flip of minus-parameters", "mismatch")

    # C*-equivariance with a formal lambda
    lvars = PHI_VARS + ("lam",)
    lam = MultiPoly.var(lvars, "lam")
    vl = [MultiPoly.var(lvars, n) for n in ("v1m", "v2m", "v1p", "v2p")]
    # phi_parameters reads i and r from the extended ring via the inputs
    scaled_v = [vl[0] * lam**2, vl[1] * lam**4, vl[2] * lam**4, vl[3] * lam**4]
    phi_of_scaled = phi_parameters(*scaled_v)
    u_l = phi_parameters(*vl)
    target = [u_l[0] * lam**2, u_l[1] * lam**4, u_l[2] * lam**4, u_l[3] * lam**4]

    def red(p):
        p = p.reduce_square("i", Fraction(-1))
        return p.reduce_square("r", Fraction(2, 3))

    report.expect(all(red(a) == red(b) for a, b in zip(phi_of_scaled, target)),
                  "C*-equivariance of Phi", "weights (2,4,4,4) on parameters", "mismatch")

    rng = random.Random(seed)
    for case in range(sample_count):
        report.cases_run += 1
        pt = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
              for n in ("v1m", "v2m", "v1p", "v2p")}
        pt["i"] = Fraction(0)  # placeholders; i, r never survive reduction
        pt["r"] = Fraction(0)
        lv = tuple(x.evaluate(pt) for x in lhs)
        rv = tuple(x.evaluate(pt) for x in rhs)
        if lv != rv:
            report.fail(f"point check {case}: {pt}", rv, lv)
    return report


# -- Appendix A: the unfolding normal form ----------------------------------------------


UNFOLD_VARS = ("u1m", "u2m", "u3m", "u1p", "u2p")


def unfolding_coordinates(params) -> tuple:
    """(x, y, z, b2, b3, b4) from the 5 slice parameters:
    (x, y, z) = (3 u1-, u1+ - u2+ + 2 u2-, u1+ - u2+ - 2 u2-) and
    (b2, b3, b4) = xi_h o chi_h of the slice point."""
    if len(params) != 5:
        raise ValueError("expected the 5 sl4 slice parameters")
    u1m, u2m, u3m, u1p, u2p = params
    x = u1m * 3
    y = u1p - u2p + u2m * 2
    z = u1p - u2p - u2m * 2
    sl4 = build_algebra("sl", 4)
    b2, b3, b4 = adjoint_quotient(sl4, sh_matrix(u1m, u2m, u3m, u1p, u2p)).values
    return (x, y, z, b2, b3, b4)


def unfolding_residual() -> MultiPoly:
    """The symbolic residual b4 + x^4 + b2 x^2 + b3 x - y z, identically zero
    when the slice lands in the published normal form."""
    u = [MultiPoly.var(UNFOLD_VARS, n) for n in UNFOLD_VARS]
    x, y, z, b2, b3, b4 = unfolding_coordinates(u)
    return b4 + x**4 + b2 * x**2 + b3 * x - y * z


def unfolding_equivariance_check() -> Report:
    """The coordinate change is C-equivariant ((x,y,z,b2,b3,b4) ->
    (-x,z,y,b2,-b3,b4) under the sign flip of the minus parameters) and
    C*-equivariant with doubled weights."""
    report = Report("unfolding-equivariance")
    u = [MultiPoly.var(UNFOLD_VARS, n) for n in UNFOLD_VARS]
    out = unfolding_coordinates(u)
    flip = unfolding_coordinates([-u[0], -u[1], -u[2], u[3], u[4]])
    expected = (-out[0], out[2], out[1], out[3], -out[4], out[5])
    report.expect(tuple(flip) == expected, "C-equivariance of the coordinate change",
                  "(-x, z, y, b2, -b3, b4)", "mismatch")
    lvars = UNFOLD_VARS + ("lam",)
    lam = MultiPoly.var(lvars, "lam")
    ul = [MultiPoly.var(lvars, n) for n in UNFOLD_VARS]
    pw = (2, 4, 6, 4, 4)
    scaled = [p * lam**w for p, w in zip(ul, pw)]
    out_scaled = unfolding_coordinates(scaled)
    out_plain = unfolding_coordinates(ul)
    weights = (2, 4, 4, 4, 6, 8)  # x, y, z, b2, b3, b4
    report.expect(all(a == b * lam**w for a, b, w in zip(out_scaled, out_plain, weights)),
                  "C*-equivariance of the coordinate change", f"weights {weights}",
                  "mismatch")
    residual = unfolding_residual()
    report.expect(residual.is_zero(), "normal form residual", "0", residual)
    return report


# -- fixed-locus finiteness over the base -----------------------------------------------


def sp4_fixed_locus_fiber(b2: Fraction, b4: Fraction) -> list[tuple]:
    """Rational points of the fixed locus S^C over (b2, b4): the quotient
    restricted to v1- = v2- = 0 forces v2+ = -b2/2 and v1+^2 = b2^2/4 - b4,
    so the fiber has at most two rational points (and at most four
    geometric ones)."""
    v2p = -Fraction(b2) / 2
    rhs = Fraction(b2) ** 2 / 4 - Fraction(b4)
    points = []
    if rhs == 0:
        points.append((Fraction(0), Fraction(0), Fraction(0), v2p))
    elif rhs > 0:
        num, den = rhs.numerator, rhs.denominator
        root = _exact_sqrt(num * den)
        if root is not None:
            v1p = Fraction(root, den)
            points.append((Fraction(0), Fraction(0), v1p, v2p))
            points.append((Fraction(0), Fraction(0), -v1p, v2p))
    return points


def sp4_fixed_locus_relations() -> tuple[MultiPoly, MultiPoly]:
    """Symbolic elimination on S^C: chi_1 + 2 v2+ and
    chi_2 - (v2+^2 - v1+^2) both vanish identically (v1- = v2- = 0)."""
    names = ("v1p", "v2p")
    v1p, v2p = (MultiPoly.var(names, n) for n in names)
    zero = MultiPoly.zero(names)
    sp4 = build_algebra("sp", 4)
    sl = build_subregular_slice(sp4)
    chi1, chi2 = slice_quotient(sl, (zero, zero, v1p, v2p))
    return (chi1 + v2p * 2, chi2 - (v2p**2 - v1p**2))


def _exact_sqrt(n: int):
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None
