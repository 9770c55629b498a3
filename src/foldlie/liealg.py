"""Matrix realizations of classical simple Lie algebras, Chevalley-basis
lifts of graph automorphisms, fixed subalgebras under folding, the averaging
projection, and adjoint quotients.

Chevalley bases are generated from explicit simple root vectors by
bracketing, normalized against structure constants built from a bilinear
sign form on the root lattice whose defining edge orientation is invariant
under the diagram automorphism (all edges point toward the graph center).
Every structure constant is then *measured* from the matrices and checked
against the table, so sign conventions are verified facts, not assumptions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import factorial, lcm

from . import kernel
from .exactalg import (
    MultiPoly,
    PolyMatrix,
    RatMatrix,
    SpanSolver,
    _integer_vector,
    exterior_traces,
)
from .rootsys import (
    DynkinType,
    FoldingDatum,
    GraphAut,
    RootSystem,
    build_root_system,
    permutation_cycles,
    permutation_order,
)
from .verify import Report


def _E(n: int, i: int, j: int) -> RatMatrix:
    ent = [Fraction(0)] * (n * n)
    ent[i * n + j] = Fraction(1)
    return RatMatrix(n, n, ent)


def _integer_basis(matrices) -> tuple:
    """Square rational matrices as sparse integer numerators over one common
    denominator: ``(size, terms, d)`` with ``terms[k]`` the (position,
    numerator) pairs of matrix k."""
    forms = [m._integer_form() for m in matrices]
    d = lcm(*(den for _, den in forms))
    terms = [[(p, x * (d // den)) for p, x in enumerate(nums) if x] for nums, den in forms]
    return matrices[0].rows, terms, d


def _combination(basis: tuple, coeffs) -> list:
    """The flat entries of sum_k coeffs[k] N_k, where N_k are the integer
    numerators of a basis from :func:`_integer_basis` (so the combination
    of the basis matrices is this over the basis denominator).  The
    coefficients may be ints, Fractions or MultiPolys (the symbolic
    coordinates of a PolyMatrix)."""
    size, terms, _ = basis
    acc = [0] * (size * size)
    for c, term in zip(coeffs, terms):
        if isinstance(c, MultiPoly) or c:
            for p, x in term:
                acc[p] += c * x
    return acc


def _linear_combination(basis: tuple, numerators, d: int = 1) -> RatMatrix:
    """sum_k (numerators[k] / d) B_k as one integer linear combination."""
    size, _, den = basis
    return RatMatrix.from_integers(size, size, _combination(basis, numerators), d * den)


def _from_coefficients(basis: tuple, coeffs) -> RatMatrix:
    """sum_k coeffs[k] B_k for rational coefficients."""
    form = _integer_vector(coeffs)
    if form is None:
        raise TypeError("coordinates must be ints or Fractions")
    return _linear_combination(basis, *form)


class MatrixLieAlgebra:
    """A classical simple Lie algebra of n x n matrices with an explicit
    basis; coordinates are exact and membership is checked by
    reconstruction."""

    def __init__(self, family: str, size: int):
        self.family = family
        self.size = size
        if family == "sl":
            if size < 2:
                raise ValueError("sl_n needs n >= 2")
            self.dtype = DynkinType("A", size - 1)
        elif family == "sp":
            if size < 4 or size % 2:
                raise ValueError("sp_2n needs even size >= 4")
            n = size // 2
            self.dtype = DynkinType("C", n) if n >= 2 else DynkinType("A", 1)
        elif family == "so":
            if size < 5:
                raise ValueError("so_n implemented for n >= 5")
            if size % 2 == 0 and size < 8:
                raise ValueError("even so_n implemented for n >= 8")
            n = size // 2
            self.dtype = DynkinType("B", n) if size % 2 else DynkinType("D", n)
        else:
            raise ValueError(f"unknown family {family!r}")
        self.basis, self.cartan_indices, self._pivots = self._build_basis()
        self._int_basis = _integer_basis(self.basis)
        self.dim = len(self.basis)
        self._check_dimension()

    # -- family data --------------------------------------------------------
    def _build_basis(self):
        n = self.size
        basis, cartan_idx, pivots = [], [], []
        if self.family == "sl":
            for i in range(n - 1):
                cartan_idx.append(len(basis))
                basis.append(_E(n, i, i) - _E(n, i + 1, i + 1))
                pivots.append(None)  # cartan coords handled separately
            for i in range(n):
                for j in range(n):
                    if i != j:
                        pivots.append((i, j))
                        basis.append(_E(n, i, j))
        elif self.family == "sp":
            h = n // 2
            for i in range(h):
                cartan_idx.append(len(basis))
                basis.append(_E(n, i, i) - _E(n, h + i, h + i))
                pivots.append((i, i))
            for i in range(h):
                for j in range(h):
                    if i != j:
                        pivots.append((i, j))
                        basis.append(_E(n, i, j) - _E(n, h + j, h + i))
            for i in range(h):
                pivots.append((i, h + i))
                basis.append(_E(n, i, h + i))
            for i in range(h):
                for j in range(i + 1, h):
                    pivots.append((i, h + j))
                    basis.append(_E(n, i, h + j) + _E(n, j, h + i))
            for i in range(h):
                pivots.append((h + i, i))
                basis.append(_E(n, h + i, i))
            for i in range(h):
                for j in range(i + 1, h):
                    pivots.append((h + i, j))
                    basis.append(_E(n, h + i, j) + _E(n, h + j, i))
        else:  # so, antidiagonal form: A[i][j] = -A[n-1-j][n-1-i] (0-based)
            for i in range(n // 2):
                cartan_idx.append(len(basis))
                basis.append(_E(n, i, i) - _E(n, n - 1 - i, n - 1 - i))
                pivots.append((i, i))
            for i in range(n):
                for j in range(n):
                    mi, mj = n - 1 - j, n - 1 - i
                    if (i, j) == (mi, mj) or i == j:
                        continue
                    if (i, j) < (mi, mj):
                        pivots.append((i, j))
                        basis.append(_E(n, i, j) - _E(n, mi, mj))
        return basis, cartan_idx, pivots

    def _check_dimension(self):
        n = self.size
        expected = {
            "sl": n * n - 1,
            "sp": (n // 2) * (n + 1),
            "so": n * (n - 1) // 2,
        }[self.family]
        if self.dim != expected:
            raise AssertionError(f"dimension {self.dim} != classical {expected}")

    # -- coordinates ----------------------------------------------------------
    def coords(self, m: RatMatrix | PolyMatrix):
        """Coordinates in the basis, or None if m is not in the algebra."""
        found = self._coords(m)
        if found is None:
            return None
        out, d = found
        return tuple(out) if d is None else tuple(Fraction(x, d) for x in out)

    def _coords(self, m: RatMatrix | PolyMatrix):
        """(coordinates, d), or None if m is not in the algebra: integer
        numerators over d for a RatMatrix, and d = None with polynomial
        coordinates for a PolyMatrix.

        The coordinates are read off the pivot entries and m is a member
        exactly when the basis combination with them reconstructs m.  For a
        RatMatrix both steps run on its integer numerators; for a PolyMatrix
        the same sparse combination runs on the polynomial coordinates and
        is compared with the entries."""
        if m.rows != self.size or m.cols != self.size:
            return None
        symbolic = isinstance(m, PolyMatrix)
        ent, d = (m.entries, None) if symbolic else m._integer_form()
        n = self.size
        out = []
        pivots = self._pivots
        if self.family == "sl":
            partial = 0
            for k in range(len(self.cartan_indices)):
                partial = partial + ent[k * n + k]
                out.append(partial)
            pivots = pivots[len(self.cartan_indices):]
        out.extend(ent[i * n + j] for i, j in pivots)
        if symbolic:
            den = self._int_basis[2]
            target = ent if den == 1 else [x * den for x in ent]
            got = _combination(self._int_basis, out)
            return (out, None) if all(a == b for a, b in zip(got, target)) else None
        if _linear_combination(self._int_basis, out, d) != m:
            return None
        return out, d

    def contains(self, m: RatMatrix) -> bool:
        return self.coords(m) is not None

    def from_coords(self, coords) -> RatMatrix:
        return _from_coefficients(self._int_basis, coords)


def build_algebra(family: str, size: int) -> MatrixLieAlgebra:
    """Spec operation: a classical matrix Lie algebra (``size`` is the matrix
    size, e.g. build_algebra('sp', 4) is 4x4 = sp_4).  For sp_4 the standard
    symplectic form coincides with the block convention of the worked
    example: {(a, b; c, -a^T) : b, c symmetric}.  Built once per (family,
    size) and process; the result is shared and must not be mutated."""
    return _build_algebra(family, size)


@cache
def _build_algebra(family: str, size: int) -> MatrixLieAlgebra:
    return MatrixLieAlgebra(family, size)


# -- Chevalley bases -------------------------------------------------------------


class _EpsilonForm:
    """Bilinear sign form on the root lattice of a simply-laced system with
    an automorphism-invariant edge orientation (edges point toward the graph
    center), giving structure constants with c(a.alpha, a.beta) = c(alpha, beta)."""

    def __init__(self, rs: RootSystem):
        n = rs.rank
        C = rs.cartan_matrix()
        adj = {i: [j for j in range(n) if j != i and C[i][j] != 0] for i in range(n)}
        center = next((i for i in range(n) if len(adj[i]) >= 3), None)
        if center is None:
            ends = [i for i in range(n) if len(adj[i]) <= 1]
            path = [ends[0]] if ends else [0]
            while len(path) < n:
                nxt = [j for j in adj[path[-1]] if j not in path]
                path.append(nxt[0])
            center = path[(n - 1) // 2]
        dist = {center: 0}
        frontier = [center]
        while frontier:
            nf = []
            for i in frontier:
                for j in adj[i]:
                    if j not in dist:
                        dist[j] = dist[i] + 1
                        nf.append(j)
            frontier = nf
        self.neg_pairs = {(i, i) for i in range(n)}
        for i in range(n):
            for j in adj[i]:
                if dist[i] > dist[j] or (dist[i] == dist[j] and i < j):
                    self.neg_pairs.add((i, j))

    def sign(self, m, k) -> int:
        parity = 0
        for (i, j) in self.neg_pairs:
            parity += m[i] * k[j]
        return -1 if parity % 2 else 1


@dataclass
class ChevalleyData:
    """A verified Chevalley basis inside a matrix algebra: root vectors
    e_alpha keyed by the root's weight coordinates, simple coroot matrices,
    and the coordinate system [h_1..h_r, e_alpha...]."""

    algebra: MatrixLieAlgebra
    root_system: RootSystem
    root_vectors: dict
    basis_keys: list
    basis_matrices: list
    constants: dict
    _chev_from_family: RatMatrix

    def chev_coords(self, m: RatMatrix):
        """Chevalley coordinates of m, or None if m is not in the algebra.
        The integer coordinates of m go straight through the integer form
        of the change of basis: one Fraction per output."""
        found = self.algebra._coords(m)
        if found is None:
            return None
        fam, d = found
        nums, den = self._chev_from_family._integer_form()
        d *= den
        return tuple(Fraction(x, d) for x in kernel.mat_vec(nums, fam, len(fam), len(fam)))

    def from_chev_coords(self, coords) -> RatMatrix:
        return _from_coefficients(self._int_basis, coords)

    @cached_property
    def _int_basis(self) -> tuple:
        return _integer_basis(self.basis_matrices)

    def to_json(self) -> dict:
        """The basis as ``["h", i]`` and ``["e", root]``, and the structure
        constants as a sorted list of ``[alpha, beta, c]``: roots as lists
        of integer weight coordinates, c an int."""
        return {
            "type": str(self.root_system.dtype),
            "basis": [[kind, list(key) if kind == "e" else key]
                      for kind, key in self.basis_keys],
            "constants": [[list(a), list(b), int(c)]
                          for (a, b), c in sorted(self.constants.items())],
        }


def _simple_triples(alg: MatrixLieAlgebra):
    """Explicit matrices (e_i, f_i, h_i) per simple root.  sl_4 uses the
    signed basis of the worked example (e_3 = -E_34, e_{-alpha} = e_alpha^T)."""
    n = alg.size
    if alg.family == "sl":
        es = [_E(n, i, i + 1) for i in range(n - 1)]
        if n == 4:
            es[2] = -es[2]
        fs = [e.transpose() for e in es]
        hs = [_E(n, i, i) - _E(n, i + 1, i + 1) for i in range(n - 1)]
        return es, fs, hs
    if alg.family == "so" and n % 2 == 0:
        h = n // 2

        def F(i, j):
            return _E(n, i, j) - _E(n, n - 1 - j, n - 1 - i)

        es = [F(i, i + 1) for i in range(h - 1)]
        es.append(F(h - 2, h))  # root e_{h-1} + e_h (0-indexed rows h-2, h)
        fs = [e.transpose() for e in es]
        hs = [alg.basis[alg.cartan_indices[i]] - alg.basis[alg.cartan_indices[i + 1]]
              for i in range(h - 1)]
        hs.append(alg.basis[alg.cartan_indices[h - 2]] + alg.basis[alg.cartan_indices[h - 1]])
        return es, fs, hs
    raise ValueError("Chevalley bases are built for the simply-laced families sl_n, so_2n")


def build_chevalley(alg: MatrixLieAlgebra) -> ChevalleyData:
    """Generate a Chevalley basis from explicit simple triples and verify
    every structure constant: [e_a, e_-a] = h_a with a(h_a) = 2, integer
    constants with c(-a,-b) = -c(a,b), and invariance under the diagram
    automorphism's root permutation."""
    rs = build_root_system(alg.dtype)
    eps = _EpsilonForm(rs)
    coords = rs.simple_coordinates()
    sigma = {r: (1 if all(c >= 0 for c in coords[r]) else -1) for r in rs.all_roots}

    def c_abs(a, b):
        s = eps.sign(coords[a], coords[b])
        return Fraction(s * sigma[a] * sigma[b] * sigma[tuple(x + y for x, y in zip(a, b))])

    es, fs, hs = _simple_triples(alg)
    root_set = set(rs.all_roots)
    simple = rs.simple_roots
    vectors = {}
    for i, s in enumerate(simple):
        vectors[s] = es[i]
        vectors[tuple(-x for x in s)] = fs[i]

    positives = sorted(rs.positive_roots(), key=lambda r: sum(coords[r]))
    for gamma in positives:
        if gamma in vectors:
            continue
        m = coords[gamma]
        for i, s in enumerate(simple):
            rest = tuple(x - y for x, y in zip(gamma, s))
            if rest in root_set and all(c >= 0 for c in coords[rest]) and rest in vectors:
                c = c_abs(s, rest)
                vectors[gamma] = vectors[s].bracket(vectors[rest]).scale(1 / c)
                neg_s = tuple(-x for x in s)
                neg_rest = tuple(-x for x in rest)
                cneg = c_abs(neg_s, neg_rest)
                vectors[tuple(-x for x in gamma)] = (
                    vectors[neg_s].bracket(vectors[neg_rest]).scale(1 / cneg)
                )
                break
        else:
            raise AssertionError("no simple summand found for a positive root")

    # full verification of the structure constants
    constants = {}
    r = rs.rank
    for a in rs.all_roots:
        ea = vectors[a]
        # root-space property under the Cartan
        for i in range(r):
            expected = ea.scale(a[i])
            if hs[i].bracket(ea) != expected:
                raise AssertionError("Cartan action disagrees with weight coordinates")
        for b in rs.all_roots:
            br = vectors[a].bracket(vectors[b])
            s = tuple(x + y for x, y in zip(a, b))
            if all(x == 0 for x in s):
                h_a = RatMatrix.zeros(alg.size, alg.size)
                for mi, h in zip(coords[a], hs):
                    h_a = h_a + h.scale(mi)
                if br != h_a:
                    raise AssertionError("[e_a, e_{-a}] != h_a")
            elif s in root_set:
                c = c_abs(a, b)
                if br != vectors[s].scale(c):
                    raise AssertionError("structure constant mismatch with the sign form")
                constants[(a, b)] = c
            else:
                if not br.is_zero():
                    raise AssertionError("non-zero bracket outside the root system")
    for (a, b), c in constants.items():
        na, nb = tuple(-x for x in a), tuple(-x for x in b)
        if constants[(na, nb)] != -c:
            raise AssertionError("antisymmetry c(-a,-b) = -c(a,b) fails")
        if c.denominator != 1:
            raise AssertionError("non-integral structure constant")

    basis_keys = [("h", i) for i in range(r)] + [("e", a) for a in rs.all_roots]
    basis_matrices = list(hs) + [vectors[a] for a in rs.all_roots]
    fam_cols = [alg.coords(b) for b in basis_matrices]
    if any(c is None for c in fam_cols):
        raise AssertionError("Chevalley vector escaped the algebra")
    M = RatMatrix(alg.dim, alg.dim,
                  [fam_cols[j][i] for i in range(alg.dim) for j in range(alg.dim)])
    return ChevalleyData(
        algebra=alg,
        root_system=rs,
        root_vectors=vectors,
        basis_keys=basis_keys,
        basis_matrices=basis_matrices,
        constants=constants,
        _chev_from_family=M.inverse(),
    )


# -- automorphism lifts ------------------------------------------------------------


@dataclass
class LieAut:
    """An automorphism given by its permutation of the Chevalley basis; the
    matrix form acts on Chevalley coordinates."""

    cd: ChevalleyData
    perm: tuple
    order: int
    matrix: RatMatrix

    def apply(self, m: RatMatrix) -> RatMatrix:
        coords = self.cd.chev_coords(m)
        if coords is None:
            raise ValueError("matrix is not in the algebra")
        out = [Fraction(0)] * len(coords)
        for i, c in enumerate(coords):
            out[self.perm[i]] = c
        return self.cd.from_chev_coords(out)


def lift_graph_aut(cd: ChevalleyData, a: GraphAut) -> LieAut:
    """Lift a diagram automorphism to the algebra by e_alpha -> e_{a.alpha},
    h_i -> h_{p(i)}; verified to preserve every bracket of basis elements."""
    rs = cd.root_system
    if not rs.dtype.is_simply_laced:
        raise ValueError("lift requires a simply-laced algebra")
    a.validate_on(rs)
    r = rs.rank
    key_index = {k: i for i, k in enumerate(cd.basis_keys)}
    perm = [None] * len(cd.basis_keys)
    for i, key in enumerate(cd.basis_keys):
        if key[0] == "h":
            perm[i] = key_index[("h", a.permutation[key[1]])]
        else:
            img = a.apply_to_weight_coords(key[1])
            perm[i] = key_index[("e", img)]
    perm = tuple(perm)

    if permutation_order(perm) != a.order:
        raise AssertionError("lift order differs from the automorphism order")

    # bracket preservation on all basis pairs reduces to invariance of the
    # verified structure constants under the root permutation
    cons = cd.constants
    for (al, be), c in cons.items():
        ima = a.apply_to_weight_coords(al)
        imb = a.apply_to_weight_coords(be)
        if cons[(ima, imb)] != c:
            raise AssertionError("structure constants are not automorphism-invariant")
    n = len(perm)
    ent = [Fraction(0)] * (n * n)
    for i in range(n):
        ent[perm[i] * n + i] = Fraction(1)
    return LieAut(cd=cd, perm=perm, order=a.order, matrix=RatMatrix(n, n, ent))


def verify_bracket_preservation(aut: LieAut) -> bool:
    """Direct check [phi(x), phi(y)] = phi([x, y]) on all basis pairs."""
    cd = aut.cd
    mats = cd.basis_matrices
    images = [aut.apply(m) for m in mats]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            left = images[i].bracket(images[j])
            right = aut.apply(mats[i].bracket(mats[j]))
            if left != right:
                return False
    return True


def clift_map(m: RatMatrix) -> RatMatrix:
    """The explicit outer automorphism of sl_4 from the worked example:
    A -> diag(1,1,-1,-1) * A~ * diag(-1,-1,1,1), with A~ the reflection of A
    in the northeast-southwest diagonal."""
    n = 4
    anti = [[m.entry(n - 1 - j, n - 1 - i) for j in range(n)] for i in range(n)]
    d1 = RatMatrix.diagonal([1, 1, -1, -1])
    d2 = RatMatrix.diagonal([-1, -1, 1, 1])
    return d1 * RatMatrix.from_rows(anti) * d2


# -- fixed subalgebras ----------------------------------------------------------------


@dataclass
class FixedSubalgebra:
    """g_h^C: basis matrices, the fixed Cartan, and the verified folded
    root-space decomposition."""

    basis: list
    cartan_basis: list
    root_space_weights: list
    dimension: int


def fixed_subalgebra(cd: ChevalleyData, aut: LieAut) -> FixedSubalgebra:
    """Compute g_h^C from the basis permutation (orbit sums), verify bracket
    closure, and verify the folded root-space decomposition: the fixed
    Cartan has the folded rank and every root space is one-dimensional with
    a distinct weight functional."""
    keys = cd.basis_keys
    basis = []
    cartan_basis = []
    e_sums = []
    for orbit in permutation_cycles(aut.perm):
        acc = cd.basis_matrices[orbit[0]]
        for k in orbit[1:]:
            acc = acc + cd.basis_matrices[k]
        basis.append(acc)
        if keys[orbit[0]][0] == "h":
            cartan_basis.append(acc)
        else:
            e_sums.append(acc)

    solver = SpanSolver(basis)
    for i, x in enumerate(basis):
        for y in basis[i:]:
            if solver.coordinates(x.bracket(y)) is None:
                raise AssertionError("fixed subspace is not closed under bracket")

    # root-space decomposition relative to the fixed Cartan
    weights = []
    for mat in e_sums:
        lam = tuple(ad_eigenvalue(h, mat) for h in cartan_basis)
        if None in lam:
            raise AssertionError("fixed vector is not a Cartan eigenvector")
        weights.append(lam)
    if len(set(weights)) != len(weights):
        raise AssertionError("root spaces of the fixed subalgebra are not 1-dimensional")
    return FixedSubalgebra(
        basis=basis,
        cartan_basis=cartan_basis,
        root_space_weights=weights,
        dimension=len(basis),
    )


def ad_eigenvalue(h: RatMatrix, x: RatMatrix) -> Fraction | None:
    """The c with [h, x] = c x, read off the first non-zero entry of x;
    None if x is zero or not an eigenvector of ad_h."""
    br = h.bracket(x)
    c = next((b / e for b, e in zip(br.entries, x.entries) if e), None)
    return c if c is not None and x.scale(c) == br else None


def averaging_projection(cd: ChevalleyData, aut: LieAut, xi: RatMatrix) -> RatMatrix:
    """p(xi) = (1/|a|) sum_k a^k(xi): the equivariant projection onto the
    fixed subalgebra."""
    acc = xi
    cur = xi
    for _ in range(aut.order - 1):
        cur = aut.apply(cur)
        acc = acc + cur
    return acc.scale(Fraction(1, aut.order))


def sp4_from_fixed_sl4(m: RatMatrix) -> RatMatrix:
    """The explicit isomorphism sl_4^C -> sp_4: conjugation by the
    permutation matrix of the transposition (1,2)."""
    p = RatMatrix.from_rows([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    return p * m * p


# -- adjoint quotients -----------------------------------------------------------------


def adjoint_quotient(alg: MatrixLieAlgebra, m: RatMatrix | PolyMatrix) -> tuple:
    """xi o chi: the exterior-power traces in the invariant degrees of the
    algebra's type, which generate its invariant ring (degrees 2..n for
    sl_n; even degrees for sp_2n and so_{2n+1}), in increasing degree; the
    C*-weight of each value is its degree, ``alg.dtype.degrees()``."""
    if alg.coords(m) is None:
        raise ValueError("matrix is not an element of the algebra")
    if alg.family == "so" and alg.size % 2 == 0:
        raise ValueError("adjoint quotient via exterior traces: sl_n, sp_2n, so_{2n+1}")
    return exterior_traces(m, tuple(alg.dtype.degrees()))


def exp_nilpotent(m: RatMatrix) -> RatMatrix:
    """Exact exponential of a nilpotent matrix (polynomial sum)."""
    n = m.rows
    acc = RatMatrix.identity(n)
    term = RatMatrix.identity(n)
    for k in range(1, n + 1):
        term = term * m
        if term.is_zero():
            break
        acc = acc + term.scale(Fraction(1, factorial(k)))
    else:
        if not term.is_zero():
            raise ValueError("matrix is not nilpotent")
    return acc


# -- the base isomorphism check ---------------------------------------------------------


def _diag_poly_matrix(values) -> PolyMatrix:
    n = len(values)
    return PolyMatrix([[v if i == j else 0 for j in range(n)] for i, v in enumerate(values)])


def base_iso_check(fd: FoldingDatum, sample_count: int = 100, seed: int = 42) -> Report:
    """t/W = (t_h/W_h)^C at the invariant-ring level.

    A-series: symbolically, the odd elementary symmetric generators vanish
    on the fixed Cartan and the even ones agree with the folded sp
    generators under the coroot correspondence; also checked at seeded
    rational points.  D4 triality: the restricted fundamental invariants
    collapse onto the G2 degrees (the degree-4 pencil restricts into the
    span of the squared degree-2 invariant, degree 6 stays independent)."""
    from . import invariants as inv

    t = fd.homogeneous.dtype
    report = Report(f"base-iso-{t}/{fd.aut.order}")
    rng = random.Random(seed)
    if fd.aut.is_trivial:
        report.cases_run += 1
        return report
    if t.series == "A":
        N = t.rank + 1
        half = N // 2
        unames = inv.var_names("u", half)
        uvars = [MultiPoly.var(unames, u) for u in unames]
        # fixed Cartan in sl_N: diag(u_1..u_n, -u_n..-u_1)
        th = _diag_poly_matrix(uvars + [-u for u in reversed(uvars)])
        # sp_N Cartan: diag(u_1..u_n, -u_1..-u_n)
        tc = _diag_poly_matrix(uvars + [-u for u in uvars])
        degrees = t.degrees()
        even = [k for k in degrees if k % 2 == 0]
        th_traces = dict(zip(degrees, exterior_traces(th, degrees)))
        tc_traces = dict(zip(even, exterior_traces(tc, even)))
        for k in degrees:
            report.cases_run += 1
            lhs = th_traces[k]
            if k % 2 == 1:
                if not lhs.is_zero():
                    report.fail(f"sigma_{k} on fixed Cartan", "0", lhs)
            elif lhs != tc_traces[k]:
                report.fail(f"sigma_{k} restricted vs folded", tc_traces[k], lhs)
        if N == 4:
            _a3_paper_identity(report)
        for _ in range(sample_count):
            report.cases_run += 1
            point = {u: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for u in unames}
            th_val = RatMatrix.diagonal(
                [p.evaluate(point) for p in (uvars + [-u for u in reversed(uvars)])]
            )
            tc_val = RatMatrix.diagonal(
                [p.evaluate(point) for p in (uvars + [-u for u in uvars])]
            )
            th_vals = dict(zip(degrees, exterior_traces(th_val, degrees)))
            tc_vals = dict(zip(even, exterior_traces(tc_val, even)))
            for k in degrees:
                lv = th_vals[k]
                rv = 0 if k % 2 else tc_vals[k]
                if (k % 2 and lv != 0) or (k % 2 == 0 and lv != rv):
                    report.fail(f"point {point}, degree {k}", rv, lv)
        return report
    if t.series == "D" and t.rank == 4 and fd.aut.order == 3:
        _d4_restricted_invariants(report)
        return report
    raise ValueError(f"base_iso_check implemented for A-series and D4 triality, not {t}")


def _a3_paper_identity(report: Report):
    """The worked identity: xi_h(u(a1v + a3v) + (u+v) a2v) = (-u^2 - v^2, u^2 v^2)
    = xi(2u b1v + (u+v) b2v), with sigma_3 vanishing."""
    names = ("u", "v")
    u = MultiPoly.var(names, "u")
    v = MultiPoly.var(names, "v")
    th = _diag_poly_matrix([u, v, -v, -u])
    tc = _diag_poly_matrix([-u, v, u, -v])
    expected2 = -(u**2) - v**2
    expected4 = (u**2) * (v**2)
    h2, s3, h4 = exterior_traces(th, (2, 3, 4))
    c2, c4 = exterior_traces(tc, (2, 4))
    report.expect(h2 == expected2 and c2 == expected2, "paper identity degree 2",
                  expected2, f"{h2} / {c2}")
    report.expect(h4 == expected4 and c4 == expected4, "paper identity degree 4",
                  expected4, f"{h4} / {c4}")
    report.expect(s3.is_zero(), "sigma_3 on fixed Cartan", "0", s3)


def _d4_restricted_invariants(report: Report):
    """Restrict the four D4 fundamental invariants to the triality-fixed
    plane: the degree-2 image is nonzero, the degree-4 images fall into the
    span of its square, and degree 6 stays independent (G2 degrees 2, 6)."""
    from . import invariants as inv

    names = inv.var_names("t", 4)
    plane = inv.d4_fixed_cartan_basis()
    snames = ("s1", "s2")
    cols = RatMatrix(4, 2, [plane[0][i] if j == 0 else plane[1][i]
                            for i in range(4) for j in range(2)])

    def restrict(p):
        return inv.compose_linear(p, cols, snames)

    I2 = inv.esym_squares(names, 1)
    I4 = inv.esym_squares(names, 2)
    I6 = inv.esym_squares(names, 3)
    Pf = inv.product_of_vars(names)
    r2, r4, rpf, r6 = restrict(I2), restrict(I4), restrict(Pf), restrict(I6)
    report.expect(not r2.is_zero(), "degree-2 restriction", "nonzero", "0")
    rank4 = inv.span_rank([r2 * r2, r4, rpf], snames, 4)
    report.expect(rank4 == 1, "degree-4 restrictions modulo (deg2)^2",
                  "rank 1 (no surviving degree-4 generator)", f"rank {rank4}")
    rank6 = inv.span_rank([r2 * r2 * r2, r6], snames, 6)
    report.expect(rank6 == 2, "degree-6 restriction",
                  "independent of (deg2)^3 (G2 degree-6 generator)", f"rank {rank6}")
    from .rootsys import folding_datum

    surv = inv.surviving_invariant_degrees(folding_datum("D4", 3))
    report.expect(surv.survivors == {2: 1, 4: 0, 6: 1}, "surviving degrees",
                  "{2:1, 4:0, 6:1}", surv.survivors)
