"""Root systems, Dynkin diagrams, graph automorphisms, and both folding
constructions (coinvariants and invariants), plus the character/cocharacter
lattices of the folded adjoint groups.

Roots are stored in weight-space coordinates: the j-th coordinate of a root
is its pairing with the j-th simple coroot, so the i-th simple root is the
i-th row of the Cartan matrix.  A coordinate is an int when integral and a
Fraction otherwise; only the averages of the coinvariant folding are not
integral.  The inner product is carried explicitly as a Gram matrix on these
coordinates.  Folded systems live inside the ambient space of the
homogeneous system: the quotient V/(1-a)V is realized as the fixed subspace
of a (the orthogonal complement of im(1-a) for the invariant inner
product), so coinvariants and invariants can be compared directly.  Every
system takes its roots' simple-root coordinates from one integer closure.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .exactalg import RatMatrix, _integer_vector
from .verify import Report


_SERIES_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}


@dataclass(frozen=True)
class DynkinType:
    series: str
    rank: int

    def __post_init__(self):
        s, r = self.series, self.rank
        if s not in _SERIES_MIN_RANK:
            raise ValueError(f"unknown series {s!r}")
        if r < _SERIES_MIN_RANK[s]:
            raise ValueError(f"{s}{r} is not an admissible Dynkin type")
        if s == "E" and r not in (6, 7, 8):
            raise ValueError("E-series exists only for ranks 6, 7, 8")
        if s == "F" and r != 4:
            raise ValueError("F-series exists only for rank 4")
        if s == "G" and r != 2:
            raise ValueError("G-series exists only for rank 2")

    @staticmethod
    def parse(text: str) -> "DynkinType":
        m = re.fullmatch(r"\s*([ABCDEFG])\s*(\d+)\s*", text)
        if not m:
            raise ValueError(f"cannot parse Dynkin type {text!r}")
        return DynkinType(m.group(1), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"

    @property
    @cache
    def is_simply_laced(self) -> bool:
        """Every off-diagonal Cartan entry is 0 or -1 (memoized per type)."""
        return all(c in (0, -1) for i, row in enumerate(self.cartan_rows())
                   for j, c in enumerate(row) if i != j)

    @cache
    def dual(self) -> "DynkinType":
        """The type of the transposed Cartan matrix, the dual root system
        (memoized per type)."""
        return classify(list(zip(*self.cartan_rows())))

    def root_count(self) -> int:
        n, s = self.rank, self.series
        if s == "A":
            return n * (n + 1)
        if s in ("B", "C"):
            return 2 * n * n
        if s == "D":
            return 2 * n * (n - 1)
        if s == "G":
            return 12
        if s == "F":
            return 48
        return {6: 72, 7: 126, 8: 240}[n]

    def degrees(self) -> list[int]:
        """Degrees of the fundamental Weyl invariants, exponents + 1.

        Kostant: the exponents are the partition dual to the numbers of
        positive roots of each height."""
        counts = Counter(map(sum, _positive_root_coords(self.cartan_rows()))).values()
        return sorted(sum(k >= j for k in counts) + 1 for j in range(1, self.rank + 1))

    def weyl_order(self) -> int:
        """|W|, the product of the degrees."""
        return math.prod(self.degrees())

    def opposition(self) -> tuple:
        """-w0 as a permutation p of the simple-root indices, -w0(alpha_i) =
        alpha_{p[i]}.  The descent walk (s_j wherever the j-th coordinate is
        positive) takes the regular dominant weight with coordinates
        1, ..., n to w0 of it, whose negation has coordinate i + 1 at p[i]."""
        C = self.cartan_rows()
        v = list(range(1, self.rank + 1))
        while any(x > 0 for x in v):
            vj, row = next((x, C[j]) for j, x in enumerate(v) if x > 0)
            v = [x - vj * c for x, c in zip(v, row)]
        return tuple(-v[i] - 1 for i in range(self.rank))

    def cartan_rows(self) -> list[list[int]]:
        """Cartan matrix C with C[i][j] = <alpha_i, alpha_j^vee>."""
        n = self.rank
        C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

        def edge(i, j):
            C[i][j] = C[j][i] = -1

        s = self.series
        if s in ("A", "B", "C"):
            for i in range(n - 1):
                edge(i, i + 1)
            if s == "B" and n >= 2:
                C[n - 2][n - 1] = -2  # alpha_n short
            if s == "C" and n >= 2:
                C[n - 1][n - 2] = -2  # alpha_n long
        elif s == "D":
            for i in range(n - 2):
                edge(i, i + 1)
            if n >= 3:
                edge(n - 3, n - 1)
        elif s == "E":
            # Bourbaki: chain 1-3-4-5-6(-7)(-8), node 2 attached to 4
            chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
            for a, b in zip(chain, chain[1:]):
                edge(a, b)
            edge(1, 3)
        elif s == "F":
            edge(0, 1)
            edge(2, 3)
            C[1][2] = -2  # alpha_3, alpha_4 short
            C[2][1] = -1
        elif s == "G":
            C[0][1] = -1  # alpha_1 short, alpha_2 long
            C[1][0] = -3
        return C

    def simple_length_sq(self) -> list[Fraction]:
        """Squared lengths of the simple roots, long roots normalized to 2: as
        C[i][j] = 2(a_i, a_j)/(a_j, a_j), |a_j|^2 = |a_i|^2 C[j][i]/C[i][j]
        along each edge of the diagram, walked from node 0."""
        C = self.cartan_rows()
        lengths = [Fraction(1)] + [None] * (self.rank - 1)
        reached = [0]
        for i in reached:
            for j, c in enumerate(C[i]):
                if c and lengths[j] is None:
                    lengths[j] = lengths[i] * C[j][i] / c
                    reached.append(j)
        return [x * 2 / max(lengths) for x in lengths]


class RootSystem:
    """A finite root system with explicit Gram matrix.

    ``simple_roots`` and ``all_roots`` are tuples of coordinate tuples in a
    common ambient space; the ambient dimension may exceed the rank (folded
    systems live inside the homogeneous ambient space).  The Cartan matrix
    and each root's simple-root coordinates are computed once, at
    construction, from the closure of the simple roots under the simple
    reflections; the roots must be exactly that closure.
    """

    def __init__(self, ambient_dim, gram: RatMatrix, simple_roots, all_roots,
                 dtype: DynkinType | None = None):
        self.ambient_dim = ambient_dim
        self.gram = gram
        self.simple_roots = [tuple(map(_exact, v)) for v in simple_roots]
        self.all_roots = [tuple(map(_exact, v)) for v in all_roots]
        self._cartan = tuple(tuple(_exact(self.cartan_integer(a, b)) for b in self.simple_roots)
                             for a in self.simple_roots)
        if dtype is None:
            dtype, perm = classify_with_perm(self._cartan)
            if perm != tuple(range(len(perm))):
                # relabel the simple roots canonically: old root i becomes
                # root perm[i], so the Cartan matrix permutes along with it
                inv = sorted(range(len(perm)), key=perm.__getitem__)
                self.simple_roots = [self.simple_roots[i] for i in inv]
                self._cartan = tuple(tuple(self._cartan[i][j] for j in inv) for i in inv)
        elif self._cartan != tuple(map(tuple, dtype.cartan_rows())):
            raise AssertionError(f"Cartan matrix does not match declared type {dtype}")
        self.dtype = dtype
        # the closure of the simple roots, in simple-root coordinates, mapped
        # into the ambient space; it must be the given root set
        self._coords = {}
        for c in _positive_root_coords(self._cartan):
            r = tuple(map(_exact, combine_rows(c, self.simple_roots)))
            self._coords[r] = c
            self._coords[tuple(-x for x in r)] = tuple(-x for x in c)
        if self._coords.keys() != set(self.all_roots):
            raise AssertionError("roots differ from the closure of the simple roots")
        if len(self.all_roots) != dtype.root_count():
            raise AssertionError(
                f"root count {len(self.all_roots)} != classical count "
                f"{dtype.root_count()} for {dtype}"
            )

    # -- geometry -----------------------------------------------------------
    def inner(self, u, v) -> Fraction:
        """(u, v) under the Gram matrix: the integer numerators of the Gram
        matrix, u and v, each over its common denominator, summed as ints
        and divided once."""
        g, dg = self.gram._integer_form()
        n = self.gram.cols
        u, du = _integer_vector(u)
        v, dv = _integer_vector(v)
        acc = 0
        for i, ui in enumerate(u):
            if ui:
                row = i * n
                for j, vj in enumerate(v):
                    if vj:
                        acc += ui * g[row + j] * vj
        return Fraction(acc, dg * du * dv)

    def cartan_integer(self, alpha, beta) -> Fraction:
        """2(alpha, beta)/(beta, beta)."""
        return 2 * self.inner(alpha, beta) / self.inner(beta, beta)

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        """The Cartan integers 2(a_i, a_j)/(a_j, a_j) of the simple roots, in
        their canonical order; one shared, immutable matrix."""
        return self._cartan

    @property
    def rank(self) -> int:
        return len(self.simple_roots)

    def coroot(self, alpha) -> tuple:
        n = self.inner(alpha, alpha)
        return tuple(2 * x / n for x in alpha)

    def simple_coordinates(self) -> dict:
        """Each root's integer coordinates in the simple-root basis."""
        return self._coords

    def positive_roots(self) -> list[tuple]:
        return [r for r in self.all_roots if all(c >= 0 for c in self._coords[r])]

    def to_json(self) -> dict:
        return {
            "type": str(self.dtype),
            "ambient_dim": self.ambient_dim,
            "gram": [[str(self.gram.entry(i, j)) for j in range(self.gram.cols)]
                     for i in range(self.gram.rows)],
            "simple_roots": [[str(x) for x in r] for r in self.simple_roots],
            "all_roots": [[str(x) for x in r] for r in self.all_roots],
        }


def _exact(x):
    """An int or a Fraction x as an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


def permutation_cycles(perm) -> list[tuple]:
    """The cycles of a permutation of range(len(perm)), ordered by their
    first point, each read from that point on: (i, perm[i], ...)."""
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cyc, j = [], i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        out.append(tuple(cyc))
    return out


def permutation_order(perm) -> int:
    """The order of a permutation: the lcm of its cycle lengths."""
    return math.lcm(*map(len, permutation_cycles(perm)))


@dataclass(frozen=True)
class GraphAut:
    """A Dynkin-diagram automorphism, given as a permutation of the simple
    root indices (0-based); its order is read off the permutation."""

    permutation: tuple

    def __post_init__(self):
        p = self.permutation
        if sorted(p) != list(range(len(p))):
            raise ValueError("not a permutation")

    @property
    def order(self) -> int:
        return permutation_order(self.permutation)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def apply_to_weight_coords(self, w) -> tuple:
        """a permutes fundamental weights, so weight coordinates permute."""
        p = self.permutation
        out = [None] * len(w)
        for i, x in enumerate(w):
            out[p[i]] = x
        return tuple(out)

    def orbit(self, w) -> list[tuple]:
        """The distinct images w, a w, a^2 w, ... in first-seen order."""
        out = [tuple(w)]
        img = self.apply_to_weight_coords(w)
        while img != out[0]:
            out.append(img)
            img = self.apply_to_weight_coords(img)
        return out

    def validate_on(self, rs: RootSystem):
        """Cartan-matrix preservation and the Dynkin graph-automorphism
        condition (a(alpha), alpha) in {0, (alpha, alpha)} on every root."""
        C = rs.cartan_matrix()
        p = self.permutation
        n = rs.rank
        if len(p) != n:
            raise ValueError("permutation size != rank")
        for i in range(n):
            for j in range(n):
                if C[p[i]][p[j]] != C[i][j]:
                    raise ValueError("permutation does not preserve the Cartan matrix")
        for r in rs.all_roots:
            ar = self.apply_to_weight_coords(r)
            val = rs.inner(ar, r)
            if val != 0 and val != rs.inner(r, r):
                raise ValueError(f"{rs.dtype} has no order-{self.order} folding: "
                                 "(a(alpha), alpha) outside {0, |alpha|^2}")


@dataclass(frozen=True)
class FoldingDatum:
    """A simply-laced R_h and a diagram automorphism a of it.  No list of
    foldings is kept: ``validate_on`` refuses the rest (such as A_{2n} flips)."""

    homogeneous: RootSystem
    aut: GraphAut

    def __post_init__(self):
        if not self.homogeneous.dtype.is_simply_laced:
            raise ValueError("folding requires a simply-laced (ADE) system")
        self.aut.validate_on(self.homogeneous)


@dataclass(frozen=True)
class Lattice:
    """Free lattice given by an independent basis in an ambient Q-space."""

    rank: int
    basis: tuple

    def __post_init__(self):
        if self.rank != len(self.basis):
            raise ValueError("rank != number of basis vectors")
        if self.basis:
            m = RatMatrix.from_rows([list(b) for b in self.basis])
            if m.rank() != self.rank:
                raise ValueError("lattice basis is linearly dependent")


# -- construction -----------------------------------------------------------


def combine_rows(c, rows) -> tuple:
    """c^T M, the combination sum_i c_i rows[i] of the rows of M.  For M the
    Cartan matrix and c the simple-root coordinates of a root, these are the
    root's pairings with the simple coroots: its weight coordinates."""
    acc = [0] * len(rows[0])
    for ci, row in zip(c, rows):
        if ci:
            acc = [a + ci * x for a, x in zip(acc, row)]
    return tuple(acc)


def _positive_root_coords(C) -> list[tuple]:
    """Positive roots in simple-root coordinates, for the Cartan matrix C
    with C[i][j] = <alpha_i, alpha_j^vee>: the simple roots closed under
    s_j(c) = c - <c, alpha_j^vee> alpha_j wherever <c, alpha_j^vee> < 0.
    Every positive root is reached, as each one of height > 1 is s_j of a
    lower one with negative pairing."""
    n = len(C)
    roots = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    seen = set(roots)
    for c in roots:
        for j, p in enumerate(combine_rows(c, C)):
            if p < 0:
                img = c[:j] + (c[j] - p,) + c[j + 1:]
                if img not in seen:
                    seen.add(img)
                    roots.append(img)
    return roots


def build_root_system(t: DynkinType | str) -> RootSystem:
    """Standard root system of a Dynkin type, in weight coordinates.  Built
    once per type and process; the result is shared and must not be mutated."""
    if isinstance(t, str):
        t = DynkinType.parse(t)
    return _build_root_system(t)


@cache
def _build_root_system(t: DynkinType) -> RootSystem:
    C = t.cartan_rows()
    n = t.rank
    lengths = t.simple_length_sq()
    # Gram on simple roots: G[i][j] = C[i][j] * len_j^2 / 2
    G_simple = [[Fraction(C[i][j]) * lengths[j] / 2 for j in range(n)] for i in range(n)]
    Cm = RatMatrix.from_rows(C)
    Ci = Cm.inverse()
    # weight coords w = C^T m  =>  gram_w = C^{-1} G C^{-T}
    gram_w = Ci * RatMatrix.from_rows(G_simple) * Ci.transpose()
    # root sum_i c_i alpha_i has weight coordinates c^T C
    positive = [combine_rows(c, C) for c in _positive_root_coords(C)]
    all_roots = sorted(positive + [tuple(-x for x in w) for w in positive])
    return RootSystem(n, gram_w, C, all_roots, dtype=t)


def standard_automorphism(t: DynkinType | str, order: int) -> GraphAut:
    """The lexicographically least automorphism of the given order of the
    Cartan matrix of t: the identity, a flip (A_n, D_n, E6) or D4 triality."""
    if isinstance(t, str):
        t = DynkinType.parse(t)
    C = t.cartan_rows()
    for p in _cartan_isomorphisms(C, C):
        if permutation_order(p) == order:
            return GraphAut(p)
    raise ValueError(f"no order-{order} automorphism of {t}")


def folding_datum(type_text: str, order: int) -> FoldingDatum:
    """The folding datum (R_h, a) of a type and the order of its standard
    automorphism.  Built once per process for each parsed type and order, so
    "A3" and " A3 " share one datum; the result is shared."""
    return _folding_datum(DynkinType.parse(type_text), order)


@cache
def _folding_datum(t: DynkinType, order: int) -> FoldingDatum:
    return FoldingDatum(build_root_system(t), standard_automorphism(t, order))


# -- the two foldings ---------------------------------------------------------


def _orbit_image(a: GraphAut, w, average: bool) -> tuple:
    """The sum of the distinct images of w under a, divided by their number
    when ``average``: the orthogonal projection onto the fixed subspace,
    which equals the average over all |a| images counted with multiplicity.
    A coordinate is an int when integral and a Fraction only otherwise."""
    orbit = a.orbit(w)
    size = len(orbit) if average else 1
    return tuple(s // size if s % size == 0 else Fraction(s, size)
                 for s in map(sum, zip(*orbit)))


def _fold(fd: FoldingDatum, average: bool) -> RootSystem:
    """The images of the roots and the simple roots under ``_orbit_image``,
    each deduplicated in first-seen order."""
    rs = fd.homogeneous

    def images(vectors):
        return list(dict.fromkeys(_orbit_image(fd.aut, v, average) for v in vectors))

    return RootSystem(rs.ambient_dim, rs.gram, images(rs.simple_roots), images(rs.all_roots))


def fold_coinvariants(fd: FoldingDatum) -> RootSystem:
    """Coinvariant folding: R_h/(1-a), realized inside the fixed subspace by
    the orthogonal averaging projection.  Gives the folded type of the
    classical table (A_{2n-1} -> C_n, D_{n+1} -> B_n, D4/3 -> G2, E6 -> F4).
    Built once per datum and process; the result is shared."""
    return _fold_coinvariants(fd)


@cache
def _fold_coinvariants(fd: FoldingDatum) -> RootSystem:
    return _fold(fd, average=True)


def fold_invariants(fd: FoldingDatum) -> RootSystem:
    """Invariant folding: R_h^C = {alpha^O} with alpha^O the orbit sum
    (no multiplicities).  Gives the dual of the coinvariant type.  Built once
    per datum and process; the result is shared."""
    return _fold_invariants(fd)


@cache
def _fold_invariants(fd: FoldingDatum) -> RootSystem:
    return _fold(fd, average=False)


def dualize_root_system(r: RootSystem) -> RootSystem:
    """Coroot system alpha^vee = 2 alpha/(alpha, alpha) in the same ambient
    space, the inner product identifying V with V*."""
    coroots = [r.coroot(a) for a in r.all_roots]
    simple = [r.coroot(a) for a in r.simple_roots]
    return RootSystem(r.ambient_dim, r.gram, simple, coroots)


def check_folding_duality(fd: FoldingDatum) -> Report:
    """Verify (R_{h,C})^vee = (R_h^vee)^C elementwise: the dual of each
    projected root equals the orbit sum, and the identification preserves
    Cartan integers."""
    report = Report("folding-duality")
    dual_co = dualize_root_system(fold_coinvariants(fd))
    inv = fold_invariants(fd)
    report.expect(set(dual_co.all_roots) == set(inv.all_roots), "roots", "orbit sums",
                  "dualized coinvariant roots differ from orbit sums")
    if report.passed:
        # Cartan integers are preserved by the (identity) bijection
        simple = dual_co.simple_roots
        report.expect(all(dual_co.cartan_integer(a, b) == inv.cartan_integer(a, b)
                          for a in simple for b in simple),
                      "Cartan integers", "preserved",
                      "Cartan integers disagree under the duality bijection")
    return report


def folded_lattices(fd: FoldingDatum) -> tuple[Lattice, Lattice]:
    """Character and cocharacter lattices of the folded adjoint group:
    coinvariants of the root lattice and invariants of the coweight lattice."""
    rs, a = fd.homogeneous, fd.aut
    orbits = permutation_cycles(a.permutation)
    char_basis = tuple(_orbit_image(a, rs.simple_roots[o[0]], True) for o in orbits)

    C = RatMatrix.from_rows(rs.dtype.cartan_rows())
    Ci = C.inverse()
    # fundamental coweight i = column i of C^{-1} in simple-coroot coordinates;
    # the invariant lattice has the orbit sums as a basis.
    cochar_basis = []
    for o in orbits:
        v = [Fraction(0)] * rs.rank
        for i in o:
            for k in range(rs.rank):
                v[k] += Ci.entry(k, i)
        cochar_basis.append(tuple(v))
    return (
        Lattice(len(orbits), char_basis),
        Lattice(len(orbits), tuple(cochar_basis)),
    )


# -- classification ------------------------------------------------------------


def _candidate_types(rank: int) -> list[DynkinType]:
    """Every Dynkin type of the rank but D3, a relabelled A3 that is named A3;
    C before B, so that a relabelled double bond of rank 2 reads C2."""
    out = []
    for series in "CBADEFG":
        try:
            out.append(DynkinType(series, rank))
        except ValueError:
            pass
    return [t for t in out if str(t) != "D3"]


def _cartan_isomorphisms(C, D):
    """Every permutation p with D[p[i]][p[j]] == C[i][j], in lexicographic
    order, by extending a partial p one index at a time while it matches on
    the indices placed so far."""
    n = len(C)
    p = []

    def extend():
        if len(p) == n:
            yield tuple(p)
            return
        i = len(p)
        for q in range(n):
            if q not in p and all(D[q][pj] == C[i][j] and D[pj][q] == C[j][i]
                                  for j, pj in enumerate(p + [q])):
                p.append(q)
                yield from extend()
                p.pop()

    yield from extend()


def classify_with_perm(cartan) -> tuple[DynkinType, tuple]:
    """Identify the Dynkin type of a Cartan matrix by relabeling search.

    An exact (identity-permutation) match wins first, which resolves the
    B2/C2 labeling of rank-2 double-bond systems by the short/long pattern
    of the simple roots as ordered.  Returns the type and the permutation p
    with canonical[p[i]][p[j]] == cartan[i][j].
    """
    C = [list(row) for row in cartan]
    rank = len(C)
    cands = _candidate_types(rank)
    for t in cands:
        if C == t.cartan_rows():
            return t, tuple(range(rank))
    for t in cands:
        p = next(_cartan_isomorphisms(C, t.cartan_rows()), None)
        if p is not None:
            return t, p
    raise ValueError("Cartan matrix is not of irreducible ABCDEFG type")


def classify(cartan) -> DynkinType:
    return classify_with_perm(cartan)[0]


def isomorphic(rs1: RootSystem, rs2: RootSystem) -> bool:
    """Root-system isomorphism via Cartan-matrix relabeling (B2 and C2 are
    isomorphic, only labeled differently)."""
    if rs1.rank != rs2.rank or len(rs1.all_roots) != len(rs2.all_roots):
        return False
    return next(_cartan_isomorphisms(rs1.cartan_matrix(), rs2.cartan_matrix()), None) is not None
