"""Finite Weyl groups as exact integer matrix groups on the coroot space,
the folding isomorphism W_h^C = W via restriction, and orbit computations.

Conventions: V* carries the simple-coroot basis, so the simple reflection
s_i sends alpha_j^vee to alpha_j^vee - C[i][j] alpha_i^vee and is an integer
matrix.  A graph automorphism acts by permuting the coroot basis.  The fixed
subspace V*^C has the orbit sums of coroot basis vectors as its basis, and
invariant vectors have constant coordinates along each orbit, which makes
restriction a cheap coordinate read."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter, mul, sub

from . import kernel
from .exactalg import RatMatrix
from .rootsys import (
    DynkinType,
    FoldingDatum,
    RootSystem,
    build_root_system,
    classify,
    combine_rows,
    fold_coinvariants,
    permutation_cycles,
)
from .verify import Report

ENUMERATION_BUDGET = 60_000


class EnumerationBudgetExceeded(RuntimeError):
    pass


def _flat_identity(n: int) -> tuple:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


class WeylGroup:
    """A fully enumerated reflection group of exact integer matrices, with
    its Cayley graph for right multiplication by the generators.

    Element w is indexed by its key w^T rho, with rho = (1, ..., 1) in the
    basis dual to the acting one: the column sums of w.  rho is regular, so
    the key is injective (checked at construction).  :meth:`index_of` and
    :meth:`contains` confirm the stored matrix entry by entry, so a
    non-element sharing a key is rejected.

    ``keys``, ``words`` and ``edges`` come from the closure that enumerated
    the group: ``edges[g][i]`` is the index of w_i g for generator g, and
    ``words[i]`` spells w_i in the generators.  A product w_i w_j walks the
    edges along the word of w_j, an inverse walks them along the reversed
    word (the generators are involutions), and a right-multiplication
    permutation composes the edge lists along a word: list lookups, no
    matrix arithmetic.

    An element is its index everywhere outside this module: :meth:`word`
    spells it and :meth:`matrix` builds its :class:`RatMatrix` from the
    stored integer entries on each call.

    ``invariant_vectors`` is the coroot set in the acting coordinates; every
    element must permute it (checked by :meth:`verify`).
    """

    def __init__(self, dim, generators, flat_elements, words, keys, edges, dtype=None,
                 root_system=None, invariant_vectors=None):
        self.dim = dim
        self.generators = generators
        self._flat = flat_elements
        self._keys = keys
        self._index = {k: i for i, k in enumerate(keys)}
        if len(self._index) != len(flat_elements):
            raise AssertionError("two elements share a key: rho is not regular")
        self._edges = edges
        self._words = words
        self.dtype = dtype
        self.root_system = root_system
        self.invariant_vectors = invariant_vectors
        self._mult_cache: dict = {}
        self._rightmul_cache: dict = {}
        self._edge_getters = None
        self._inverse = None
        self._classes = None
        self._identity = self.index_of(_flat_identity(dim))

    # -- construction ---------------------------------------------------------
    @staticmethod
    def generate(rs: RootSystem) -> "WeylGroup":
        """Enumerate W(R^vee) by breadth-first closure over the simple
        reflections.  E6 and A7 are enumerated; groups larger than
        ``ENUMERATION_BUDGET`` (E7, E8, A8, and B, C, D from rank 7) are
        refused from their order, the product of the degrees, before any work."""
        t = rs.dtype
        expected = t.weyl_order()
        if expected > ENUMERATION_BUDGET:
            raise EnumerationBudgetExceeded(
                f"|W({t})| = {expected} exceeds the enumeration budget of "
                f"{ENUMERATION_BUDGET} elements"
            )
        n = rs.rank
        C = rs.cartan_matrix()
        gens = []
        for i in range(n):
            m = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            for j in range(n):
                m[i][j] -= C[i][j]
            gens.append(tuple(x for row in m for x in row))
        gen_mats = [RatMatrix(n, n, g) for g in gens]
        return WeylGroup(n, gen_mats, *_bfs_closure(gens, n, expected), dtype=t,
                         root_system=rs, invariant_vectors=_coroot_vectors(rs))

    # -- group structure ----------------------------------------------------
    @property
    def order(self) -> int:
        return len(self._flat)

    def matrix(self, i: int) -> RatMatrix:
        """Element i as a :class:`RatMatrix`, built anew on each call."""
        return RatMatrix.from_integers(self.dim, self.dim, self._flat[i])

    def word(self, i: int) -> tuple:
        """Element i as a word in the generators (indices into ``generators``)."""
        return self._words[i]

    def _find(self, matrix):
        """Index of ``matrix`` (a RatMatrix or flat sequence), or None."""
        flat = _flat_key(matrix)
        if flat is None:
            return None
        idx = self._index.get(_key(flat, self.dim))
        return idx if idx is not None and self._flat[idx] == flat else None

    def index_of(self, matrix) -> int:
        idx = self._find(matrix)
        if idx is None:
            raise KeyError("matrix is not an element of this group")
        return idx

    def contains(self, matrix) -> bool:
        return self._find(matrix) is not None

    def _walk(self, i: int, word) -> int:
        """Index of w_i times the generators of ``word`` in turn: one edge
        lookup per letter."""
        edges = self._edges
        for g in word:
            i = edges[g][i]
        return i

    def multiply(self, i: int, j: int) -> int:
        key = (i, j)
        out = self._mult_cache.get(key)
        if out is None:
            out = self._walk(i, self._words[j])
            self._mult_cache[key] = out
        return out

    def inverse(self, i: int) -> int:
        """w^-1, read along the reversed word of w: every generator is an
        involution."""
        return self._walk(self._identity, reversed(self._words[i]))

    def inverse_permutation(self) -> tuple:
        """inv[i] = index of element_i^-1, built once."""
        if self._inverse is None:
            ident, walk = self._identity, self._walk
            self._inverse = tuple([walk(ident, reversed(w)) for w in self._words])
        return self._inverse

    def identity_index(self) -> int:
        return self._identity

    def apply(self, i: int, vec) -> tuple:
        return tuple(
            kernel.mat_vec(list(self._flat[i]), list(vec), self.dim, self.dim)
        )

    def right_multiplication_permutation(self, j: int) -> tuple:
        """perm[i] = index of element_i * element_j (the action of monodromy
        on a fiber identified with the group): the generators' edge lists
        composed along the word of element j."""
        out = self._rightmul_cache.get(j)
        if out is None:
            # i s_1 ... s_k, composed from the last letter: the permutation
            # of s_m ... s_k is that of s_(m+1) ... s_k read at edges[s_m].
            # Its entries are the edge lists' own ints, not new ones.
            word = self._words[j]
            if not word:
                out = tuple(range(self.order))
            else:
                if self._edge_getters is None:
                    self._edge_getters = [itemgetter(*e) for e in self._edges]
                out = tuple(self._edges[word[-1]])
                for g in reversed(word[:-1]):
                    out = self._edge_getters[g](out)
            self._rightmul_cache[j] = out
        return out

    def conjugacy_classes(self) -> tuple:
        """The conjugacy classes as sorted index tuples, in the order of their
        least elements, built once: the orbits of w -> s w s over the
        generators s, with w s = edges[s][w] and s u = inv[edges[s][inv[u]]]."""
        if self._classes is None:
            inv = self.inverse_permutation()
            seen = [False] * self.order
            classes = []
            for start in range(self.order):
                if seen[start]:
                    continue
                seen[start] = True
                cls = [start]
                for w in cls:
                    for e in self._edges:
                        u = inv[e[inv[e[w]]]]
                        if not seen[u]:
                            seen[u] = True
                            cls.append(u)
                classes.append(tuple(sorted(cls)))
            self._classes = tuple(classes)
        return self._classes

    def reflections(self) -> list[int]:
        """Indices of elements acting as reflections (order 2, fixed space of
        codimension 1)."""
        inv = self.inverse_permutation()
        eye = RatMatrix.identity(self.dim)
        return [i for i in range(self.order)
                if inv[i] == i != self._identity and (self.matrix(i) - eye).rank() == 1]

    def verify(self, check_coroots: bool = True):
        if self.dtype is not None and self.order != self.dtype.weyl_order():
            raise AssertionError(
                f"group order {self.order} != product of the degrees {self.dtype.weyl_order()}"
            )
        ident = RatMatrix.identity(self.dim)
        for g in self.generators:
            if g * g != ident:
                raise AssertionError("generator is not an involution")
        if check_coroots and self.invariant_vectors:
            vecs = set(self.invariant_vectors)
            for i in range(self.order):
                for v in self.invariant_vectors:
                    if self.apply(i, v) not in vecs:
                        raise AssertionError("element does not permute the coroot set")


def _flat_key(matrix):
    """The flat integer tuple of a group element given as a RatMatrix or a
    flat sequence; None for a RatMatrix with a non-integer entry."""
    if not isinstance(matrix, RatMatrix):
        return tuple(matrix)
    form = matrix._integer_form()
    return form[0] if form is not None and form[1] == 1 else None


def _key(flat, n) -> tuple:
    """w^T rho for rho = (1, ..., 1): the column sums of the flat matrix w."""
    return tuple([sum(flat[j::n]) for j in range(n)])


def _bfs_closure(gens, n, order):
    """The group generated by the involutions ``gens`` (flat n x n integer
    matrices) as (elements, words, keys, edges), breadth first by right
    multiplication; ``edges[g][i]`` is the index of w_i g, so the edges are
    the Cayley graph the closure walks.

    Elements are told apart by their key w^T rho, rho = (1, ..., 1), which is
    injective when rho is regular for the dual action: so it is when the
    basis consists of simple coroots or of orbit sums of them.  As (w g)^T rho = g^T (w^T rho),
    an edge adds (row i of g - e_i) times key[i] over the rows i where g
    differs from the identity.  A new element is w g = w + sum_i (column i
    of w) (row i of g - e_i) over the same rows, so only the columns where
    such a row is non-zero change: for a simple reflection, its own column
    and its neighbours', not a full matrix product.  A closure of any size
    but ``order`` raises: rho was not regular, or ``gens`` do not generate a
    group of that order."""
    moved = []  # per generator: (i, row i of g - e_i as (j, entry) pairs)
    for g in gens:
        if tuple(kernel.mat_mul(g, g, n, n, n)) != _flat_identity(n):
            raise AssertionError("generator is not an involution")
        rows = [[(j, g[i * n + j] - (i == j)) for j in range(n)] for i in range(n)]
        moved.append([(i, [(j, c) for j, c in row if c]) for i, row in enumerate(rows)
                      if any(c for _, c in row)])
    flat, words, keys = [_flat_identity(n)], [()], [(1,) * n]
    seen = {keys[0]: 0}
    # w g g = w, so the edge from w_i to w_j = w_i g is also the one back:
    # each pair is computed once, from the element reached first.
    edges = [[None] * order for _ in gens]
    idx = 0
    while idx < len(flat):
        k = keys[idx]
        for gi, (delta, edge) in enumerate(zip(moved, edges)):
            if edge[idx] is not None:
                continue
            nk = list(k)
            for i, row in delta:
                ki = k[i]
                for j, c in row:
                    nk[j] += c * ki
            nk = tuple(nk)
            target = seen.get(nk)
            if target is None:
                if len(keys) == order:
                    raise AssertionError(f"closure exceeds {order} elements")
                target = seen[nk] = len(keys)
                keys.append(nk)
                w = flat[idx]
                wg = list(w)
                for i, row in delta:
                    col = w[i::n]
                    for j, c in row:
                        wg[j::n] = [x + c * y for x, y in zip(wg[j::n], col)]
                flat.append(tuple(wg))
                words.append(words[idx] + (gi,))
            edge[idx] = target
            edge[target] = idx
        idx += 1
    if len(flat) != order:
        raise AssertionError(f"closure has {len(flat)} elements, expected {order}")
    return flat, words, keys, edges


def _as_int(x) -> int:
    if x != int(x):
        raise AssertionError(f"expected an integer, got {x}")
    return int(x)


def _coroot_map(rs: RootSystem):
    """The map alpha -> alpha^vee in simple-coroot coordinates: for
    alpha = sum m_i alpha_i, alpha^vee = sum m_i (len_i^2/len_alpha^2) alpha_i^vee."""
    coords = rs.simple_coordinates()
    lengths = [rs.inner(s, s) for s in rs.simple_roots]

    def coroot(root) -> tuple:
        L = rs.inner(root, root)
        return tuple(_as_int(mi * li / L) for mi, li in zip(coords[root], lengths))

    return coroot


def _coroot_vectors(rs: RootSystem) -> list[tuple]:
    """Coroots of rs in simple-coroot coordinates."""
    return list(map(_coroot_map(rs), rs.all_roots))


# -- folding -------------------------------------------------------------------


@dataclass
class FoldedWeylData:
    """Everything the folding isomorphism W_h^C = W produces.

    ``folded`` acts on the orbit-sum basis of the fixed subspace (V_h^*)^C,
    and a acts on V_h^* by the basis permutation ``fd.aut.permutation``;
    ``embed``/``restrict`` are inverse index maps between the folded group
    and the commutant subgroup of W_h; ``reflection_products`` maps each
    folded reflection index to (h-side root orbit, index in W_h of the
    product of commuting reflections over the orbit)."""

    fd: FoldingDatum
    wh: WeylGroup
    commutant: list[int]
    orbits: list[tuple]
    folded: WeylGroup
    embed: dict
    restrict: dict
    reflection_products: dict

    def simple_folded_reflection(self, orbit_index: int) -> int:
        """Folded-group index of the restricted product over the given
        simple-root orbit."""
        orbit = self.orbits[orbit_index]
        wh_idx = _orbit_product_index(self.wh, list(orbit))
        return self.restrict[wh_idx]


def _orbit_product_index(wh: WeylGroup, gen_indices: list[int]) -> int:
    return wh._walk(wh.identity_index(), gen_indices)


def _root_reflections(rs: RootSystem):
    """The map gamma -> s_gamma on V* in coroot coordinates, as an integer
    flat matrix: s(v) = v - <gamma, v> gamma^vee."""
    n = rs.rank
    C = rs.cartan_matrix()
    coords = rs.simple_coordinates()
    coroot = _coroot_map(rs)

    def reflection(root) -> list:
        corv = coroot(root)
        pair_row = combine_rows(coords[root], C)
        return [(1 if i == j else 0) - corv[i] * pair_row[j]
                for i in range(n) for j in range(n)]

    return reflection


def _commutant_indices(wh: WeylGroup, perm) -> list[int]:
    """Indices of W_h^C = {w : aw = wa} for a acting by the basis permutation
    a e_i = e_perm(i).  Raises if a does not normalize W_h.

    (a g a^-1)[perm i, perm j] = g[i, j], so conjugating a generator relabels
    its entries, and aw = wa exactly when w[perm i, perm j] = w[i, j] for all
    i, j: entry moves and compares, no products."""
    n = wh.dim
    src = [perm[i] * n + perm[j] for i in range(n) for j in range(n)]
    for g in wh.generators:
        conj = [0] * (n * n)
        for s, x in zip(src, _flat_key(g)):
            conj[s] = x
        if not wh.contains(conj):
            raise ValueError("automorphism does not normalize the Weyl group")
    return [i for i, f in enumerate(wh._flat) if tuple(map(f.__getitem__, src)) == f]


def commutant_fixed_subgroup(wh: WeylGroup, perm) -> WeylGroup:
    """W_h^C = {w : aw = wa} as a subgroup (still acting on V_h^*), generated
    by the products of commuting reflections over the orbits of the basis
    permutation a e_i = e_perm(i)."""
    indices = _commutant_indices(wh, perm)
    orbits = permutation_cycles(perm)
    gens = [_orbit_product_index(wh, list(o)) for o in orbits]
    flat = [wh._flat[i] for i in indices]
    keys = [wh._keys[i] for i in indices]
    # Words and edges over the subgroup's own generators.  The closure must
    # be exactly the commutant, whose keys are those of W_h; it runs in
    # closure order, and the subgroup keeps W_h's order.
    _, closure_words, closure_keys, closure_edges = _bfs_closure(
        [wh._flat[g] for g in gens], wh.dim, len(flat))
    position = {k: p for p, k in enumerate(keys)}
    if position.keys() != set(closure_keys):
        raise AssertionError("orbit products do not generate the commutant")
    to_sub = [position[k] for k in closure_keys]
    words = [None] * len(flat)
    for p, w in zip(to_sub, closure_words):
        words[p] = w
    edges = []
    for closure_edge in closure_edges:
        edge = [0] * len(flat)
        for p, target in zip(to_sub, closure_edge):
            edge[p] = to_sub[target]
        edges.append(edge)
    return WeylGroup(wh.dim, [wh.matrix(g) for g in gens], flat, words, keys, edges,
                     root_system=wh.root_system, invariant_vectors=wh.invariant_vectors)


def folded_reflection(wh: WeylGroup, orbit) -> int:
    """Index of s~_beta = product of the (commuting) simple reflections over
    an a-orbit of simple roots; errors if the orbit roots are not pairwise
    orthogonal."""
    rs = wh.root_system
    C = rs.cartan_matrix()
    orbit = list(orbit)
    for i in orbit:
        for j in orbit:
            if i != j and C[i][j] != 0:
                raise ValueError("orbit roots are not pairwise orthogonal")
    return _orbit_product_index(wh, orbit)


def _restrict_matrix(flat, dim, orbits) -> tuple | None:
    """Restrict an a-commuting matrix to the orbit-sum basis of the fixed
    subspace; invariant vectors have orbit-constant coordinates."""
    r = len(orbits)
    out = []
    for oi, o in enumerate(orbits):
        img = [0] * dim
        for i in o:
            for k in range(dim):
                img[k] += flat[k * dim + i]
        for o2 in orbits:
            rep = o2[0]
            for i in o2[1:]:
                if img[i] != img[rep]:
                    return None
        out.append([img[o2[0]] for o2 in orbits])
    # out[oi][k]: coordinate k of image of basis vector oi -> column oi
    return tuple(out[oi][k] for k in range(r) for oi in range(r))


def folding_weyl_data(fd: FoldingDatum) -> FoldedWeylData:
    """Build W_h, its commutant W_h^C, and the restriction isomorphism onto
    the folded Weyl group, with the structural claims verified exactly:

    * restriction is injective on W_h^C and multiplicative,
    * the image equals the group generated by the folded simple reflections,
    * every folded reflection is the restriction of a product of commuting
      reflections over an h-side root orbit.
    """
    rs, aut = fd.homogeneous, fd.aut
    wh = WeylGroup.generate(rs)
    comm = _commutant_indices(wh, aut.permutation)
    orbits = permutation_cycles(aut.permutation)
    r = len(orbits)

    # restriction of every commutant element
    restricted = {}
    for i in comm:
        rm = _restrict_matrix(wh._flat[i], wh.dim, orbits)
        if rm is None:
            raise AssertionError("commutant element does not preserve the fixed subspace")
        restricted[i] = rm
    if len(set(restricted.values())) != len(comm):
        raise AssertionError("restriction map is not injective on W_h^C")

    # folded group generated by the restricted orbit products
    gen_flats = []
    for o in orbits:
        idx = _orbit_product_index(wh, list(o))
        gen_flats.append(restricted[idx])
    folded_type = classify(fold_coinvariants(fd).cartan_matrix())
    inv_vecs = _folded_coroot_vectors(fd, orbits)
    folded = WeylGroup(
        r,
        [RatMatrix(r, r, g) for g in gen_flats],
        *_bfs_closure(gen_flats, r, folded_type.weyl_order()),
        dtype=folded_type,
        root_system=None,
        invariant_vectors=inv_vecs,
    )

    if set(restricted.values()) != set(folded._flat):
        raise AssertionError(
            "restriction image differs from the generated folded Weyl group"
        )
    restrict = {i: folded.index_of(m) for i, m in restricted.items()}
    embed = {v: k for k, v in restrict.items()}

    # homomorphism spot-check on all generator pairs
    for i in comm[: min(len(comm), 50)]:
        for o in orbits:
            j = _orbit_product_index(wh, list(o))
            if restrict[wh.multiply(i, j)] != folded.multiply(restrict[i], restrict[j]):
                raise AssertionError("restriction is not multiplicative")

    reflection_products = _reflection_orbit_products(fd, wh, orbits, restrict)
    return FoldedWeylData(
        fd=fd,
        wh=wh,
        commutant=comm,
        orbits=orbits,
        folded=folded,
        embed=embed,
        restrict=restrict,
        reflection_products=reflection_products,
    )


def _folded_coroot_vectors(fd: FoldingDatum, orbits) -> list[tuple]:
    """Folded coroots (orbit sums of h-coroots) in orbit-basis coordinates."""
    rs = fd.homogeneous
    coords = rs.simple_coordinates()
    seen = set()
    out = []
    for root in rs.all_roots:
        # ADE: coroot coords = root coords
        s = tuple(map(sum, zip(*(coords[r] for r in fd.aut.orbit(root)))))
        if s in seen:
            continue
        seen.add(s)
        out.append(tuple(s[o[0]] for o in orbits))
    return out


def _reflection_orbit_products(fd, wh, orbits, restrict) -> dict:
    """For every C-orbit of h-roots, the product of the commuting reflections
    over the orbit; keyed by the folded index of its restriction."""
    rs = fd.homogeneous
    n = wh.dim
    reflection = _root_reflections(rs)
    out = {}
    seen_orbits = set()
    for root in rs.all_roots:
        orbit = fd.aut.orbit(root)
        key = frozenset(orbit) | frozenset(tuple(-x for x in r) for r in orbit)
        if key in seen_orbits:
            continue
        seen_orbits.add(key)
        prod = list(_flat_identity(n))
        for g in orbit:
            prod = kernel.mat_mul(prod, reflection(g), n, n, n)
        idx = wh.index_of(prod)
        if idx not in restrict:
            raise AssertionError("orbit reflection product does not commute with a")
        out[restrict[idx]] = (tuple(orbit), idx)
    return out


# -- chambers, regularity, orbits ------------------------------------------------


def root_pairing_rows(rs: RootSystem) -> list[tuple]:
    """<alpha, -> as a row vector on coroot coordinates, per positive root."""
    C = rs.cartan_matrix()
    coords = rs.simple_coordinates()
    return [combine_rows(coords[r], C) for r in rs.positive_roots()]


def is_regular(rs: RootSystem, v, pairing_rows=None) -> bool:
    rows = pairing_rows if pairing_rows is not None else root_pairing_rows(rs)
    return all(sum(a * b for a, b in zip(row, v)) != 0 for row in rows)


def is_dominant(rs: RootSystem, v) -> bool:
    """Closure of the fundamental chamber: all simple pairings >= 0."""
    C = rs.cartan_matrix()
    for i in range(rs.rank):
        if sum(C[i][j] * v[j] for j in range(rs.rank)) < 0:
            return False
    return True


def embed_fixed_point(fwd: FoldedWeylData, folded_coords) -> tuple:
    """A point of (V_h^*)^C from its orbit-basis coordinates."""
    v = [Fraction(0)] * fwd.wh.dim
    for c, o in zip(folded_coords, fwd.orbits):
        for i in o:
            v[i] = Fraction(c)
    return tuple(v)


def is_fixed_point(fwd: FoldedWeylData, v) -> bool:
    return _is_fixed(fwd.fd.aut.permutation, v)


def _is_fixed(perm, v) -> bool:
    """a v = v for the basis permutation a e_i = e_perm(i)."""
    return all(v[p] == x for p, x in zip(perm, v))


@dataclass
class MembershipDecision:
    orbit_equal: bool
    point_is_regular: bool
    w_in_folded_group: bool | None
    restriction: RatMatrix | None


def orbit_regular_membership(fwd: FoldedWeylData, t_point, w: int) -> MembershipDecision:
    """Check W(w t) = W(t) for t, wt in the fixed Cartan, and certify w in W
    (by exhibiting its restriction) when t is regular; w is an index into
    W_h."""
    wh = fwd.wh
    t = tuple(Fraction(x) for x in t_point)
    if not is_fixed_point(fwd, t):
        raise ValueError("t is not in the fixed Cartan subalgebra")
    wt = wh.apply(w, t)
    if not is_fixed_point(fwd, wt):
        raise ValueError("w t is not in the fixed Cartan subalgebra")
    orbit_t = {wh.apply(i, t) for i in fwd.commutant}
    orbit_wt = {wh.apply(i, wt) for i in fwd.commutant}
    equal = orbit_t == orbit_wt
    regular = is_regular(fwd.fd.homogeneous, t)
    w_in = None
    restriction = None
    if regular:
        w_in = w in fwd.restrict
        if w_in:
            restriction = fwd.folded.matrix(fwd.restrict[w])
    return MembershipDecision(equal, regular, w_in, restriction)


# -- sampling --------------------------------------------------------------------


def random_rational(rng: random.Random) -> Fraction:
    """Small random rational: numerator in [-9, 9], denominator in [1, 4]."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def random_fixed_point(fwd: FoldedWeylData, rng: random.Random,
                       regular: bool | None = None) -> tuple:
    rows = None if regular is None else root_pairing_rows(fwd.fd.homogeneous)
    while True:
        v = embed_fixed_point(fwd, [random_rational(rng) for _ in fwd.orbits])
        if regular is None:
            return v
        reg = all(sum(a * b for a, b in zip(row, v)) != 0 for row in rows)
        if reg == regular:
            return v


def _clear_denominators(*points) -> list[list]:
    """The points scaled by the lcm of all their denominators, as int lists:
    exact orbit and fixed-point tests then need integer arithmetic only."""
    d = lcm(*(x.denominator for p in points for x in p))
    return [[x.numerator * (d // x.denominator) for x in p] for p in points]


def _in_orbit(keys, flats, v, target) -> bool:
    """Whether w v == target for some element w, given by its key w^T rho
    and its flat matrix (``keys`` and ``flats`` in step), for integer
    vectors.

    rho . (w v) = (w^T rho) . v with rho = (1, ..., 1), so w v can equal
    target only where key_w . v == sum(target).  The filter drops no image
    equal to target, and each element passing it is confirmed by its full
    image: the answer is that of applying every matrix."""
    n = len(v)
    s = sum(target)
    return any(sum(map(mul, k, v)) == s and kernel.mat_vec(f, v, n, n) == target
               for k, f in zip(keys, flats))


def _moved_row_differences(flats, perm) -> list[tuple]:
    """Per flat n x n matrix w, row_i(w) - row_perm(i)(w) for the least
    index i that the basis permutation moves, or i = 0 if it moves none
    (the rows are equal and the difference vanishes)."""
    n = len(perm)
    i = next((i for i, p in enumerate(perm) if p != i), 0)
    a, b = i * n, perm[i] * n
    return [tuple(map(sub, f[a:a + n], f[b:b + n])) for f in flats]


def _class_fixed_and_hits(keys, row_differences, flats, perm, v) -> tuple:
    """(a v in W_h(v), some W_h-translate of v is fixed by a) for an integer
    vector v, with a e_i = e_perm(i) and W_h given by the keys, the
    ``_moved_row_differences`` and the flat matrices of its elements.

    Both searches are filtered exactly before an image is formed.  a v has
    the coordinates of v, so w v = a v needs key_w . v == sum(v), as in
    :func:`_in_orbit`.  An a-fixed w v has equal coordinates i and perm(i)
    for every i, so (row_i(w) - row_perm(i)(w)) . v == 0 for the index i of
    the row differences; for a trivial folding the difference is zero and
    every element passes, as every vector is fixed.  Each element passing a
    filter is confirmed on its full image."""
    n = len(v)
    av = [0] * n
    for i, p in enumerate(perm):
        av[p] = v[i]
    s = sum(v)
    fixed_class = hits = False
    for k, d, f in zip(keys, row_differences, flats):
        cls = not fixed_class and sum(map(mul, k, v)) == s
        hit = not hits and not sum(map(mul, d, v))
        if cls or hit:
            img = kernel.mat_vec(f, v, n, n)
            fixed_class = fixed_class or (cls and img == av)
            hits = hits or (hit and _is_fixed(perm, img))
            if fixed_class and hits:
                break
    return fixed_class, hits


def quotient_invariants_iso_check(fd: FoldingDatum, sample_count: int, seed: int,
                                  fwd: FoldedWeylData | None = None) -> Report:
    """Exact sample-based check of t/W = (t_h/W_h)^C:

    injectivity: for t, t' in the fixed Cartan, t' in W_h(t) iff t' in W(t),
    tested on t' = c t for a commutant element c and on independent t';
    surjectivity: a point t of t_h has a-class fixed in t_h/W_h (a t in
    W_h(t)) iff some W_h-translate of t lands in the fixed Cartan.

    Points are scaled to integer vectors once.  Every orbit test still runs
    over all of W_h or W, but reads one key dot product per element and
    applies the matrix only to the elements that pass that exact filter
    (see :func:`_in_orbit` and :func:`_class_fixed_and_hits`); every
    fixed-point test is a coordinate compare.
    """
    if fwd is None:
        fwd = folding_weyl_data(fd)
    rng = random.Random(seed)
    wh = fwd.wh
    n = wh.dim
    perm = fwd.fd.aut.permutation
    report = Report("quotient-invariants-iso")
    all_flats, all_keys = wh._flat, wh._keys
    folded_flats = [all_flats[i] for i in fwd.commutant]
    folded_keys = [all_keys[i] for i in fwd.commutant]
    row_differences = _moved_row_differences(all_flats, perm)

    def apply(f, v) -> list:
        return kernel.mat_vec(f, v, n, n)

    for case in range(sample_count):
        t = random_fixed_point(fwd, rng)
        (ti,) = _clear_denominators(t)
        # (a) W_h-translate of t that happens to lie in the fixed Cartan
        u = rng.randrange(wh.order)
        t2 = apply(all_flats[u], ti)
        if _is_fixed(perm, t2):
            if not _in_orbit(folded_keys, folded_flats, ti, t2):
                report.fail(f"case {case}: t={t}, w_h index {u}", "t' in W(t)",
                            "t' only in W_h(t)")
        # (b) a second point t'.  Even cases: t' = c t for a uniform
        # commutant element c, drawn from the folded group through ``embed``
        # and not from ``commutant``, so both memberships must hold.  Odd
        # cases: an independent point, and the two memberships must agree.
        if case % 2 == 0:
            c = fwd.embed[rng.randrange(fwd.folded.order)]
            tj, t3j = ti, apply(all_flats[c], ti)
        else:
            t3 = random_fixed_point(fwd, rng)
            tj, t3j = _clear_denominators(t, t3)
        in_big = _in_orbit(all_keys, all_flats, tj, t3j)
        in_small = _in_orbit(folded_keys, folded_flats, tj, t3j)
        if case % 2 == 0 and not (in_big and in_small):
            report.fail(f"case {case}: t={t}, t'=c t={wh.apply(c, t)}",
                        "t' in W_h(t) and W(t)", f"W_h: {in_big}, W: {in_small}")
        elif case % 2 and in_big != in_small:
            report.fail(f"case {case}: t={t}, t'={t3}", "memberships agree",
                        f"W_h: {in_big}, W: {in_small}")
        # (c) surjectivity: a C-fixed class in t_h/W_h comes from the fixed Cartan
        w = rng.randrange(wh.order)
        th = apply(all_flats[w], ti)
        class_fixed, translate_hits = _class_fixed_and_hits(
            all_keys, row_differences, all_flats, perm, th)
        if not (class_fixed and translate_hits):
            report.fail(f"case {case}: t_h={wh.apply(w, t)}",
                        "C-fixed class with translate in fixed Cartan",
                        f"fixed: {class_fixed}, translate: {translate_hits}")
        # (d) generic point of t_h: equivalence both ways
        tg = tuple(random_rational(rng) for _ in range(wh.dim))
        (tgi,) = _clear_denominators(tg)
        fixed_class, hits = _class_fixed_and_hits(
            all_keys, row_differences, all_flats, perm, tgi)
        if fixed_class != hits:
            report.fail(f"case {case}: generic t_h={tg}", "equivalence",
                        f"fixed class: {fixed_class}, hits: {hits}")
        report.cases_run += 4
    return report
