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
from operator import itemgetter, mul

from . import kernel
from .exactalg import RatMatrix, _integer_vector
from .rootsys import (
    FoldingDatum,
    RootSystem,
    classify,
    combine_rows,
    fold_coinvariants,
    permutation_cycles,
)
from .verify import Report

ENUMERATION_BUDGET = 60_000


class EnumerationBudgetExceeded(ValueError):
    """A refusal of the input: its Weyl group exceeds ENUMERATION_BUDGET."""


def _flat_identity(n: int) -> tuple:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


class WeylGroup:
    """A fully enumerated reflection group of exact integer matrices, held
    as the keys, words and Cayley graph of the closure that enumerated it;
    no element's matrix is stored.

    Element w is indexed by its key w^T rho, with rho = (1, ..., 1) in the
    basis dual to the acting one: the column sums of w.  rho is regular, so
    the key is injective (checked at construction).  :meth:`index_of` and
    :meth:`contains` confirm the matrix built for the key entry by entry.

    ``edges[g][i]`` is the index of w_i g for generator g, and ``words[i]``
    spells w_i in the generators: its parent in the closure tree, which has
    a lower index, is ``edges[g][i]`` for the last letter g.  A product
    w_i w_j walks the edges along the word of w_j, an inverse along the
    reversed word (the generators are involutions), and a right-multiplication
    permutation composes the edge lists along a word: no matrix arithmetic.

    An element is its index outside this module.  :meth:`apply` walks its
    word on a vector, and :meth:`flat_matrices` is the one place a matrix is
    built from a word.

    ``invariant_vectors`` is the coroot set in the acting coordinates; every
    element must permute it (checked by :meth:`verify`).
    """

    def __init__(self, dim, generators, words, keys, edges, dtype=None,
                 root_system=None, invariant_vectors=None):
        self.dim = dim
        self.generators = generators
        self._moved = [_moved_rows(_flat_key(g), dim) for g in generators]
        self._keys = keys
        self._index = {k: i for i, k in enumerate(keys)}
        if len(self._index) != len(keys):
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
        self._identity = words.index(())

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
        return len(self._keys)

    def flat_matrices(self, indices) -> list[tuple]:
        """The flat integer matrices of the elements ``indices``, in order,
        each from its parent in the closure tree by :func:`_times_generator`;
        an ancestor is built once per call and dropped with it."""
        n, words, edges, moved = self.dim, self._words, self._edges, self._moved
        built = {self._identity: _flat_identity(n)}
        out = []
        for i in indices:
            path = []
            while i not in built:
                path.append(i)
                i = edges[words[i][-1]][i]
            w = built[i]
            for j in reversed(path):
                w = built[j] = _times_generator(w, moved[words[j][-1]], n)
            out.append(w)
        return out

    def matrix(self, i: int) -> RatMatrix:
        """Element i as a :class:`RatMatrix`, built anew on each call."""
        (flat,) = self.flat_matrices((i,))
        return RatMatrix.from_integers(self.dim, self.dim, flat)

    def word(self, i: int) -> tuple:
        """Element i as a word in the generators (indices into ``generators``)."""
        return self._words[i]

    def _find(self, matrix):
        """Index of ``matrix`` (a RatMatrix or flat sequence), or None."""
        flat = _flat_key(matrix)
        if flat is None:
            return None
        idx = self._index.get(_key(flat, self.dim))
        return idx if idx is not None and self.flat_matrices((idx,)) == [flat] else None

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
        """w_i vec, walked along the word of w_i from its last letter: a
        generator g changes only its moved rows r, to v_r + (row r of g -
        e_r) . v."""
        v = list(vec)
        moved = self._moved
        for g in reversed(self._words[i]):
            rows = [(r, v[r] + sum(c * v[j] for j, c in row)) for r, row in moved[g]]
            for r, x in rows:
                v[r] = x
        return tuple(v)

    def transposed_images(self, covector) -> list[tuple]:
        """w^T covector for every element w, in index order, by the
        closure's key update along the closure tree: (w g)^T x = g^T (w^T x)."""
        words, edges, moved = self._words, self._edges, self._moved
        out = [None] * self.order
        for i, word in enumerate(words):
            out[i] = (_transposed_step(out[edges[word[-1]][i]], moved[word[-1]])
                      if word else tuple(covector))
        return out

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
            inv, n = self.inverse_permutation(), self.order
            label = _orbit_labels(n, [[inv[e[inv[e[w]]]] for w in range(n)]
                                      for e in self._edges])
            classes = [[] for _ in range(max(label) + 1)]
            for w, k in enumerate(label):
                classes[k].append(w)
            self._classes = tuple(map(tuple, classes))
        return self._classes

    def reflections(self) -> list[int]:
        """Indices of elements acting as reflections (order 2, fixed space of
        codimension 1)."""
        inv = self.inverse_permutation()
        n, eye = self.dim, RatMatrix.identity(self.dim)
        involutions = [i for i in range(self.order) if inv[i] == i != self._identity]
        return [i for i, f in zip(involutions, self.flat_matrices(involutions))
                if (RatMatrix.from_integers(n, n, f) - eye).rank() == 1]

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
            n, vecs = self.dim, set(self.invariant_vectors)
            for f in self.flat_matrices(range(self.order)):
                for v in self.invariant_vectors:
                    if tuple(kernel.mat_vec(f, v, n, n)) not in vecs:
                        raise AssertionError("element does not permute the coroot set")


def _orbit_labels(n: int, perms) -> list[int]:
    """Orbit label of each of range(n) under the permutations, numbered by
    least element: one breadth-first search."""
    label = [-1] * n
    count = 0
    for start in range(n):
        if label[start] >= 0:
            continue
        label[start] = count
        orbit = [start]
        for x in orbit:
            for p in perms:
                y = p[x]
                if label[y] < 0:
                    label[y] = count
                    orbit.append(y)
        count += 1
    return label


def _flat_key(matrix):
    """The flat integer tuple of a group element given as a RatMatrix or a
    flat sequence; None for a RatMatrix with a non-integer entry."""
    if not isinstance(matrix, RatMatrix):
        return tuple(matrix)
    nums, d = matrix._integer_form()
    return nums if d == 1 else None


def _key(flat, n) -> tuple:
    """w^T rho for rho = (1, ..., 1): the column sums of the flat matrix w."""
    return tuple([sum(flat[j::n]) for j in range(n)])


def _moved_rows(g, n) -> list:
    """The rows i where the flat n x n matrix g differs from the identity,
    as (i, [(j, g[i, j] - [i == j]) for the non-zero differences])."""
    rows = [[(j, g[i * n + j] - (i == j)) for j in range(n)] for i in range(n)]
    return [(i, [(j, c) for j, c in row if c]) for i, row in enumerate(rows)
            if any(c for _, c in row)]


def _transposed_step(k, moved) -> tuple:
    """g^T k for a generator g given by its moved rows (:func:`_moved_rows`)."""
    nk = list(k)
    for i, row in moved:
        ki = k[i]
        for j, c in row:
            nk[j] += c * ki
    return tuple(nk)


def _times_generator(w, moved, n) -> tuple:
    """w g for a flat n x n matrix w and a generator g given by its moved
    rows: w g = w + sum_i (column i of w)(row i of g - e_i), so only the
    columns j with a non-zero entry in a moved row change."""
    wg = list(w)
    for i, row in moved:
        col = w[i::n]
        for j, c in row:
            wg[j::n] = [x + c * y for x, y in zip(wg[j::n], col)]
    return tuple(wg)


def _bfs_closure(gens, n, order):
    """The group generated by the involutions ``gens`` (flat n x n integer
    matrices) as (words, keys, edges), breadth first by right
    multiplication; ``edges[g][i]`` is the index of w_i g, so the edges are
    the Cayley graph the closure walks.

    Elements are told apart by their key w^T rho, rho = (1, ..., 1), which is
    injective when rho is regular for the dual action: so it is when the
    basis consists of simple coroots or of orbit sums of them.  As
    (w g)^T rho = g^T (w^T rho), an edge is a sparse key update and no
    matrix is formed.  A closure of any size but ``order`` raises: rho was
    not regular, or ``gens`` do not generate a group of that order."""
    moved = []
    for g in gens:
        if tuple(kernel.mat_mul(g, g, n, n, n)) != _flat_identity(n):
            raise AssertionError("generator is not an involution")
        moved.append(_moved_rows(g, n))
    words, keys = [()], [(1,) * n]
    seen = {keys[0]: 0}
    # w g g = w, so the edge from w_i to w_j = w_i g is also the one back:
    # each pair is computed once, from the element reached first.
    edges = [[None] * order for _ in gens]
    idx = 0
    while idx < len(keys):
        k = keys[idx]
        for gi, (delta, edge) in enumerate(zip(moved, edges)):
            if edge[idx] is not None:
                continue
            nk = _transposed_step(k, delta)
            target = seen.get(nk)
            if target is None:
                if len(keys) == order:
                    raise AssertionError(f"closure exceeds {order} elements")
                target = seen[nk] = len(keys)
                keys.append(nk)
                words.append(words[idx] + (gi,))
            edge[idx] = target
            edge[target] = idx
        idx += 1
    if len(keys) != order:
        raise AssertionError(f"closure has {len(keys)} elements, expected {order}")
    return words, keys, edges


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
        return self.restrict[folded_reflection(self.wh, self.orbits[orbit_index])]


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
    its entries, and the key of a w a^-1 is the key of w with coordinate j
    moved to perm(j).  As a normalizes W_h, a w a^-1 is an element, and keys
    are injective: so aw = wa exactly when the key of w is constant on the
    orbits of perm, a comparison of key coordinates, no matrix."""
    n = wh.dim
    src = [perm[i] * n + perm[j] for i in range(n) for j in range(n)]
    for g in wh.generators:
        conj = [0] * (n * n)
        for s, x in zip(src, _flat_key(g)):
            conj[s] = x
        if not wh.contains(conj):
            raise ValueError("automorphism does not normalize the Weyl group")
    return [i for i, k in enumerate(wh._keys) if _is_fixed(perm, k)]


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
    return wh._walk(wh.identity_index(), orbit)


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
    for i, flat in zip(comm, wh.flat_matrices(comm)):
        rm = _restrict_matrix(flat, wh.dim, orbits)
        if rm is None:
            raise AssertionError("commutant element does not preserve the fixed subspace")
        restricted[i] = rm
    if len(set(restricted.values())) != len(comm):
        raise AssertionError("restriction map is not injective on W_h^C")

    # folded group generated by the restricted orbit products
    products = [wh._walk(wh.identity_index(), o) for o in orbits]
    gen_flats = [restricted[j] for j in products]
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

    # restriction is injective, so it maps onto the folded group exactly
    # when every restricted matrix is the folded element with its key and
    # the two groups have one order
    folded_flats = folded.flat_matrices(range(folded.order))
    restrict = {i: folded._index.get(_key(m, r)) for i, m in restricted.items()}
    if len(comm) != folded.order or any(
            j is None or folded_flats[j] != restricted[i] for i, j in restrict.items()):
        raise AssertionError(
            "restriction image differs from the generated folded Weyl group"
        )
    embed = {v: k for k, v in restrict.items()}

    # homomorphism spot-check on all generator pairs
    for i in comm[: min(len(comm), 50)]:
        for j in products:
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


def is_regular(rs: RootSystem, v) -> bool:
    """<alpha, v> != 0 for every positive root alpha, v in coroot coordinates."""
    C = rs.cartan_matrix()
    coords = rs.simple_coordinates()
    return all(sum(map(mul, combine_rows(coords[r], C), v)) != 0
               for r in rs.positive_roots())


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


def random_fixed_point(fwd: FoldedWeylData, rng: random.Random) -> tuple:
    """A point of (V_h^*)^C with :func:`random_rational` orbit coordinates."""
    return embed_fixed_point(fwd, [random_rational(rng) for _ in fwd.orbits])


def _in_orbit(wh: WeylGroup, indices, v, target) -> bool:
    """Whether w v == target for some element w of ``wh`` among ``indices``,
    for integer vectors.

    rho . (w v) = (w^T rho) . v with rho = (1, ..., 1), so w v can equal
    target only where key_w . v == sum(target).  The filter drops no image
    equal to target, and each element passing it is confirmed by its full
    image: the answer is that of applying every element."""
    keys, s, target = wh._keys, sum(target), tuple(target)
    return any(sum(map(mul, keys[i], v)) == s and wh.apply(i, v) == target
               for i in indices)


def _class_fixed_and_hits(wh: WeylGroup, row_differences, perm, v) -> tuple:
    """(a v in W_h(v), some W_h-translate of v is fixed by a) for an integer
    vector v, with a e_i = e_perm(i) and ``row_differences`` the covectors
    w^T (e_i - e_perm(i)) of the elements w of W_h, for one index i.

    Both searches are filtered exactly before an image is formed.  a v has
    the coordinates of v, so w v = a v needs key_w . v == sum(v), as in
    :func:`_in_orbit`.  An a-fixed w v has equal coordinates i and perm(i)
    for every i, so (w^T (e_i - e_perm(i))) . v == 0; for a trivial folding
    the difference is zero and every element passes, as every vector is
    fixed.  Each element passing a filter is confirmed on its full image."""
    av = [0] * len(v)
    for i, p in enumerate(perm):
        av[p] = v[i]
    av = tuple(av)
    s = sum(v)
    fixed_class = hits = False
    for i, (k, d) in enumerate(zip(wh._keys, row_differences)):
        cls = not fixed_class and sum(map(mul, k, v)) == s
        hit = not hits and not sum(map(mul, d, v))
        if cls or hit:
            img = wh.apply(i, v)
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
    applies only the elements that pass that exact filter, each by walking
    its word (see :func:`_in_orbit` and :func:`_class_fixed_and_hits`);
    every fixed-point test is a coordinate compare.
    """
    if fwd is None:
        fwd = folding_weyl_data(fd)
    rng = random.Random(seed)
    wh, comm = fwd.wh, fwd.commutant
    everything = range(wh.order)
    perm = fwd.fd.aut.permutation
    report = Report("quotient-invariants-iso")
    # w^T (e_i - e_perm(i)) for the least index i that a moves (none: zero)
    moved = next((i for i, p in enumerate(perm) if p != i), 0)
    difference = [0] * wh.dim
    difference[moved] += 1
    difference[perm[moved]] -= 1
    row_differences = wh.transposed_images(difference)

    for case in range(sample_count):
        t = random_fixed_point(fwd, rng)
        ti = _integer_vector(t)[0]
        # (a) W_h-translate of t that happens to lie in the fixed Cartan
        u = rng.randrange(wh.order)
        t2 = wh.apply(u, ti)
        if _is_fixed(perm, t2):
            if not _in_orbit(wh, comm, ti, t2):
                report.fail(f"case {case}: t={t}, w_h index {u}", "t' in W(t)",
                            "t' only in W_h(t)")
        # (b) a second point t'.  Even cases: t' = c t for a uniform
        # commutant element c, drawn from the folded group through ``embed``
        # and not from ``commutant``, so both memberships must hold.  Odd
        # cases: an independent point, and the two memberships must agree.
        if case % 2 == 0:
            c = fwd.embed[rng.randrange(fwd.folded.order)]
            tj, t3j = ti, wh.apply(c, ti)
        else:
            t3 = random_fixed_point(fwd, rng)
            both = _integer_vector(t + t3)[0]
            tj, t3j = both[:wh.dim], both[wh.dim:]
        in_big = _in_orbit(wh, everything, tj, t3j)
        in_small = _in_orbit(wh, comm, tj, t3j)
        if case % 2 == 0 and not (in_big and in_small):
            report.fail(f"case {case}: t={t}, t'=c t={wh.apply(c, t)}",
                        "t' in W_h(t) and W(t)", f"W_h: {in_big}, W: {in_small}")
        elif case % 2 and in_big != in_small:
            report.fail(f"case {case}: t={t}, t'={t3}", "memberships agree",
                        f"W_h: {in_big}, W: {in_small}")
        # (c) surjectivity: a C-fixed class in t_h/W_h comes from the fixed Cartan
        w = rng.randrange(wh.order)
        th = wh.apply(w, ti)
        class_fixed, translate_hits = _class_fixed_and_hits(wh, row_differences, perm, th)
        if not (class_fixed and translate_hits):
            report.fail(f"case {case}: t_h={wh.apply(w, t)}",
                        "C-fixed class with translate in fixed Cartan",
                        f"fixed: {class_fixed}, translate: {translate_hits}")
        # (d) generic point of t_h: equivalence both ways
        tg = tuple(random_rational(rng) for _ in range(wh.dim))
        tgi = _integer_vector(tg)[0]
        fixed_class, hits = _class_fixed_and_hits(wh, row_differences, perm, tgi)
        if fixed_class != hits:
            report.fail(f"case {case}: generic t_h={tg}", "equivalence",
                        f"fixed class: {fixed_class}, hits: {hits}")
        report.cases_run += 4
    return report
