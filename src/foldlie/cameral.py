"""Combinatorial cameral covers: monodromy representations of punctured
surface groups into Weyl groups, Galois-cover geometry via Riemann-Hurwitz,
induction along the folding embedding W in W_h, and the pushforward-sections
rank checks.

A cover is its monodromy: the fiber is the Weyl group itself, deck
transformations act by left translation and monodromy by right translation,
so the two actions commute.  "Transversal" data has single reflections as
branch images."""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

from .exactalg import RatMatrix, nullspace
from .verify import Report
from .weyl import FoldedWeylData, WeylGroup


@dataclass
class CoverMonodromy:
    group: WeylGroup
    base_genus: int
    handle_images: list  # 2g element indices: a_1, b_1, ..., a_g, b_g
    branch_images: list  # element indices c_1..c_n

    def __post_init__(self):
        if self.base_genus < 0:
            raise ValueError("base genus must be >= 0")
        if len(self.handle_images) != 2 * self.base_genus:
            raise ValueError("need exactly 2g handle images")

    def all_images(self) -> list:
        return list(self.handle_images) + list(self.branch_images)


def _relation_product(g: WeylGroup, handles, branches) -> int:
    """prod_i [a_i, b_i] prod_k c_k for handles a_1, b_1, ..., a_g, b_g."""
    acc = g.identity_index()
    for a, b in zip(handles[::2], handles[1::2]):
        acc = g.multiply(acc, a)
        acc = g.multiply(acc, b)
        acc = g.multiply(acc, g.inverse(a))
        acc = g.multiply(acc, g.inverse(b))
    for c in branches:
        acc = g.multiply(acc, c)
    return acc


def validate_monodromy(cm: CoverMonodromy) -> CoverMonodromy:
    """Check the surface-group relation prod [a_i, b_i] prod c_k = 1 exactly;
    on failure the residual group element is reported.  For transversal
    covers every branch image must be a reflection."""
    g = cm.group
    acc = _relation_product(g, cm.handle_images, cm.branch_images)
    if acc != g.identity_index():
        raise ValueError(
            f"surface-group relation violated; residual element index {acc}: "
            f"{g.matrix(acc)!r}"
        )
    return cm


def is_transversal(cm: CoverMonodromy) -> bool:
    refl = set(cm.group.reflections())
    return all(c in refl for c in cm.branch_images)


@dataclass
class CoverGeometry:
    component_count: int
    component_genera: list
    total_genus: int | None
    ramification_profile: list  # per branch point: sorted cycle lengths
    euler_characteristic: int


def _image_permutations(cm: CoverMonodromy) -> dict:
    """Right-multiplication permutation of each distinct monodromy image."""
    g = cm.group
    return {c: g.right_multiplication_permutation(c) for c in dict.fromkeys(cm.all_images())}


def monodromy_subgroup(cm: CoverMonodromy) -> set:
    """Element indices of the subgroup generated by all monodromy images: the
    identity closed under right multiplication by each distinct image.  The
    group is finite, so no inverses are needed."""
    perms = list(_image_permutations(cm).values())
    ident = cm.group.identity_index()
    sub = {ident}
    frontier = [ident]
    for x in frontier:
        for p in perms:
            y = p[x]
            if y not in sub:
                sub.add(y)
                frontier.append(y)
    return sub


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


def _cycle_profile(perm, label, count: int) -> tuple:
    """(sorted cycle lengths of ``perm``, per orbit label the sheets minus the
    cycles there), walking each cycle once."""
    seen = bytearray(len(perm))
    lengths = []
    defects = [0] * count
    for start, done in enumerate(seen):
        if done:
            continue
        seen[start] = 1
        length, x = 1, perm[start]
        while x != start:
            seen[x] = 1
            x = perm[x]
            length += 1
        lengths.append(length)
        defects[label[start]] += length - 1
    lengths.sort()
    return lengths, defects


def cover_geometry(cm: CoverMonodromy) -> CoverGeometry:
    """Components (= orbits of the monodromy subgroup on the fiber) and their
    genera by exact Euler-characteristic bookkeeping, sheet by sheet.

    Each distinct monodromy image acts on the fiber by one right-multiplication
    permutation.  Components are labelled by one breadth-first search over
    those permutations.  The cycles of each distinct branch image are walked
    once for its ramification profile and the defect it adds to each
    component; repeated images reuse both."""
    validate_monodromy(cm)
    perms = _image_permutations(cm)
    label = _orbit_labels(cm.group.order, list(perms.values()))
    count = max(label) + 1
    sizes = [0] * count
    for k in label:
        sizes[k] += 1

    profiles = {}
    defects = [0] * count
    for c, times in Counter(cm.branch_images).items():
        profiles[c], image_defects = _cycle_profile(perms[c], label, count)
        for k, d in enumerate(image_defects):
            defects[k] += times * d

    genera = []
    chi_total = 0
    base_chi = 2 - 2 * cm.base_genus
    for size, defect in zip(sizes, defects):
        chi = size * base_chi - defect
        if chi % 2:
            raise AssertionError("odd Euler characteristic of a component")
        genera.append(1 - chi // 2)
        chi_total += chi
    return CoverGeometry(
        component_count=count,
        component_genera=genera,
        total_genus=genera[0] if count == 1 else None,
        ramification_profile=[profiles[c] for c in cm.branch_images],
        euler_characteristic=chi_total,
    )


# -- induction along the folding embedding ------------------------------------------


def induce_cover(cm: CoverMonodromy, fwd: FoldedWeylData) -> CoverMonodromy:
    """View a W-cover as a W_h-cover via (Sigma~ x W_h)/W: same monodromy
    elements pushed through the folding embedding; the local monodromies
    become the products of commuting reflections over the h-side root
    orbits."""
    if cm.group is not fwd.folded:
        raise ValueError("cover monodromy must live in the folded Weyl group")
    validate_monodromy(cm)
    embed = fwd.embed
    handles = [embed[i] for i in cm.handle_images]
    branches = [embed[i] for i in cm.branch_images]
    for c in cm.branch_images:
        if c in fwd.reflection_products:
            orbit, wh_idx = fwd.reflection_products[c]
            if embed[c] != wh_idx:
                raise AssertionError(
                    "induced local monodromy differs from the orbit reflection product"
                )
    return CoverMonodromy(
        group=fwd.wh,
        base_genus=cm.base_genus,
        handle_images=handles,
        branch_images=branches,
    )


def induced_components_isomorphic(cm: CoverMonodromy, induced: CoverMonodromy,
                                  fwd: FoldedWeylData) -> Report:
    """Each component of the induced cover, via the coset-representative
    inclusions, is isomorphic to the original W-cover: the bijection
    w -> w_j * w intertwines every monodromy permutation exactly."""
    report = Report("induced-components")
    wh, folded = fwd.wh, fwd.folded
    embedded = [fwd.embed[i] for i in range(folded.order)]
    emb_set = set(embedded)
    # coset representatives: one per component of the induced fiber
    reps, seen = [], set()
    for i in range(wh.order):
        if i in seen:
            continue
        coset = {wh.multiply(i, e) for e in embedded}
        seen |= coset
        reps.append(i)
    expected = wh.order // folded.order
    report.expect(len(reps) == expected, "coset count", expected, len(reps))
    images = cm.all_images()
    for wj in reps:
        phi = {w: wh.multiply(wj, fwd.embed[w]) for w in range(folded.order)}
        for c in images:
            pf = folded.right_multiplication_permutation(c)
            ph = wh.right_multiplication_permutation(fwd.embed[c])
            report.expect(all(ph[phi[w]] == phi[pf[w]] for w in range(folded.order)),
                          f"coset rep {wj}, monodromy {c}", "intertwined permutations",
                          "mismatch")
    return report


# -- equivariant sections -----------------------------------------------------------


def _fixed_space_basis(mats: list[RatMatrix]) -> list[tuple]:
    """Basis of the common fixed space of a list of matrices."""
    if not mats:
        raise ValueError("empty generator list")
    d = mats[0].rows
    if d == 0:
        return []
    rows = []
    for m in mats:
        delta = m - RatMatrix.identity(d)
        rows.extend(delta.to_rows())
    return [tuple(v.col(0)) for v in nullspace(RatMatrix.from_rows(rows))]


def _least_elements(label) -> list[int]:
    """The least element of each coset, in label order."""
    reps = []
    for w, k in enumerate(label):
        if k == len(reps):
            reps.append(w)
    return reps


def section_value_tables(group: WeylGroup, local_monodromy: int | None,
                         lattice_action: Mapping) -> tuple[list[int], list[list]]:
    """The fiber W/<c> over a point with local monodromy c (None: a generic
    point, c = 1), and a basis of Hom_group(W/<c>, Lambda) as value tables.
    The fiber is the coset label of each element, numbered by least element:
    the orbits of right multiplication by c.  A table holds one lattice
    vector per coset, in label order.

    Left translation is transitive on W/<c>, and the coset <c> has
    stabilizer <c>.  So a section is a vector v fixed by c, with value t v at
    the coset t<c>, read at the coset's least element t."""
    c = group.identity_index() if local_monodromy is None else local_monodromy
    label = _orbit_labels(group.order, [group.right_multiplication_permutation(c)])
    mats = [lattice_action[t] for t in _least_elements(label)]
    return label, [[m.apply(v) for m in mats]
                   for v in _fixed_space_basis([lattice_action[c]])]


class _ElementMatrices(Mapping):
    """Element index -> matrix, over a group's elements; each
    :class:`RatMatrix` is built from its word when first read and kept for
    the life of the mapping, as a check reads the same cosets' matrices at
    every branch point."""

    def __init__(self, group: WeylGroup):
        self._group = group
        self._built: dict = {}

    def __getitem__(self, i) -> RatMatrix:
        m = self._built.get(i)
        if m is None:
            if not 0 <= i < self._group.order:
                raise KeyError(i)
            m = self._built[i] = self._group.matrix(i)
        return m

    def __len__(self) -> int:
        return self._group.order

    def __iter__(self):
        return iter(range(self._group.order))


def own_lattice_action(group: WeylGroup) -> Mapping:
    return _ElementMatrices(group)


def embedded_lattice_action(fwd: FoldedWeylData) -> dict:
    """The rank-r_h lattice of the homogeneous side, as a module over the
    folded group via the embedding."""
    n = fwd.wh.dim
    flats = fwd.wh.flat_matrices([fwd.embed[i] for i in range(fwd.folded.order)])
    return {i: RatMatrix.from_integers(n, n, f) for i, f in enumerate(flats)}


def pushforward_sections_check(cm: CoverMonodromy, fwd: FoldedWeylData) -> Report:
    """Prop-level check: over a generic fiber and over every branch-point
    type, the W_h-equivariant sections of the induced fiber with values in
    Lambda_h and the W-equivariant sections of the original fiber with the
    same values have equal rank, and restriction to the distinguished copy
    (f -> f_1) is a bijection."""
    report = Report("pushforward-sections")
    validate_monodromy(cm)
    wh, folded = fwd.wh, fwd.folded
    act_h = own_lattice_action(wh)
    act_w = embedded_lattice_action(fwd)

    local_cases = [None] + sorted(set(cm.branch_images))
    for c in local_cases:
        report.cases_run += 1
        ch = None if c is None else fwd.embed[c]
        label_w, tables_w = section_value_tables(folded, c, act_w)
        label_h, tables_h = section_value_tables(wh, ch, act_h)
        where = f"fiber at local monodromy {c}"
        if len(tables_w) != len(tables_h):
            report.fail(where, "equal ranks", f"W: {len(tables_w)}, W_h: {len(tables_h)}")
            continue
        # the embedding of fiber points: the W-coset of w -> the W_h-coset
        # of embed(w)
        point_map = [label_h[fwd.embed[t]] for t in _least_elements(label_w)]
        restricted = [[x for p in point_map for x in th[p]] for th in tables_h]
        w_rows = [[x for value in tw for x in value] for tw in tables_w]
        rank_w = RatMatrix.from_rows(w_rows).rank() if w_rows else 0
        rank_restr = RatMatrix.from_rows(restricted).rank() if restricted else 0
        rank_union = (
            RatMatrix.from_rows(w_rows + restricted).rank() if w_rows + restricted else 0
        )
        if rank_w != len(tables_w):
            report.fail(where, "independent W-section basis", f"rank {rank_w}")
        if not (rank_restr == len(tables_h) == rank_w and rank_union == rank_w):
            report.fail(where, "f -> f_1 a bijection onto the W-sections",
                        f"restricted rank {rank_restr}, union rank {rank_union}")
    return report


# -- H^1 rank of the pushed-forward lattice ---------------------------------------------


def monodromy_fixed_space(cm: CoverMonodromy, lattice_action: Mapping) -> list[tuple]:
    """Basis of the lattice vectors fixed by the whole monodromy group: the
    common fixed space of the distinct images, which generate it.  The
    identity joins them, so that a cover without images fixes every vector."""
    images = dict.fromkeys([cm.group.identity_index(), *cm.all_images()])
    return _fixed_space_basis([lattice_action[i] for i in images])


def hitchin_fiber_rank(cm: CoverMonodromy, lattice_action: Mapping) -> int:
    """rank H^1(Sigma, (p_* Lambda)^W) by the Euler characteristic of the
    constructible sheaf of equivariant sections: the generic stalk has the
    full lattice rank, the stalk at a branch point is the local-monodromy
    fixed part.  H^0 (global invariants under the full monodromy group) must
    vanish, otherwise the computation needs a correction term and errors
    out."""
    validate_monodromy(cm)
    h0 = len(monodromy_fixed_space(cm, lattice_action))
    if h0 != 0:
        raise ValueError(
            f"H^0 is nonzero (rank {h0}); the Euler-characteristic formula "
            "does not directly give rank H^1"
        )
    d = lattice_action[cm.group.identity_index()].rows
    rank0 = d
    chi = (2 - 2 * cm.base_genus) * rank0
    for c in cm.branch_images:
        rank_c = len(_fixed_space_basis([lattice_action[c]]))
        chi -= rank0 - rank_c
    return -chi


# -- random transversal data ---------------------------------------------------------


def reflection_length_classes(fwd: FoldedWeylData) -> dict:
    """Folded reflections grouped by the size of the h-side root orbit
    (1 = long folded roots, >1 = short)."""
    out: dict = {}
    for refl_idx, (orbit, _) in fwd.reflection_products.items():
        out.setdefault(len(orbit), []).append(refl_idx)
    return out


def transversal_branch_spec(fwd: FoldedWeylData, genus: int) -> dict:
    """Branch counts of a transversal section, keyed by h-side orbit size:
    each folded root meets the section 2g - 2 times, so a class with r
    reflections (2r roots) gets 2r(2g - 2) branch points.  The total
    |R|(2g - 2) is the count that makes rank H^1((p_* Lambda)^W) = 2 dim B.
    For (A3, Z/2) this is ``hitchin.folded_branch_spec``."""
    return {cls: 2 * len(refls) * (2 * genus - 2)
            for cls, refls in reflection_length_classes(fwd).items()}


def random_transversal_monodromy(fwd: FoldedWeylData, genus: int,
                                 branch_spec, rng: random.Random,
                                 require_full: bool = True) -> CoverMonodromy:
    """Random transversal monodromy data: reflections per the prescribed
    class counts, the last one corrected so the surface-group relation
    holds; resampled until the correction is a reflection of the right class
    and (for covers of connected cameral curves) the images generate the
    whole Weyl group."""
    folded = fwd.folded
    classes = reflection_length_classes(fwd)
    pools = []
    for cls, count in sorted(branch_spec.items()):
        if cls not in classes:
            raise ValueError(f"no reflections with orbit size {cls}")
        pools.extend([cls] * count)
    if not pools:
        raise ValueError("need at least one branch point to correct the relation")
    for _ in range(10_000):
        handles = [rng.randrange(folded.order) for _ in range(2 * genus)]
        branches = [rng.choice(classes[cls]) for cls in pools[:-1]]
        last = folded.inverse(_relation_product(folded, handles, branches))
        if last not in classes[pools[-1]]:
            continue
        cm = CoverMonodromy(folded, genus, handles, branches + [last])
        if require_full and len(monodromy_subgroup(cm)) != folded.order:
            continue
        return cm
    raise RuntimeError("failed to sample transversal monodromy data")
