"""Combinatorial cameral covers: monodromy representations of punctured
surface groups into Weyl groups, Galois-cover geometry via Riemann-Hurwitz,
induction along the folding embedding W in W_h, the stalk check of the
equivariant sections of the pushed-forward lattice, and its H^1 rank.

A cover is its monodromy: the fiber is the Weyl group itself, deck
transformations act by left translation and monodromy by right translation,
so the two actions commute.  "Transversal" data has single reflections as
branch images."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from . import kernel
from .exactalg import RatMatrix, nullspace
from .verify import Report
from .weyl import FoldedWeylData, WeylGroup, _orbit_labels


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
    on failure the residual group element is reported."""
    g = cm.group
    acc = _relation_product(g, cm.handle_images, cm.branch_images)
    if acc != g.identity_index():
        raise ValueError(
            f"surface-group relation violated; residual element index {acc}: "
            f"{g.matrix(acc)!r}"
        )
    return cm


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
    orbit of the identity under right multiplication by each distinct image.
    The group is finite, so no inverses are needed."""
    label = _orbit_labels(cm.group.order, list(_image_permutations(cm).values()))
    own = label[cm.group.identity_index()]
    return {w for w, k in enumerate(label) if k == own}


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
    """Integer basis of the common fixed space of a list of matrices: each
    nullspace vector as its primitive integer numerators."""
    if not mats:
        raise ValueError("empty generator list")
    d = mats[0].rows
    rows = []
    for m in mats:
        rows.extend((m - RatMatrix.identity(d)).to_rows())
    return [tuple(v._integer_form()[0]) for v in nullspace(RatMatrix.from_rows(rows))]


def _least_elements(label) -> list[int]:
    """The least element of each coset, in label order."""
    reps = []
    for w, k in enumerate(label):
        if k == len(reps):
            reps.append(w)
    return reps


def _embedded_matrices(fwd: FoldedWeylData) -> list[tuple]:
    """The flat integer matrix of embed(t) on Lambda_h for every t in W, in
    index order, from one :meth:`WeylGroup.flat_matrices` call, so every
    ancestor in the closure tree of W_h is built once."""
    return fwd.wh.flat_matrices([fwd.embed[t] for t in range(fwd.folded.order)])


def section_value_tables(fwd: FoldedWeylData, local_monodromy: int | None,
                         embedded: list[tuple]) -> tuple[list[int], list[list]]:
    """The fiber W/<c> over a point with local monodromy c (None: a generic
    point, c = 1), and a basis of Hom_W(W/<c>, Lambda_h) as value tables,
    W acting on the lattice Lambda_h of the homogeneous side through the
    folding embedding.  The fiber is the coset label of each element,
    numbered by least element: the orbits of right multiplication by c.  A
    table holds one integer vector per coset, in label order.

    Left translation is transitive on W/<c>, and the coset <c> has
    stabilizer <c>.  So a section is a vector v fixed by c, with value t v at
    the coset t<c>, read at the coset's least element t.  The matrices of c
    and of the least elements are read from ``embedded``, the output of
    :func:`_embedded_matrices`."""
    folded, n = fwd.folded, fwd.wh.dim
    c = folded.identity_index() if local_monodromy is None else local_monodromy
    label = _orbit_labels(folded.order, [folded.right_multiplication_permutation(c)])
    basis = _fixed_space_basis([RatMatrix.from_integers(n, n, embedded[c])])
    flats = [embedded[t] for t in _least_elements(label)]
    return label, [[tuple(kernel.mat_vec(f, v, n, n)) for f in flats] for v in basis]


def pushforward_sections_check(cm: CoverMonodromy, fwd: FoldedWeylData) -> Report:
    """Stalk check of the pushed-forward lattice: over a generic point and
    over each distinct local monodromy c, the value tables of
    :func:`section_value_tables` are W-equivariant sections of W/<c> with
    values in Lambda_h, and a basis of them.  One case per stalk, in which

    * the value at the coset <c> is fixed by c (applied along its word);
    * there are dim Lambda_h - rank(c - 1) tables, and they are independent;
    * f(s p) = s f(p) for every folded generator s and every point p, with
      s p by the group's left translate and s f(p) by the word of embed(s).

    The W_h side holds by construction: by Frobenius reciprocity
    Hom_{W_h}(W_h/<c>, Lambda_h) = Lambda_h^c = Hom_W(W/<c>, Lambda_h), and
    restriction to the distinguished copy of W/<c> (f -> f_1) is that
    bijection.  What can fail is the W-side sections themselves."""
    report = Report("pushforward-sections")
    validate_monodromy(cm)
    wh, folded, embed = fwd.wh, fwd.folded, fwd.embed
    ident = folded.identity_index()
    gens = [folded.index_of(g) for g in folded.generators]
    n = wh.dim
    eye = RatMatrix.identity(n)
    embedded = _embedded_matrices(fwd)
    for c in [None, *sorted(set(cm.branch_images))]:
        report.cases_run += 1
        where = f"fiber at local monodromy {c}"
        label, tables = section_value_tables(fwd, c, embedded)
        ch = ident if c is None else c
        base = label[ident]
        if any(wh.apply(embed[ch], t[base]) != t[base] for t in tables):
            report.fail(where, "value at <c> fixed by c", "a moved value")
        fixed_dim = n - (RatMatrix.from_integers(n, n, embedded[ch]) - eye).rank()
        rank = RatMatrix.from_rows([[x for v in t for x in v] for t in tables]).rank()
        if not len(tables) == rank == fixed_dim:
            report.fail(where, f"{fixed_dim} independent sections",
                        f"{len(tables)} of rank {rank}")
        reps = _least_elements(label)
        for s in gens:
            moved = [label[folded.multiply(s, t)] for t in reps]
            if any(t[q] != wh.apply(embed[s], t[p]) for t in tables
                   for p, q in enumerate(moved)):
                report.fail(where, f"sections equivariant under generator {s}",
                            "f(s p) != s f(p)")
    return report


# -- H^1 rank of the pushed-forward lattice ---------------------------------------------


def hitchin_fiber_rank(cm: CoverMonodromy) -> int:
    """rank H^1(Sigma, (p_* Lambda)^W) by the Euler characteristic of the
    constructible sheaf of equivariant sections, W acting on its own
    lattice: the generic stalk has the full lattice rank, the stalk at a
    branch point is the local-monodromy fixed part, taken once per distinct
    branch image.  H^0 (global invariants under the full monodromy group:
    the common fixed space of the distinct images, which generate it, and
    of the identity, so that a cover without images fixes every vector)
    must vanish, otherwise the computation needs a correction term and
    errors out.  The matrices of the distinct images come from one
    :meth:`WeylGroup.flat_matrices` call and serve both."""
    validate_monodromy(cm)
    g = cm.group
    images = list(dict.fromkeys([g.identity_index(), *cm.all_images()]))
    matrices = {i: RatMatrix.from_integers(g.dim, g.dim, f)
                for i, f in zip(images, g.flat_matrices(images))}
    h0 = len(_fixed_space_basis(list(matrices.values())))
    if h0 != 0:
        raise ValueError(
            f"H^0 is nonzero (rank {h0}); the Euler-characteristic formula "
            "does not directly give rank H^1"
        )
    chi = (2 - 2 * cm.base_genus) * g.dim
    for c, times in Counter(cm.branch_images).items():
        chi -= times * (g.dim - len(_fixed_space_basis([matrices[c]])))
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
                                 branch_spec, rng: random.Random) -> CoverMonodromy:
    """Random transversal monodromy data: reflections per the prescribed
    class counts, the last one corrected so the surface-group relation
    holds; resampled until the correction is a reflection of the right class
    and the images generate the whole Weyl group (a connected cameral
    curve)."""
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
        if len(monodromy_subgroup(cm)) != folded.order:
            continue
        return cm
    raise RuntimeError("failed to sample transversal monodromy data")
