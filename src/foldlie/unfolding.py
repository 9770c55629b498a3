"""Quasi-homogeneous ADE surface singularities, Jacobian rings,
semi-universal deformations with finite-group actions, the threefold
equations over a curve, and the fixed-locus genus formulas.

Naming follows the folding convention of the rest of the package: the
singularity is the one of the homogeneous (ADE) type, and the finite action
exhibits the folded type.  (The classical singularity-theory convention
labels the same data by the dual diagram; the dual name is recorded
alongside.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import MultiPoly
from .rootsys import DynkinType

XYZ = ("x", "y", "z")


def _xyz():
    return (MultiPoly.var(XYZ, "x"), MultiPoly.var(XYZ, "y"), MultiPoly.var(XYZ, "z"))


@dataclass
class QuasiHomogSing:
    """An ADE surface singularity f(x, y, z) = 0 with coprime weights.

    The weighted degree of every monomial of f equals ``degree``; for these
    equations the coprime weights satisfy w_x + w_y + w_z = degree + 1
    (+2 for the A_{2k} family), which is the numerology behind the
    Calabi-Yau twist."""

    poly: MultiPoly
    weights: tuple
    degree: int
    dtype: DynkinType
    slodowy_dual_label: str

    def __post_init__(self):
        wd = self.poly.weighted_degrees(dict(zip(XYZ, self.weights)))
        if wd != {self.degree}:
            raise AssertionError(
                f"{self.dtype}: polynomial is not quasi-homogeneous of degree "
                f"{self.degree} under weights {self.weights} (degrees {wd})"
            )
        excess = sum(self.weights) - self.degree
        expected = 2 if (self.dtype.series == "A" and self.dtype.rank % 2 == 0) else 1
        if excess != expected:
            raise AssertionError(
                f"{self.dtype}: weight excess {excess}, expected {expected}"
            )


def singularity(t: DynkinType | str) -> QuasiHomogSing:
    """The implemented equations: A_n: x^(n+1) - yz; D4: x^3 + y^3 + z^2;
    D_n (n >= 5): x^(n-1) + x y^2 + z^2; E6: x^4 + y^3 + z^2."""
    if isinstance(t, str):
        t = DynkinType.parse(t)
    x, y, z = _xyz()
    if t.series == "A":
        n = t.rank
        poly = x ** (n + 1) - y * z
        if n % 2:
            w = (1, (n + 1) // 2, (n + 1) // 2)
            deg = n + 1
        else:
            w = (2, n + 1, n + 1)
            deg = 2 * (n + 1)
    elif t.series == "D" and t.rank == 4:
        poly = x**3 + y**3 + z**2
        w, deg = (2, 2, 3), 6
    elif t.series == "D":
        n = t.rank
        poly = x ** (n - 1) + x * y**2 + z**2
        w, deg = (2, n - 2, n - 1), 2 * (n - 1)
    elif t.series == "E" and t.rank == 6:
        poly = x**4 + y**3 + z**2
        w, deg = (3, 4, 6), 12
    else:
        raise ValueError(f"no implemented singularity equation for {t}")
    return QuasiHomogSing(poly, w, deg, t, slodowy_dual_label=str(t.dual()))


def jacobian_basis(s: QuasiHomogSing) -> list[MultiPoly]:
    """Monomials representing a basis of the Jacobian ring C[x,y,z]/(df).

    For the A-series and D4 the partial-derivative ideals are monomial, so
    the reduced monomials are computed and verified by exact normal-form
    reduction; for the data-driven D_n (n >= 5) and E6 equations only the
    count (= rank) and quasi-homogeneity are verified."""
    t = s.dtype
    x, y, z = _xyz()
    if t.series == "A":
        n = t.rank
        lead = [(n, 0, 0), (0, 1, 0), (0, 0, 1)]  # x^n, y, z
        basis = [x**k for k in range(n - 1, -1, -1)]
    elif t.series == "D" and t.rank == 4:
        lead = [(2, 0, 0), (0, 2, 0), (0, 0, 1)]  # x^2, y^2, z
        basis = [x * y, x, y, MultiPoly.const(XYZ, 1)]
    elif t.series == "D":
        basis = [MultiPoly.const(XYZ, 1), x, y] + [x**k for k in range(2, t.rank - 1)]
        lead = None
    elif t.series == "E" and t.rank == 6:
        basis = [MultiPoly.const(XYZ, 1), x, x**2, y, x * y, x**2 * y]
        lead = None
    else:
        raise ValueError(f"no Jacobian basis for {t}")
    if len(basis) != t.rank:
        raise AssertionError("Jacobian basis size != rank")
    if lead is not None:
        _verify_monomial_quotient_basis(s, lead, basis)
    return basis


def _verify_monomial_quotient_basis(s: QuasiHomogSing, lead, basis):
    """The leading monomials generate the partial-derivative ideal up to
    units, and the stated basis is exactly the reduced monomial staircase."""
    partials = [s.poly.diff(v) for v in XYZ]
    partial_leads = set()
    for p in partials:
        if len(p.terms) != 1:
            raise AssertionError("partial derivative is not a monomial")
        partial_leads.add(next(iter(p.terms)))
    if partial_leads != set(lead):
        raise AssertionError("partial derivatives differ from the expected monomials")

    def reduced(e):
        return all(any(ei < li for ei, li in zip(e, ell)) for ell in lead)

    staircase = set()
    bound = max(max(ell) for ell in lead) + 1
    for a in range(bound + 1):
        for b in range(bound + 1):
            for c in range(bound + 1):
                if reduced((a, b, c)):
                    staircase.add((a, b, c))
    basis_exps = set()
    for q in basis:
        if len(q.terms) != 1:
            raise AssertionError("basis entries must be monomials")
        basis_exps.add(next(iter(q.terms)))
    if basis_exps != staircase:
        raise AssertionError("stated basis differs from the reduced staircase")


@dataclass
class GroupActionData:
    """The folding action on coordinates and deformation parameters.

    ``coordinate_images`` are polynomials in (x, y, z) over an extension ring
    (signs for order 2; the ring Q[mu]/(mu^2 + mu + 1) for order 3);
    ``base_multipliers`` multiply each deformation parameter."""

    order: int
    ring_vars: tuple
    reduction: tuple | None  # (variable, square value as MultiPoly) for mu
    coordinate_images: tuple
    base_multipliers: tuple


@dataclass
class DeformationFamily:
    singularity: QuasiHomogSing
    basis_monomials: list
    base_names: tuple
    base_weights: tuple
    family_poly: MultiPoly
    action: GroupActionData | None
    invariant_base_indices: tuple

    def invariant_family_poly(self) -> MultiPoly:
        """Restriction to the fixed base: non-invariant parameters set to 0."""
        fixed = {
            self.base_names[j]: Fraction(0)
            for j in range(len(self.base_names))
            if j not in self.invariant_base_indices
        }
        if not fixed:
            return self.family_poly
        return self.family_poly.substitute(fixed, target_variables=self.family_poly.variables)


def _family_vars(base_names):
    return XYZ + tuple(base_names)


def semiuniversal_family(s: QuasiHomogSing, order: int = 1) -> DeformationFamily:
    """f + sum b_j g_j with C*-weights deg(f) - deg(g_j) and, for the folded
    families (A_{2n-1} with the flip, D4 with the order-3 action), the
    extension of the finite action to the base; the action is verified to
    preserve the family polynomial exactly."""
    basis = jacobian_basis(s)
    wmap = dict(zip(XYZ, s.weights))
    degs = [next(iter(g.weighted_degrees(wmap))) if not g.is_zero() else 0 for g in basis]
    weights = [s.degree - d for d in degs]
    names = []
    used = {}
    for w in weights:
        nm = f"b{w}"
        if nm in used:
            used[nm] += 1
            nm = f"b{w}_{used[nm]}"
        else:
            used[nm] = 0
        names.append(nm)
    fam_vars = _family_vars(names)
    fam = s.poly.with_variables(fam_vars)
    for nm, g in zip(names, basis):
        fam = fam + MultiPoly.var(fam_vars, nm) * g.with_variables(fam_vars)

    action = None
    invariant = tuple(range(len(names)))
    if order == 2:
        if not (s.dtype.series == "A" and s.dtype.rank % 2 == 1):
            raise ValueError("order-2 action implemented for the A_{2n-1} equations")
        ring = fam_vars
        x, y, z = (MultiPoly.var(ring, v) for v in XYZ)
        coord_images = (-x, z, y)
        base_mult = tuple(Fraction(-1) ** d for d in degs)
        action = GroupActionData(2, ring, None, coord_images, base_mult)
        invariant = tuple(j for j, m in enumerate(base_mult) if m == 1)
        _verify_action_preserves(fam, action, names)
    elif order == 3:
        if not (s.dtype.series == "D" and s.dtype.rank == 4):
            raise ValueError("order-3 action implemented for the D4 equation")
        ring = fam_vars + ("mu",)
        mu = MultiPoly.var(ring, "mu")
        x, y, z = (MultiPoly.var(ring, v) for v in XYZ)
        coord_images = (mu * x, mu * mu * y, z)
        # g = (xy, x, y, 1): multipliers 1, mu^2, mu, 1
        base_mult = (MultiPoly.const(ring, 1), mu * mu, mu, MultiPoly.const(ring, 1))
        action = GroupActionData(3, ring, ("mu", MultiPoly.const(ring, -1) - mu),
                                 coord_images, base_mult)
        invariant = tuple(j for j, m in enumerate(base_mult) if m == 1)
        _verify_action_preserves(fam, action, names)
    elif order != 1:
        raise ValueError("actions of order 1, 2, 3 only")
    return DeformationFamily(
        singularity=s,
        basis_monomials=basis,
        base_names=tuple(names),
        base_weights=tuple(weights),
        family_poly=fam,
        action=action,
        invariant_base_indices=invariant,
    )


def _verify_action_preserves(fam: MultiPoly, action: GroupActionData, names):
    ring = action.ring_vars
    mapping = dict(zip(XYZ, action.coordinate_images))
    for nm, mult in zip(names, action.base_multipliers):
        mapping[nm] = MultiPoly.var(ring, nm) * mult
    image = fam.with_variables(ring).substitute(mapping, target_variables=ring)
    if action.reduction is not None:
        var, sq = action.reduction
        image = image.reduce_square(var, sq)
    if image != fam.with_variables(ring):
        raise AssertionError("group action does not preserve the family polynomial")


# -- threefolds over the curve ---------------------------------------------------------


@dataclass
class ThreefoldFamily:
    """X_b inside tot(K^w1 + K^w2 + K^w3) cut by the invariant family
    equation, with every datum a section of the stated power of K."""

    deformation: DeformationFamily
    coordinate_twists: tuple
    base_twists: dict
    folded_label: str

    def fixed_locus_twist(self) -> int:
        """The fixed curve is alpha^2 = (top base section) in tot(K^m)."""
        return max(self.coordinate_twists)


def threefold_family(folded: str) -> ThreefoldFamily:
    """The two worked families: C2 (from A3, Z/2) and G2 (from D4, Z/3).
    The coordinates x, y, z are sections of K to their coprime weights."""
    if folded == "C2":
        df = semiuniversal_family(singularity("A3"), order=2)
    elif folded == "G2":
        df = semiuniversal_family(singularity("D4"), order=3)
    else:
        raise ValueError("threefold families implemented for C2 and G2")
    base_twists = {
        df.base_names[j]: df.base_weights[j] for j in df.invariant_base_indices
    }
    return ThreefoldFamily(df, df.singularity.weights, base_twists, folded)


def fixed_locus_equation(tf: ThreefoldFamily) -> MultiPoly:
    """Symbolic elimination of the fixed locus inside the invariant family:
    substitute the fixed-point relations of the coordinate action; the
    result is (up to sign) alpha^2 - (top-weight base section)."""
    df = tf.deformation
    fam = df.invariant_family_poly()
    ring = fam.variables
    if tf.folded_label == "C2":
        # fixed locus of (x,y,z) -> (-x, z, y): x = 0, y = z
        sub = {"x": Fraction(0), "z": MultiPoly.var(ring, "y")}
    else:
        # fixed locus of (x,y,z) -> (mu x, mu^2 y, z): x = y = 0
        sub = {"x": Fraction(0), "y": Fraction(0)}
    return fam.substitute(sub, target_variables=ring)


def fixed_locus_genus(tf: ThreefoldFamily, g: int) -> int:
    """Genus of the fixed curve alpha^2 = s, s a section of K^(2m):
    a double cover of the base with 2m(2g-2) simple branch points, computed
    through the cameral Riemann-Hurwitz engine; equals (2m+2)(g-1)+1."""
    if g < 2:
        raise ValueError("the standing hypothesis requires genus >= 2")
    m = tf.fixed_locus_twist()
    branch_points = 2 * m * (2 * g - 2)
    from .cameral import CoverMonodromy, cover_geometry
    from .rootsys import build_root_system
    from .weyl import WeylGroup

    w = WeylGroup.generate(build_root_system("A1"))
    s = next(i for i in range(w.order) if i != w.identity_index())
    cm = CoverMonodromy(w, g, [w.identity_index()] * (2 * g), [s] * branch_points)
    geo = cover_geometry(cm)
    if geo.component_count != 1:
        raise AssertionError("fixed-locus double cover must be connected")
    genus = geo.total_genus
    if genus != (2 * m + 2) * (g - 1) + 1:
        raise AssertionError("Riemann-Hurwitz disagrees with the closed form")
    return genus


def exceptional_divisor_components(order_of_a: int) -> int:
    """Component count of the exceptional divisor of the crepant resolution:
    one ruled component for Z/2, two for Z/3.  For Z/3 the proper-transform
    relations are verified symbolically: with nu1 = a1^3, nu2 = a2^3,
    nu3 = a1 a2, nu4 = a3, the relations nu1 + nu2 + nu4^2 + b2 nu3 + b6 = 0
    and nu3^3 - nu1 nu2 = 0 reproduce the invariant family equation."""
    if order_of_a == 2:
        return 1
    if order_of_a != 3:
        raise ValueError("group order must be 2 or 3")
    tf = threefold_family("G2")
    fam = tf.deformation.invariant_family_poly()
    ring = fam.variables  # x, y, z, b2, b4, b4_1, b6
    x, y, z = (MultiPoly.var(ring, v) for v in XYZ)
    nu1, nu2, nu3, nu4 = x**3, y**3, x * y, z
    b = {nm: MultiPoly.var(ring, nm) for nm in tf.deformation.base_names}
    lhs = nu1 + nu2 + nu4**2 + b["b2"] * nu3 + b["b6"]
    if lhs != fam:
        raise AssertionError("proper-transform relation does not match the family")
    if not (nu3**3 - nu1 * nu2).is_zero():
        raise AssertionError("nu3^3 - nu1 nu2 is not identically zero")
    return 2
