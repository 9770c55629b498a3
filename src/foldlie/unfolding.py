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
from math import prod

from .exactalg import MultiPoly
from .rootsys import DynkinType

XYZ = ("x", "y", "z")


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
    x, y, z = (MultiPoly.var(XYZ, v) for v in XYZ)
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
    """A monomial basis of the Jacobian ring C[x,y,z]/(df), by graded
    elimination.

    The ring is graded by the weights of ``s``.  Walking the weighted
    degrees k from the socle degree sum(d - 2 w_i) down to 0, the basis
    takes the monomials of degree k, in decreasing exponent order, that lie
    outside the span of the products m * df/dv of degree k and of the
    monomials taken before them; so it runs by non-increasing weighted
    degree.  The count is checked against the Milnor number
    prod((d - w_i) / w_i) (Milnor-Orlik) and the rank, for every type."""
    from .invariants import _pivot_columns, _vector_of, monomials_of_degree

    w, d = s.weights, s.degree
    partials = [(s.poly.diff(v), d - wv) for v, wv in zip(XYZ, w)]
    basis = []
    for k in range(sum(d - 2 * wi for wi in w), -1, -1):
        monos = monomials_of_degree(w, k)[::-1]
        idx = {e: i for i, e in enumerate(monos)}
        vectors = [_vector_of(MultiPoly.from_integers(XYZ, {e: 1}) * p, idx)
                   for p, dp in partials for e in monomials_of_degree(w, k - dp)]
        offset = len(vectors)
        vectors += [[int(i == j) for i in range(len(monos))] for j in range(len(monos))]
        basis += [MultiPoly.from_integers(XYZ, {monos[j - offset]: 1})
                  for j in _pivot_columns(vectors) if j >= offset]
    mu = prod(Fraction(d - wi, wi) for wi in w)
    if not len(basis) == mu == s.dtype.rank:
        raise AssertionError(
            f"{s.dtype}: {len(basis)} Jacobian basis monomials, Milnor number {mu}, "
            f"rank {s.dtype.rank}"
        )
    return basis


@dataclass
class DeformationFamily:
    singularity: QuasiHomogSing
    base_names: tuple
    base_weights: tuple
    family_poly: MultiPoly
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
    degs = [next(iter(g.weighted_degrees(wmap))) for g in basis]
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

    invariant = tuple(range(len(names)))
    if order == 2:
        if not (s.dtype.series == "A" and s.dtype.rank % 2 == 1):
            raise ValueError("order-2 action implemented for the A_{2n-1} equations")
        ring = fam_vars
        x, y, z = (MultiPoly.var(ring, v) for v in XYZ)
        coord_images = (-x, z, y)
        base_mult = tuple(Fraction(-1) ** d for d in degs)
        invariant = tuple(j for j, m in enumerate(base_mult) if m == 1)
        _verify_action_preserves(fam, names, ring, coord_images, base_mult)
    elif order == 3:
        if not (s.dtype.series == "D" and s.dtype.rank == 4):
            raise ValueError("order-3 action implemented for the D4 equation")
        ring = fam_vars + ("mu",)
        mu = MultiPoly.var(ring, "mu")
        x, y, z = (MultiPoly.var(ring, v) for v in XYZ)
        coord_images = (mu * x, mu * mu * y, z)
        # g = (xy, x, y, 1): multipliers 1, mu^2, mu, 1
        base_mult = (MultiPoly.const(ring, 1), mu * mu, mu, MultiPoly.const(ring, 1))
        invariant = tuple(j for j, m in enumerate(base_mult) if m == 1)
        _verify_action_preserves(fam, names, ring, coord_images, base_mult,
                                 ("mu", MultiPoly.const(ring, -1) - mu))
    elif order != 1:
        raise ValueError("actions of order 1, 2, 3 only")
    return DeformationFamily(
        singularity=s,
        base_names=tuple(names),
        base_weights=tuple(weights),
        family_poly=fam,
        invariant_base_indices=invariant,
    )


def _verify_action_preserves(fam: MultiPoly, names, ring, coordinate_images,
                             base_multipliers, reduction=None):
    """Raise unless the family polynomial is invariant under the action
    that sends (x, y, z) to ``coordinate_images`` and multiplies each
    deformation parameter by its entry of ``base_multipliers``, all
    polynomials over ``ring`` (signs for order 2; Q[mu]/(mu^2 + mu + 1) for
    order 3, with ``reduction`` = (variable, its square) to reduce by)."""
    mapping = dict(zip(XYZ, coordinate_images))
    for nm, mult in zip(names, base_multipliers):
        mapping[nm] = MultiPoly.var(ring, nm) * mult
    image = fam.with_variables(ring).substitute(mapping, target_variables=ring)
    if reduction is not None:
        var, sq = reduction
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
        """m for the fixed curve alpha^2 = s in tot(K^m), read off
        :func:`fixed_locus_equation`: exactly one coordinate alpha is left,
        m is its twist, and the equation is quadratic in alpha and of twist
        2m under the coordinate and base twists."""
        eq = fixed_locus_equation(self)
        left = [v for v in XYZ if eq.depends_on(v)]
        if len(left) != 1:
            raise AssertionError(f"{self.folded_label}: fixed locus {eq} = 0 keeps "
                                 f"coordinates {left}, not one")
        alpha = left[0]
        m = self.coordinate_twists[XYZ.index(alpha)]
        df = self.deformation
        twists = dict(zip(XYZ + df.base_names, self.coordinate_twists + df.base_weights))
        in_alpha = eq.weighted_degrees({v: int(v == alpha) for v in eq.variables})
        if max(in_alpha) != 2 or eq.weighted_degrees(twists) != {2 * m}:
            raise AssertionError(f"{self.folded_label}: fixed locus {eq} = 0 is not "
                                 f"quadratic in {alpha} of twist {2 * m}")
        return m


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
