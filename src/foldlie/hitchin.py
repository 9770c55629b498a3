"""Dimension and rank bookkeeping for Hitchin bases, fibers, and the
intermediate-Jacobian isogeny decomposition of the crepant resolution."""

from __future__ import annotations

from dataclasses import dataclass

from .rootsys import DynkinType, FoldingDatum, fold_coinvariants
from .verify import Report


def invariant_degrees(t: DynkinType | str) -> list[int]:
    """Degrees of the fundamental Weyl invariants (exponents + 1), from the
    positive-root heights (:meth:`DynkinType.degrees`)."""
    if isinstance(t, str):
        t = DynkinType.parse(t)
    return t.degrees()


def h0_canonical_power(g: int, d: int) -> int:
    """h^0(Sigma, K^d) = (2d - 1)(g - 1) for d >= 2 on a genus-g curve,
    g >= 2 (Riemann-Roch, the twist being of degree > 2g - 2)."""
    if g < 2:
        raise ValueError("genus must be >= 2")
    if d < 2:
        raise ValueError("degree must be >= 2")
    return (2 * d - 1) * (g - 1)


@dataclass
class HitchinBase:
    group_type: DynkinType
    genus: int
    degrees: list
    summand_dims: list

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError("genus must be >= 2")
        expected = invariant_degrees(self.group_type)
        if sorted(self.degrees) != sorted(expected):
            raise AssertionError("degrees do not match the root-height degrees")
        for d, s in zip(self.degrees, self.summand_dims):
            if s != h0_canonical_power(self.genus, d):
                raise AssertionError("summand dimension violates Riemann-Roch")

    @property
    def total(self) -> int:
        return sum(self.summand_dims)


def dim_base(t: DynkinType | str, g: int) -> HitchinBase:
    """B = sum_j H^0(Sigma, K^{d_j}) with the d_j the invariant degrees of t."""
    if isinstance(t, str):
        t = DynkinType.parse(t)
    degrees = invariant_degrees(t)
    dims = [h0_canonical_power(g, d) for d in degrees]
    return HitchinBase(t, g, degrees, dims)


def fiber_dim(t: DynkinType | str, g: int) -> int:
    """Fibers of an algebraic integrable system have the base dimension."""
    return dim_base(t, g).total


def folded_base_match(fd: FoldingDatum, g: int) -> Report:
    """dim B(folded) equals the C-invariant part of dim B_h, with the
    surviving degrees derived from the folding's action on the invariant
    generators (:func:`~foldlie.invariants.surviving_invariant_degrees`)."""
    from .invariants import surviving_invariant_degrees

    report = Report("folded-base-match")
    folded_type = fold_coinvariants(fd).dtype
    sd = surviving_invariant_degrees(fd)
    base_h = dim_base(fd.homogeneous.dtype, g)
    report.expect(sorted(sd.degrees_h) == sorted(base_h.degrees),
                  f"{fd.homogeneous.dtype} degrees", base_h.degrees, sd.degrees_h)
    invariant_part = sum(
        mult * h0_canonical_power(g, d) for d, mult in sd.survivors.items()
    )
    folded_total = dim_base(folded_type, g).total
    report.expect(invariant_part == folded_total,
                  f"{fd.homogeneous.dtype} -> {folded_type}, g={g} ({sd.method})",
                  folded_total, invariant_part)
    return report


@dataclass
class IsogenyDims:
    dim_B: int
    genus_fixed_locus: int
    aut_order: int
    dim_J2Z: int
    h3_Z: int

    def __post_init__(self):
        if self.dim_J2Z != self.dim_B + (self.aut_order - 1) * self.genus_fixed_locus:
            raise AssertionError("isogeny dimension identity violated")


def isogeny_dimensions(fd: FoldingDatum, g: int) -> IsogenyDims:
    """dim J^2(Z) = dim B(folded) + (|a| - 1) * genus(X^C), plus the
    third-Betti-number bookkeeping h^3(Z) = 2 dim B + 2(|a| - 1) g(X^C).
    Implemented for the families with a worked fixed locus: (A3, Z/2) and
    (D4, Z/3)."""
    from .unfolding import fixed_locus_genus, threefold_family

    t = fd.homogeneous.dtype
    order = fd.aut.order
    if order == 1:
        base = dim_base(t, g).total
        return IsogenyDims(base, 0, 1, base, 2 * base)
    if (t.series, t.rank, order) == ("A", 3, 2):
        folded = "C2"
    elif (t.series, t.rank, order) == ("D", 4, 3):
        folded = "G2"
    else:
        raise ValueError(
            "fixed-locus genus is only worked out for the A3/Z2 and D4/Z3 families"
        )
    tf = threefold_family(folded)
    gx = fixed_locus_genus(tf, g)
    base = dim_base(folded, g).total
    return IsogenyDims(
        dim_B=base,
        genus_fixed_locus=gx,
        aut_order=order,
        dim_J2Z=base + (order - 1) * gx,
        h3_Z=2 * base + 2 * (order - 1) * gx,
    )


# -- branch-count bookkeeping for transversal cameral covers ----------------------------


def folded_branch_spec(g: int) -> dict:
    """Branch counts for the folded C2 cover keyed by h-side orbit size:
    short folded roots (orbit size 2) and long ones (orbit size 1) each form
    a class of 4 roots, so each class meets the section 4(2g-2) times.
    ``cameral.transversal_branch_spec`` derives the counts for any folding."""
    return {1: 4 * (2 * g - 2), 2: 4 * (2 * g - 2)}
