"""Exact decategorified Satake combinatorics: Hecke algebra convolution,
the modified dual group, trace functions of intersection-motive classes,
and the transform onto the twisted representation ring."""

from .laurent import LaurentPoly
from .linear import LinComb
from .root_datum import (RootDatum, RootDatumError, catalog, dual,
                         dominance_leq, d_pairing, parity, epsilon_trivial,
                         g1_description, pi1_label, pi1_invariants)
from .weyl import (AffineWeylElement, AffineWeylGroup, FiniteWeylElement,
                   FiniteWeylGroup, affine_weyl_group, finite_weyl_group)
from .rep_ring import G1RepClass, G1Ring, RepRing, g1_class, g1_ring, rep_ring
from .k0 import ICClass, SatakeK0, ic_class, purity_weight
from .hecke import IwahoriHecke, SphericalHecke, iwahori_hecke, spherical_hecke

__all__ = [
    "LaurentPoly", "LinComb",
    "RootDatum", "RootDatumError", "catalog", "dual", "dominance_leq",
    "d_pairing", "parity", "epsilon_trivial", "g1_description", "pi1_label",
    "pi1_invariants",
    "AffineWeylElement", "AffineWeylGroup", "FiniteWeylElement",
    "FiniteWeylGroup", "affine_weyl_group", "finite_weyl_group",
    "G1RepClass", "G1Ring", "RepRing", "g1_class", "g1_ring", "rep_ring",
    "ICClass", "SatakeK0", "ic_class", "purity_weight",
    "IwahoriHecke", "SphericalHecke", "iwahori_hecke", "spherical_hecke",
]

__version__ = "0.1.0"
