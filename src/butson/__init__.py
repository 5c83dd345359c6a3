"""Group-invariant Butson Hadamard matrices: construction and exact verification."""

from .cyclotomic import CycInt, cyclotomic_poly, equals_integer, gauss_sum, is_zero, norm_sq
from .groups import FiniteGroup, GroupRingElt, make_abelian, make_cyclic, make_from_table, make_semidirect
from .rings import ChainRing, chain_ring
from .verify import BhMatrix, VerifyReport, materialize, verify_bh, verify_group_ring
from .arrays import PerfectArray, autocorrelation, to_array, verify_perfect

__all__ = [
    "BhMatrix",
    "ChainRing",
    "CycInt",
    "FiniteGroup",
    "GroupRingElt",
    "PerfectArray",
    "VerifyReport",
    "autocorrelation",
    "chain_ring",
    "cyclotomic_poly",
    "equals_integer",
    "gauss_sum",
    "is_zero",
    "make_abelian",
    "make_cyclic",
    "make_from_table",
    "make_semidirect",
    "materialize",
    "norm_sq",
    "to_array",
    "verify_bh",
    "verify_group_ring",
    "verify_perfect",
]
