"""Exact combinatorics of rank-one Eisenstein cohomology for local
systems on the moduli of principally polarized abelian varieties."""

__version__ = "0.1.0"

from .eiscalc import (
    bgg_complex,
    boundary_terms,
    check_duality,
    codim2_g2,
    consistency_g2,
    kernel_g2,
    rank1,
    tau_prime,
    total_g2,
    total_g2_alt,
    verify_partition,
)
from .glbranch import (
    GlWeight,
    VirtualBundle,
    branch,
    is_dominant,
    straighten,
    telescope_bruteforce,
    telescope_closed,
    wedge_dual_tensor,
    wedge_dual_tensor_straightened,
)
from .motivering import MotiveExpr, Symbol, VerificationReport, cusp_dim
from .weylcomb import (
    WeylElement,
    enumerate_final,
    image_dichotomy,
    kostant_from_signs,
    restrict_final,
    rho,
)

__all__ = [
    "WeylElement",
    "enumerate_final",
    "kostant_from_signs",
    "restrict_final",
    "image_dichotomy",
    "rho",
    "GlWeight",
    "VirtualBundle",
    "is_dominant",
    "branch",
    "straighten",
    "wedge_dual_tensor",
    "wedge_dual_tensor_straightened",
    "telescope_closed",
    "telescope_bruteforce",
    "MotiveExpr",
    "Symbol",
    "VerificationReport",
    "cusp_dim",
    "tau_prime",
    "bgg_complex",
    "boundary_terms",
    "verify_partition",
    "rank1",
    "total_g2",
    "total_g2_alt",
    "codim2_g2",
    "kernel_g2",
    "consistency_g2",
    "check_duality",
]
