import siegeleis

# The package's public names.  Adding or dropping one is an edit here.
PUBLIC = [
    "GlWeight",
    "MotiveExpr",
    "Symbol",
    "VerificationReport",
    "VirtualBundle",
    "WeylElement",
    "bgg_complex",
    "boundary_terms",
    "branch",
    "check_duality",
    "codim2_g2",
    "consistency_g2",
    "cusp_dim",
    "enumerate_final",
    "image_dichotomy",
    "is_dominant",
    "kernel_g2",
    "kostant_from_signs",
    "rank1",
    "restrict_final",
    "rho",
    "straighten",
    "tau_prime",
    "telescope_bruteforce",
    "telescope_closed",
    "total_g2",
    "total_g2_alt",
    "verify_partition",
    "wedge_dual_tensor",
    "wedge_dual_tensor_straightened",
]


def test_the_public_names_are_pinned():
    assert sorted(siegeleis.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(siegeleis, name) is not None, name
    # the boundary terms have one stream, `eiscalc.boundary_blocks`, and
    # `boundary_terms` is its list
    assert "iter_boundary_terms" not in siegeleis.__all__
    assert not hasattr(siegeleis, "iter_boundary_terms")
