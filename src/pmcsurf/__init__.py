"""Explicit PMC and CMC surface families in products of space forms, with the
numerical machinery to certify their invariants and run the PMC <-> CMC
correspondence."""

from .ambient import factor_j, inner
from .correspondence import (
    CmcFrenetData,
    PmcFrenetData,
    cmc_to_pmc,
    extract_pmc_data,
    integrate_cmc_frenet,
    integrate_pmc_frenet,
    pmc_to_cmc,
    weak_congruence_check,
)
from .curves import CurveSpec, constant_curvature_curve, integrate_curve
from .diffgeo import (
    Check,
    CmcData,
    JetSample,
    SurfaceInvariants,
    abresch_rosenberg,
    certify_cmc,
    certify_product,
    sample_jet,
    surface_invariants,
    torus_integrals,
)
from .elliptic import complete_k, jacobi_sncndn
from .errors import DomainError, InfeasibleParameters, PreconditionError, VerificationError
from .families import (
    ImmersionChart,
    cmc_leite_chart,
    cmc_profile_family,
    cmc_sinh_chart,
    cmc_torus,
    example1_chart,
    geodesic_inclusion,
    pmc_phi0,
    pmc_profile_family,
    pmc_sinh_family,
    product_of_curves,
)
from .profile import ProfileParams, ProfileSolution, check_restrictions, closed_form, solve_profile
from .utils import keep_freed_pages

keep_freed_pages()

__version__ = "0.1.0"
