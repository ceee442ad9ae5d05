"""Exact-arithmetic toolkit for composition algebras, hermitian Jordan
algebras, Jordan-rank strata of the four matrix p-space models, secant
dimension oracles, and dual-pair momentum-map reduction."""

from .cayley_dickson import (
    CDElement,
    associativity_counterexample,
    cd_basis,
    cd_multiply,
    cd_one,
    cd_scalar,
    cd_zero,
    conjugate,
    norm_form,
    real_trace,
)
from .catalog import (
    HermitianAlgebraEntry,
    ScorzaEntry,
    catalog_scorza,
    list_hermitian,
    severi_check,
)
from .dual_pairs import (
    DualPairCase,
    WElement,
    cartan_project,
    dagger,
    equivariance_check,
    mu_G,
    mu_K,
    parse_case,
    reduced_point,
    sample_zero_level,
    veronese_map,
)
from .errors import InputError, UnsupportedError
from .jordan import (
    JordanElement,
    from_upper,
    generic_det,
    jordan_diag,
    jordan_identity,
    jordan_product,
    jordan_rank3,
    jordan_zero,
    jtrace,
    rank_one_from_vector,
    sharp,
    trace_form,
)
from .scalars import QI
from .strata import (
    EXC27,
    PSpaceModel,
    StratumPoint,
    closure_membership,
    defects,
    mat_model,
    parse_model,
    peel_rank_one,
    rank_of,
    relative_invariant,
    sample_rank_one,
    sample_secant,
    skew_model,
    stratum_dimension,
    sym_model,
)
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"
