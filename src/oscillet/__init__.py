"""oscillet: wavelet norms, heat lifts and almost-diagonal operators on the
discrete torus."""

from .grid import (
    DyadicCube,
    GridFunction,
    GridSpec,
    TimeGrid,
    cube_contains,
    enumerate_cubes,
    l2_inner,
    lp_norm,
    rel_l2_error,
)
from .norms import (
    CutoffFamily,
    SpaceParams,
    kernel_bound_report,
    kernel_sum,
    oscillation_norm,
    oscillation_norm_report,
    tl_norm,
    tlm_wavelet_norm,
    tlm_wavelet_norm_report,
    vector_maximal,
)
from .operators import (
    AlmostDiagonalMatrix,
    CzoGeneratorParams,
    apply_matrix,
    apply_matrix_time,
    czo_boundedness_experiment,
    generate_random_czo,
    riesz_apply,
    riesz_matrix,
    riesz_tent_experiment,
    validate_decay,
)
from .semigroup import (
    CalibratedFamily,
    SemigroupSpec,
    calibrate_family,
    check_decay_bounds,
    check_dual_bound,
    default_time_grid,
    evolve_coefficients,
    fit_ctilde,
    heat_apply,
    pi_phi_report,
)
from .tent import (
    TentNormReport,
    TentParams,
    bloch_norm,
    check_embeddings,
    scaling_time_field,
    t_linf_norm,
    tent_norms,
)
from .wavelet import (
    CoeffField,
    MeyerWindow,
    WaveletIndex,
    build_basis,
    detail_types,
    paraproduct,
    read_coeff_field,
    write_coeff_field,
)
from .harness import (
    ExperimentConfig,
    TestFunctionSpec,
    default_suite,
    generate_test_function,
    run_all,
    run_experiment,
)

__version__ = "0.1.0"
