"""Numerical laboratory for the half-wave maps flow on the torus.

Truncated matrix Hardy-space arithmetic, Grassmannian loop constructors,
block Toeplitz/Hankel spectral data, exact resolvent-formula evolution for
rational loops, an independent RK4 cross-check, and strong-stability
experiments including the scalar zero-dispersion counterexample.
"""

__version__ = "0.1.0"

from .hardy import (
    FourierSeries,
    evaluate_grid,
    fit_series,
    fractional_derivative,
    mean,
    project_plus,
    shift_backward,
    shift_forward,
    sobolev_energy,
    sobolev_norm,
)
from .grassmann import (
    BlaschkeProduct,
    GrassmannLoop,
    blaschke_eval,
    embed_block,
    half_harmonic_map,
    loop_from_json,
    loop_to_json,
    pauli_decode,
    pauli_encode,
    project_to_grassmann,
    traveling_profile,
    validate_loop,
)
from .operators import (
    build_hankel,
    build_toeplitz,
    invariant_subspace,
    key_identity_check,
    kronecker_rank,
)
from .evolution import (
    EvolutionPlan,
    TrajectorySample,
    conservation_report,
    contraction_spectrum,
    fourier_coefficient,
    lax_residual,
    make_plan,
    recurrence_search,
    solve_at_time,
)
from .stability import (
    IsometryModel,
    StabilityReport,
    apply_u_sigma,
    hwm_model,
    parseval_defect,
    strong_stability_test,
    wold_decomposition_estimate,
    zd_bo_model,
    zd_bo_norm_curve,
)
from .integrator import IntegratorState, cross_validate, integrate, rhs, step_rk4
