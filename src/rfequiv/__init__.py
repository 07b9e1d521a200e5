"""Deterministic equivalents for random-features ridge regression.

The package predicts the empirical test error of ridge regression on
random features from the second-moment kernels of the feature columns
alone, solves the underlying self-consistent resolvent equations, and
validates both against Monte Carlo simulation of the actual model.

Modules
-------
model
    Domain types, activations, seeding, matrix I/O, canonical JSON.
kernels
    Monte Carlo estimation of the feature covariance blocks.
equiv
    One scalar fixed-point iteration on the eigenvalues of K_aa: alpha at
    z = 0, the reduced two-block resolvent at any z, and the error
    prediction.
rdel
    Generic regularized fixed-point solver with a-priori bound checks and
    moment diagnostics.
sim
    Simulation of the actual model: empirical errors, pseudo-resolvents,
    Gaussianity diagnostics, Gaussian surrogate runs.
cli
    The ``rfequiv`` command-line front door.
"""

from .equiv import (
    AlphaSolution,
    DenominatorDegenerate,
    EquivSolution,
    build_equiv,
    kernel_ridge_error,
    solve_alpha,
    solve_subdel,
)
from .kernels import (
    KernelSet,
    analytic_identity_kernels,
    default_samples,
    estimate_kernels,
    load_kernels,
    load_kernels_raw,
    save_kernels,
    save_kernels_raw,
    verify_centering,
)
from .model import (
    ACTIVATION_KINDS,
    Activation,
    Dataset,
    MatrixFormatError,
    NonConvergence,
    RFConfig,
    apply_activation,
    derive_seed,
    load_matrix,
    substream,
    synthetic_regression,
    to_json_text,
    worker_count,
    write_json,
    write_matrix,
)
from .rdel import (
    LinearizationSpec,
    RDELSolution,
    ZerothMomentReport,
    m_infinity,
    rf_linearization,
    rf_solution_matrix,
    rf_superoperator,
    rf_zeroth_products,
    solve_rdel,
    solve_rdel_tau0,
    spectral_norm,
    zeroth_moment_check,
)
from .sim import (
    DeltaGaussianity,
    PseudoResolvent,
    SimReport,
    anisotropic_gap,
    build_pseudoresolvent,
    empirical_test_error,
    estimate_delta_gaussianity,
    gaussian_surrogate_run,
    run_replicates,
    sample_features,
)

__version__ = "0.1.0"
