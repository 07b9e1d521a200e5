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
    The feature covariance blocks: closed forms where they exist, Monte
    Carlo estimation otherwise.
equiv
    The error prediction (``build_equiv``) and the reduced two-block
    resolvent at any z, from one safeguarded Newton solve of the scalar
    fixed point.
rdel
    The random-features solution matrix and its zeroth-moment table, built
    from the scalar solve; the generic regularized fixed-point solver for
    any spec, which the tests use as the oracle of that route.  The
    four-slot pencils are tables of block rows with one operation, a block
    row of ``P X``; the dense matrix and the defect ``||P X - I||_F`` are
    built from it.
sim
    Simulation of the actual model: empirical errors, pseudo-resolvents
    (plain arrays, checked against the sampled pencil's table), Gaussianity
    diagnostics, Gaussian surrogate runs.
cli
    The ``rfequiv`` command-line front door.

The names below are every library module's ``__all__``, and nothing else.
"""

from .equiv import (
    DenominatorDegenerate,
    EquivSolution,
    build_equiv,
    kernel_ridge_error,
    solve_subdel,
)
from .kernels import (
    KernelSet,
    analytic_identity_kernels,
    default_samples,
    estimate_kernels,
    exact_kernels,
    load_kernels,
    save_kernels,
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
    rf_linearization,
    rf_solution_matrix,
    rf_superoperator,
    solve_rdel,
    spectral_norm,
    zeroth_moment_check,
)
from .sim import (
    DeltaGaussianity,
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
