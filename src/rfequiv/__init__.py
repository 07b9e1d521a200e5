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
    Carlo estimation otherwise; both on one BLAS thread.
equiv
    The error prediction (``build_equiv``) and the reduced two-block
    resolvent at any z, from one safeguarded Newton solve of the scalar
    fixed point.
rdel
    The random-features solution matrix and its zeroth-moment table, built
    from the scalar solve.  The generic regularized fixed-point solver for
    any spec is the tests' oracle of that route and is not exported.  The
    four-slot pencils are tables of block rows with one operation, a block
    row of ``P X``; the dense matrix and the defect ``||P X - I||_F`` are
    built from it.
sim
    Simulation of the actual model: empirical errors, pseudo-resolvents
    (plain arrays, checked against the sampled pencil's table), Gaussianity
    diagnostics.
cli
    The ``rfequiv`` command-line front door.

Each library module's ``__all__`` is the one list of what it exports, and
the star imports below re-export exactly those names (README's "Public
names" groups them by job).  Plumbing helpers (seeding, activation, JSON
text, worker count, sample budget, spectral norm) and the generic solver
are reached under their module only, as ``rfequiv.rdel.solve_rdel``.
"""

from .equiv import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .rdel import *  # noqa: F401,F403
from .sim import *  # noqa: F401,F403

__version__ = "0.1.0"
