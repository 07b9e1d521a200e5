"""Command-line front door.

Verbs: estimate-kernels, predict, simulate, compare, sweep, diagnose.
Reports are canonical JSON (fixed key order, each float as the shortest
text that reads back as it), so a rerun with identical options and seed
produces byte-identical files.

Exit codes
----------
0   success
2   option or validation errors
3   input file problems (missing, unreadable, malformed)
4   solver failures, LAPACK's ``LinAlgError`` included; the failure name
    is written into the report when an output path is available
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from dataclasses import asdict

import numpy as np

from .equiv import build_equiv
from .kernels import (
    _has_closed_form,
    _kernels_and_centering,
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
    RFConfig,
    _check_count,
    _check_heights,
    _check_ridge,
    _check_seed,
    _check_z,
    _write_csv,
    derive_seed,
    load_matrix,
    substream,
    synthetic_regression,
    write_json,
)
from .rdel import rf_solution_matrix, zeroth_moment_check
from .sim import (
    _feature_replicates,
    anisotropic_gap,
    build_pseudoresolvent,
    estimate_delta_gaussianity,
    run_replicates,
    sample_features,
)

__all__ = ["main"]


def _parse_complex(text):
    """Python's complex syntax, also accepting a trailing `i` or `I` as the
    imaginary unit (`1i`); an `i` elsewhere, as in `infj`, is left alone."""
    text = text.strip()
    if text.endswith(("i", "I")):
        text = text[:-1] + "j"
    return complex(text)


def _parse_list(text, kind=float):
    """The comma-separated items of ``text`` through ``kind`` (``int`` or
    ``float``).  An empty item is refused, as the CSV reader refuses an
    empty cell, and so is one that ``kind`` does not read, by its text."""
    items = text.split(",")
    if not all(item.strip() for item in items):
        raise ValueError(f"empty item in the comma-separated list {text!r}")
    values = []
    for item in items:
        try:
            values.append(kind(item))
        except ValueError:
            raise ValueError(f"item {item!r} of the comma-separated list {text!r} is "
                             f"not {'an integer' if kind is int else 'a number'}") from None
    return tuple(values)


def _activation(kind, params_text):
    return Activation(kind, _parse_list(params_text) if params_text else ())


def _add_model_options(p):
    """Dataset, activation and sampling options shared by the model verbs."""
    p.add_argument("--x", help="training design matrix file")
    p.add_argument("--xhat", help="test design matrix file")
    p.add_argument("--y", help="training labels file (one column or one row)")
    p.add_argument("--yhat", help="test labels file (one column or one row)")
    p.add_argument("--synthetic", metavar="NTRAIN,NTEST,N0",
                   help="generate a synthetic dataset instead of reading files")
    p.add_argument("--noise-sd", type=float, default=0.0,
                   help="label noise for --synthetic (default 0)")
    p.add_argument("--sigma", choices=ACTIVATION_KINDS, default="erf",
                   help="feature activation (default erf)")
    p.add_argument("--phi", choices=ACTIVATION_KINDS, default="identity",
                   help="weight map activation (default identity)")
    p.add_argument("--sigma-params", default="",
                   help="comma-separated parameters for --sigma custom-table")
    p.add_argument("--phi-params", default="",
                   help="comma-separated parameters for --phi custom-table")
    p.add_argument("--n", type=int, default=None,
                   help="feature normalization (default: n_train)")
    p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    p.add_argument("--samples", type=int, default=None,
                   help="kernel Monte Carlo draws, used where no closed form "
                        "exists (default: 20*(n_train+n_test), at least 10000)")


def _load_dataset(args, need_labels=True):
    if args.synthetic:
        given = [f"--{name}" for name in ("x", "xhat", "y", "yhat")
                 if getattr(args, name)]
        if given:  # a file given with --synthetic would never be read
            raise ValueError("--synthetic replaces the matrix files; drop "
                             + ", ".join(given))
        parts = _parse_list(args.synthetic, int)
        if len(parts) != 3:
            raise ValueError("--synthetic needs exactly NTRAIN,NTEST,N0")
        return synthetic_regression(*parts, args.noise_sd, args.seed)
    if not args.x or not args.xhat:
        raise ValueError("provide --x and --xhat, or use --synthetic")
    X = load_matrix(args.x)
    Xhat = load_matrix(args.xhat)
    if need_labels and not (args.y and args.yhat):
        raise ValueError("provide --y and --yhat")
    # a verb that reads no label still loads and checks each one given
    y = load_matrix(args.y) if args.y else np.zeros(X.shape[0])
    yhat = load_matrix(args.yhat) if args.yhat else np.zeros(Xhat.shape[0])
    return Dataset(X, Xhat, y, yhat)


def _load_model(args, need_labels=True, min_reps=1):
    """The dataset, the activations sigma and phi, and the normalization n
    (n_train only when ``--n`` is absent).  ``--seed``, ``--samples`` and,
    unless ``min_reps`` is 0, ``--reps`` are checked first."""
    _check_seed(args.seed)
    if args.samples is not None:
        _check_count(args.samples, "--samples")
    if min_reps:
        _check_count(args.reps, "--reps", min_reps)
    ds = _load_dataset(args, need_labels)
    n = ds.n_train if args.n is None else args.n
    return (ds, _activation(args.sigma, args.sigma_params),
            _activation(args.phi, args.phi_params), n)


def _samples(args, ds):
    """``--samples``, or the default budget only when the option is absent."""
    return default_samples(ds.n_train, ds.n_test) if args.samples is None else args.samples


def _given_kernels(args, ds, sigma, phi, n):
    """The blocks of ``--kernels``, refused here, before any draw, unless
    they fit the dataset; else the closed form where one exists (a built-in
    sigma with phi = identity), which records the Monte Carlo budget as its
    ``samples``; else None, where only draws can give the kernels.  Both
    routes pin OpenBLAS to one thread themselves, so neither set depends on
    the thread count the caller left set."""
    if getattr(args, "kernels", None):
        K = load_kernels(args.kernels)
        if (K.n_train, K.n_test) != (ds.n_train, ds.n_test):
            raise ValueError(
                f"{args.kernels}: kernel blocks are {K.n_train} x {K.n_test}, "
                f"the dataset is {ds.n_train} x {ds.n_test} (n_train x n_test)")
        return K
    if _has_closed_form(sigma, phi):
        return exact_kernels(ds, sigma, phi, n, samples=_samples(args, ds))
    return None


def _dataset_kernels(args, ds, sigma, phi, n):
    """:func:`_given_kernels`, else ``--samples`` Monte Carlo draws, which
    are pinned to one thread like the other routes."""
    return (_given_kernels(args, ds, sigma, phi, n)
            or estimate_kernels(ds, sigma, phi, n, _samples(args, ds), args.seed))


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def _cmd_estimate_kernels(args):
    ds, sigma, phi, n = _load_model(args, need_labels=False, min_reps=0)
    save_kernels(_dataset_kernels(args, ds, sigma, phi, n), args.out)
    return 0


def _cmd_predict(args):
    K = load_kernels(args.kernels)
    y = load_matrix(args.y)
    yhat = load_matrix(args.yhat)
    sol = build_equiv(K, y, yhat, args.d, args.delta)
    write_json(args.out, sol.to_report())
    return 0


def _run_simulation(args):
    ds, sigma, phi, n = _load_model(args)
    cfg = RFConfig(d=args.d, delta=args.delta, n=n, seed=args.seed)
    kernels = _dataset_kernels(args, ds, sigma, phi, n)
    return run_replicates(ds, sigma, phi, cfg, reps=args.reps, kernels=kernels)


def _cmd_simulate(args):
    csv = args.csv or os.path.splitext(args.out)[0] + ".csv"
    if os.path.realpath(csv) == os.path.realpath(args.out):  # links too
        raise ValueError(f"the replicate CSV {csv} would overwrite the report "
                         "--out; give --csv another path")
    rep = _run_simulation(args)
    write_json(args.out, rep.to_report())
    _write_csv(csv, enumerate(rep.replicate_errors.tolist()), ("replicate", "error"))
    return 0


def _cmd_compare(args):
    rep = _run_simulation(args)
    write_json(args.out, {
        "empirical_mean": rep.mean,
        "empirical_std": rep.std,
        "predicted": rep.predicted,
        "rel_gap": rep.rel_gap,
    })
    return 0


def _cmd_sweep(args):
    ds, sigma, phi, n = _load_model(args)
    d_list = sorted(set(_parse_list(args.d_list, int)))
    delta_list = sorted(set(_parse_list(args.delta_list)))
    # every cell's config is checked before the kernel draw
    grid = [RFConfig(d=d, delta=delta, n=n, seed=derive_seed(args.seed, "sweep", i))
            for i, (d, delta) in enumerate(itertools.product(d_list, delta_list))]
    kernels = _dataset_kernels(args, ds, sigma, phi, n)
    reports = _feature_replicates(ds, sigma, phi, grid, args.reps, kernels)
    _write_csv(args.out, ((cfg.d, cfg.delta, rep.predicted, rep.mean, rep.rel_gap)
                          for cfg, rep in zip(grid, reports)),
               ("d", "delta", "predicted", "empirical_mean", "rel_gap"))
    return 0


def _cmd_diagnose(args):
    # a spread needs 4 draws; the report reads no label
    ds, sigma, phi, n = _load_model(args, need_labels=False, min_reps=4)
    cfg = RFConfig(d=args.d, delta=args.delta, n=n, seed=args.seed)
    ell = ds.n_train + cfg.d + 2 * ds.n_test
    if ell > args.max_ell:
        raise ValueError(
            f"pencil size ell={ell} exceeds --max-ell {args.max_ell} "
            "(the Gaussianity statistic is still cubic: the spectral norm "
            "of its (ell-t) x ell mean costs O((ell-t)^2 ell); raise the cap "
            "explicitly if intended)"
        )
    # every option is checked before the first Monte Carlo draw
    _check_count(args.probes, "--probes")
    m = _samples(args, ds)
    _check_count(m, "--samples", 2)  # the centering check needs two columns
    z = _check_z(args.z)
    _check_ridge(args.tau, name="tau")
    etas = _check_heights(_parse_list(args.eta_list))
    kernels = _given_kernels(args, ds, sigma, phi, n)
    if kernels is None:  # one Monte Carlo pass gives the blocks and the score
        kernels, centering = _kernels_and_centering(ds, sigma, phi, n, m, args.seed)
    else:  # a closed form or a file drew no columns
        centering = verify_centering(sigma, phi, ds, n, m, args.seed)
    dims = (ds.n_train, cfg.d, ds.n_test)

    dg = estimate_delta_gaussianity(ds, sigma, phi, cfg, z, args.tau, args.reps)
    A, Ahat = sample_features(ds, sigma, phi, cfg.d, cfg.n,
                              derive_seed(args.seed, "diagnose-features"))
    G = build_pseudoresolvent(A, Ahat, cfg.delta, z)
    M_theory = rf_solution_matrix(kernels, dims, cfg.delta, z)
    gaps = []
    for p in range(args.probes):
        rng = substream(args.seed, "probe", p)
        u = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
        v = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        gaps.append(anisotropic_gap(G, M_theory, np.outer(u, v.conj())))

    zm = zeroth_moment_check(kernels, dims, cfg.delta, etas)

    write_json(args.out, {
        "delta_gaussianity": asdict(dg),
        "anisotropic_gap": gaps,
        "zeroth_moment": zm.to_report(),
        "centering": float(centering),
    })
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache  # argparse keeps no state between parses
def build_parser():
    parser = argparse.ArgumentParser(
        prog="rfequiv",
        description="Deterministic test-error predictions for random-features "
                    "ridge regression, with Monte Carlo validation.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("estimate-kernels",
                       help="estimate the feature covariance blocks")
    _add_model_options(p)
    p.add_argument("--out", required=True, help="output kernel JSON path")
    p.set_defaults(func=_cmd_estimate_kernels)

    p = sub.add_parser("predict", help="deterministic test-error prediction")
    p.add_argument("--kernels", required=True, help="kernel JSON path")
    p.add_argument("--y", required=True, help="training labels (one column or one row)")
    p.add_argument("--yhat", required=True, help="test labels (one column or one row)")
    p.add_argument("--d", type=int, required=True, help="hidden width")
    p.add_argument("--delta", type=float, required=True, help="ridge parameter")
    p.add_argument("--out", required=True, help="output report JSON path")
    p.set_defaults(func=_cmd_predict)

    for verb, func, extra_help in (
        ("simulate", _cmd_simulate, "replicated empirical test errors"),
        ("compare", _cmd_compare, "empirical mean vs. prediction"),
    ):
        p = sub.add_parser(verb, help=extra_help)
        _add_model_options(p)
        p.add_argument("--kernels", help="precomputed kernel JSON (else estimated)")
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--delta", type=float, required=True)
        p.add_argument("--reps", type=int, default=30,
                       help="simulation replicates (default 30)")
        p.add_argument("--out", required=True, help="output report JSON path")
        if verb == "simulate":
            p.add_argument("--csv", help="replicate CSV path "
                                         "(default: --out with .csv suffix)")
        p.set_defaults(func=func)

    p = sub.add_parser("sweep", help="grid of (d, delta) comparisons to CSV")
    _add_model_options(p)
    p.add_argument("--kernels", help="precomputed kernel JSON (else estimated)")
    p.add_argument("--d-list", required=True, help="comma-separated widths")
    p.add_argument("--delta-list", required=True, help="comma-separated ridges")
    p.add_argument("--reps", type=int, default=30,
                   help="simulation replicates per grid cell (default 30)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("diagnose", help="solver and model-fit diagnostics")
    _add_model_options(p)
    p.add_argument("--kernels", help="precomputed kernel JSON (else estimated)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--reps", type=int, default=10,
                   help="Gaussianity feature draws, at least 4, used in pairs: "
                        "an odd count leaves its last draw out (default 10)")
    p.add_argument("--z", type=_parse_complex, default=1j,
                   help="spectral parameter (default 1j)")
    p.add_argument("--tau", type=float, default=0.1,
                   help="regularization for the Gaussianity estimate (default 0.1)")
    p.add_argument("--eta-list", default="100,1000,10000",
                   help="heights for the zeroth-moment table")
    p.add_argument("--probes", type=int, default=5,
                   help="number of anisotropic trace probes (default 5)")
    p.add_argument("--max-ell", type=int, default=2000,
                   help="refuse pencils larger than this (default 2000)")
    p.add_argument("--out", required=True, help="output report JSON path")
    p.set_defaults(func=_cmd_diagnose)

    return parser


def main(argv=None):
    """Entry point; returns the process exit code instead of calling exit."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (MatrixFormatError, OSError) as exc:
        print(f"rfequiv: input error: {exc}", file=sys.stderr)
        return 3
    # LinAlgError subclasses ValueError, so it must be caught first
    except (RuntimeError, np.linalg.LinAlgError) as exc:  # solver failures
        _write_failure(args, exc)
        print(f"rfequiv: solver failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"rfequiv: invalid options: {exc}", file=sys.stderr)
        return 2


def _write_failure(args, exc):
    out = getattr(args, "out", None)
    if not out:
        return
    try:
        write_json(out, {"error": type(exc).__name__, "message": str(exc)})
    except OSError:
        pass  # the exit code still reports the failure


if __name__ == "__main__":
    sys.exit(main())
