"""File-driven command line front end.

Subcommands: condition, decompose, sample, partial-out, check. All
structured input and output is JSON (row-major matrices); CSV is offered
only for sample rows. Exit codes: 0 success, 1 failed property, 2 parse
or input-validity error, 3 dimension mismatch, 4 support violation.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io
from .checks import DEFAULT_TRIALS, SUITES, run_suite
from .conditioning import condition, decompose, evaluate, lift_observation
from .errors import (
    DimError,
    GausscondError,
    InconsistentObservation,
    InvalidInput,
)
from .gaussian import Gaussian, sample
from .regression import partial_out
from .spectral import DEFAULT_RANK_TOL_SCALE, SymOperator, _resolve_rank_tol_scale, maxabs

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_PARSE = 2
EXIT_DIM = 3
EXIT_SUPPORT = 4

# Exit code of each error kind, the most specific kinds first.
_EXIT_CODES = (
    (InconsistentObservation, EXIT_SUPPORT),
    (DimError, EXIT_DIM),
    ((InvalidInput, json.JSONDecodeError), EXIT_PARSE),
    (GausscondError, EXIT_PROPERTY),
)


def _resolve_scale(args, extra: dict | None = None) -> float:
    """Effective rank tolerance scale: flag wins, then model field, then default."""
    if args.rank_tol_scale is not None and args.rank_tol_scale <= 0:
        raise InvalidInput("--rank-tol-scale must be positive")
    field = (extra or {}).get("rank_tol_scale")
    return _resolve_rank_tol_scale(field if args.rank_tol_scale is None else args.rank_tol_scale)


def _require_json_format(args) -> None:
    if args.format != "json":
        raise InvalidInput("csv output is only available for the sample subcommand")


def _load_problem(args) -> tuple[Gaussian, np.ndarray, float]:
    """The model, the transform and the rank tolerance scale of a JSON command."""
    _require_json_format(args)
    g, extra = io.load_model(args.model)
    t = io.load_matrix(args.transform)
    # An empty transform file ([]) observes nothing about the dim-n state.
    t = t.reshape(0, g.dim) if t.shape[0] == 0 else t
    return g, t, _resolve_scale(args, extra)


def cmd_condition(args) -> int:
    g, t, scale = _load_problem(args)
    law = condition(g, t, scale)
    if args.law_only:
        out = {
            "mean_base": io.vector_out(law.prior_mean),
            "gain": io.matrix_out(law.gain),
            "cov": io.matrix_out(law.cov.entries),
            "rank_tol_scale": scale,
        }
        print(io.dump(out))
        return EXIT_OK
    if args.obs is None:
        print("error: an observation file is required unless --law-only is given", file=sys.stderr)
        return EXIT_PARSE
    obs = io.load_vector(args.obs)
    state = lift_observation(g, t, obs, scale, strict=args.strict_support)
    result = evaluate(law, state, check_support=args.strict_support)
    out = {
        "mean": io.vector_out(result.mean),
        "cov": io.matrix_out(result.cov.entries),
        "rank_tol_scale": scale,
    }
    print(io.dump(out))
    return EXIT_OK


def cmd_decompose(args) -> int:
    g, t, scale = _load_problem(args)
    dec = decompose(g, t, scale)
    residual = maxabs(t @ g.cov.entries @ dec.independent_map.T)
    out = {
        "independent_map": io.matrix_out(dec.independent_map),
        "affine_gain": io.matrix_out(dec.affine_gain),
        "affine_offset": io.vector_out(dec.affine_offset),
        "independence_residual": float(residual),
        "rank_tol_scale": scale,
    }
    print(io.dump(out))
    return EXIT_OK


def cmd_sample(args) -> int:
    g, extra = io.load_model(args.model)
    scale = _resolve_scale(args, extra)
    if args.count < 1:
        raise InvalidInput("--count must be at least 1")
    rows = sample(g, args.count, args.seed, scale)
    if args.format == "csv":
        for row in rows:
            print(",".join(repr(float(x)) for x in row))
    else:
        print(io.dump(io.matrix_out(rows)))
    return EXIT_OK


def cmd_partial_out(args) -> int:
    _require_json_format(args)
    g, extra = io.load_model(args.model)
    scale = _resolve_scale(args, extra)
    x_idx = extra.get("x_index", 0)
    y_idx = extra.get("y_index", 1)
    if x_idx == y_idx:
        raise InvalidInput("x_index and y_index must differ")
    order = [x_idx, y_idx] + [i for i in range(g.dim) if i not in (x_idx, y_idx)]
    permuted = Gaussian(
        g.mean[order], SymOperator(g.cov.entries[np.ix_(order, order)])
    )
    res = partial_out(permuted, scale)
    out = {
        "x_index": x_idx,
        "y_index": y_idx,
        "coefficient": res.coefficient,
        "cond_cov_xy": res.cond_cov_xy,
        "cond_var_x": res.cond_var_x,
        "degenerate": res.degenerate,
        "rank_tol_scale": scale,
    }
    print(io.dump(out))
    return EXIT_OK


def cmd_check(args) -> int:
    _require_json_format(args)
    scale = _resolve_scale(args)
    reports = run_suite(args.suite, args.trials, args.seed, scale)
    all_passed = all(r.all_passed for r in reports)
    out = {
        "all_passed": all_passed,
        "reports": [r.to_dict() for r in reports],
    }
    print(io.dump(out))
    return EXIT_OK if all_passed else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--rank-tol-scale", type=float, default=None, metavar="S",
        help=f"multiplier for the rank cutoff (default {DEFAULT_RANK_TOL_SCALE:g})",
    )
    common.add_argument("--seed", type=int, default=0, help="seed for any randomness")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="output format; csv applies to sample rows only",
    )

    parser = argparse.ArgumentParser(
        prog="gausscond",
        description="Exact conditioning of a normal vector on any linear transformation of it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "condition", parents=[common],
        help="conditional law of the state given an observed transform value",
    )
    p.add_argument("model", help="JSON model file {mean, cov}")
    p.add_argument("transform", help="JSON matrix file for the transform")
    p.add_argument("obs", nargs="?", default=None, help="JSON vector file: observed transform value")
    p.add_argument("--law-only", action="store_true", help="print the affine family instead of evaluating")
    p.add_argument(
        "--strict-support", action="store_true",
        help="fail when the observation is not attainable under the prior",
    )
    p.set_defaults(func=cmd_condition)

    p = sub.add_parser(
        "decompose", parents=[common],
        help="split the state into a transform-independent part plus an affine image",
    )
    p.add_argument("model", help="JSON model file {mean, cov}")
    p.add_argument("transform", help="JSON matrix file for the transform")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("sample", parents=[common], help="draw seeded samples of the model")
    p.add_argument("model", help="JSON model file {mean, cov}")
    p.add_argument("--count", type=int, default=10, help="number of rows (default 10)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser(
        "partial-out", parents=[common],
        help="partial regression coefficient of y on x with the remaining coordinates held",
    )
    p.add_argument("model", help="JSON model file {mean, cov, x_index?, y_index?}")
    p.set_defaults(func=cmd_partial_out)

    p = sub.add_parser("check", parents=[common], help="run a property suite and report residuals")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"], help="which suite to run")
    p.add_argument(
        "--trials", type=int, default=None,
        help="instances per suite (defaults: "
        + ", ".join(f"{k} {v}" for k, v in DEFAULT_TRIALS.items()) + ")",
    )
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; its own codes are 0 for
        # --help and 2 for a parse failure, matching this tool's contract.
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (GausscondError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    raise SystemExit(main())
