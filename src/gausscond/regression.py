"""Partial regression through conditioning, and a projector update rule.

With coordinates (X, Y, Z_1, ..., Z_{n-2}) of a jointly normal vector, the
regression of Y on X after partialling out Z has coefficient
Cov(X, Y | Z) / Var(X | Z), taken to be zero when the conditional variance
of X degenerates (X is then a deterministic function of Z and carries no
extra information). Both conditional moments are entries of one
conditional covariance: that of condition(g, P_z), P_z the map that zeroes
the X and Y coordinates, so Var(X | Z) is its (0, 0) entry and
Cov(X, Y | Z) its (1, 0) entry.

extended_projection_delta is the one-dimensional update behind it: how an
orthogonal projection of y changes when the subspace grows by one
direction x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimError, XInSubspace
from .gaussian import Gaussian
from .spectral import DEFAULT_RANK_TOL_SCALE, _admit, frob, orthonormal_columns
from .conditioning import condition, evaluate


@dataclass(frozen=True)
class PartialOutResult:
    """Partial regression coefficient of Y on X given Z, with its parts."""

    coefficient: float
    cond_cov_xy: float
    cond_var_x: float
    degenerate: bool
    rank_tol_scale: float = DEFAULT_RANK_TOL_SCALE


def _zeroing_map(n: int, kept_out: tuple[int, ...]) -> np.ndarray:
    # Projection of R^n that zeroes the listed coordinates and keeps the rest.
    p = np.eye(n)
    for i in kept_out:
        p[i, i] = 0.0
    return p


def partial_out(g: Gaussian, rank_tol_scale: float | None = None) -> PartialOutResult:
    """Partial regression coefficient of coordinate 1 on coordinate 0 given the rest.

    Both moments are read off the conditional covariance given Z that
    condition() returns. Degeneracy (conditional variance of X at or below
    the rank cutoff of that covariance) yields a hard zero coefficient
    rather than a division by noise.
    """
    n = g.dim
    if n < 3:
        raise DimError(f"need at least 3 coordinates (X, Y, Z...), got {n}")
    law = condition(g, _zeroing_map(n, (0, 1)), rank_tol_scale)
    cond_var_x = float(law.cov.entries[0, 0])
    cond_cov_xy = float(law.cov.entries[1, 0])
    degenerate = cond_var_x <= law.cov.decomposition(law.rank_tol_scale).rank_tolerance
    coefficient = 0.0 if degenerate else cond_cov_xy / cond_var_x
    return PartialOutResult(coefficient, cond_cov_xy, cond_var_x, degenerate, law.rank_tol_scale)


def partial_out_identity_check(g: Gaussian, y_obs, rank_tol_scale: float | None = None) -> float:
    """Defect of the identity E(Y|X,Z) - E(Y|Z) = coef * (X - E(X|Z)) at a state.

    The left side is computed from two full conditioning passes (on the
    (X, Z) coordinates and on the Z coordinates alone), the right side from
    partial_out's reading of the same law given Z; the return value is
    |LHS - RHS| at y_obs, which should sit at round-off for any state in
    the support of g.
    """
    res = partial_out(g, rank_tol_scale)
    # The law given Z that partial_out read, kept on g's whitening.
    mean_z = evaluate(condition(g, _zeroing_map(g.dim, (0, 1)), rank_tol_scale), y_obs).mean
    mean_xz = evaluate(condition(g, _zeroing_map(g.dim, (1,)), rank_tol_scale), y_obs).mean
    y = _admit(y_obs, "state")
    lhs = float(mean_xz[1] - mean_z[1])
    rhs = res.coefficient * float(y[0] - mean_z[0])
    return abs(lhs - rhs)


def extended_projection_delta(v_basis, x, y) -> np.ndarray:
    """Change of the orthogonal projection of y when span(V) grows by x.

    Returns P_{span(V, x)} y - P_V y, computed without reprojecting:
    the delta is the component of y along the unit direction of x - P_V x.
    Raises XInSubspace when x lies in span(V), where no new direction
    exists, i.e. when |x - P_V x| <= 1e-10 |x|.
    """
    y = _admit(y, "y")
    x = _admit(x, "x", 1, y.size, "y has dim {}")
    basis = _admit(v_basis, "basis", None)
    if basis.ndim < 2:
        basis = basis.reshape(-1, 1)
    elif basis.ndim == 2 and basis.shape[0] != x.size and basis.shape[1] == x.size:
        # Accept vectors given as rows; columns are the canonical layout.
        basis = basis.T
    if basis.shape[0] != x.size:
        raise DimError(f"basis vectors have dim {basis.shape[0]} but x has dim {x.size}")
    q = orthonormal_columns(basis)
    perp_x = x - q @ (q.T @ x)
    # Norms via frob and a unit direction, so no square of x's size underflows.
    norm_x, limit = frob(perp_x), 1e-10 * frob(x)
    if norm_x <= limit:
        raise XInSubspace(f"direction lies in the subspace (residual norm {norm_x:.3e} <= {limit:.3e})")
    unit = perp_x / norm_x
    return float((y - q @ (q.T @ y)) @ unit) * unit
