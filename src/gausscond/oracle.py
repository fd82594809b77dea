"""Independent routes to the same conditional law, used as cross-checks.

Two references live here. ginv_condition is the textbook formula for
conditioning a normal vector on A Y = y: mean mu + Sigma A^T (A Sigma
A^T)^+ (y - A mu) and covariance Sigma - Sigma A^T (A Sigma A^T)^+ A
Sigma, with the Moore-Penrose inverse computed spectrally under the same
rank tolerance as everything else. mc_conditional_moments approximates the
conditional moments by brute force, binning samples whose image lands near
the observed value. Neither shares any code path with the projector
construction beyond the eigensolver, so agreement between the three is
evidence, not tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimError, TooFewAccepted
from .gaussian import Gaussian, _map_pair, sample
from .spectral import SymOperator, as_linear_map

MIN_KEPT = 100


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Conditional moments plus the route that produced them."""

    mean: np.ndarray
    cov: SymOperator
    method: str
    n_kept: int | None = None


def ginv_condition(g: Gaussian, a, y_obs, rank_tol_scale: float | None = None) -> OracleResult:
    """Classical generalized-inverse conditioning of Y ~ g on A Y = y_obs."""
    am = as_linear_map(a)
    if am.cols != g.dim:
        raise DimError(f"map expects dim {am.cols} but the law lives on R^{g.dim}")
    y = np.asarray(y_obs, dtype=float).reshape(-1)
    if y.size != am.rows:
        raise DimError(f"observation has dim {y.size} but the map outputs dim {am.rows}")
    sigma = g.cov.entries
    if am.rows == 0:
        # Conditioning on nothing returns the prior.
        return OracleResult(g.mean.copy(), g.cov, "ginv")
    mid = SymOperator(am.entries @ sigma @ am.entries.T)
    pinv = mid.decomposition(rank_tol_scale).pinv_matrix()
    gain = sigma @ am.entries.T @ pinv
    mean = g.mean + gain @ (y - am.entries @ g.mean)
    cov = sigma - gain @ am.entries @ sigma
    return OracleResult(mean, SymOperator((cov + cov.T) / 2.0), "ginv")


def mc_conditional_moments(
    g: Gaussian,
    t,
    y_obs,
    n_samples: int,
    bin_radius: float,
    seed: int,
    rank_tol_scale: float | None = None,
) -> OracleResult:
    """Empirical conditional moments of Y given T Y near y_obs.

    Draws n_samples rows, keeps those whose image under T lies within
    bin_radius (Euclidean) of y_obs, and reports the sample mean and
    covariance of the kept rows. Fewer than 100 kept rows is an error:
    the estimate would be noise.
    """
    tm = as_linear_map(t)
    if tm.cols != g.dim:
        raise DimError(f"map expects dim {tm.cols} but the law lives on R^{g.dim}")
    y = np.asarray(y_obs, dtype=float).reshape(-1)
    if y.size != tm.rows:
        raise DimError(f"observation has dim {y.size} but the map outputs dim {tm.rows}")
    rows = sample(g, n_samples, seed, rank_tol_scale)
    if tm.rows == 0:
        kept = rows
    else:
        dist = np.linalg.norm(rows @ tm.entries.T - y, axis=1)
        kept = rows[dist <= bin_radius]
    n_kept = kept.shape[0]
    if n_kept < MIN_KEPT:
        raise TooFewAccepted(
            f"only {n_kept} of {n_samples} samples fell within radius {bin_radius}; "
            f"need at least {MIN_KEPT}"
        )
    mean = kept.mean(axis=0)
    centered = kept - mean
    cov = centered.T @ centered / (n_kept - 1)
    return OracleResult(mean, SymOperator((cov + cov.T) / 2.0), "monte_carlo", n_kept=n_kept)


def mc_independence(g: Gaussian, s, t, n_samples: int, seed: int) -> float:
    """Largest sample cross-correlation between coordinates of S Y and T Y.

    For truly independent images the entries are asymptotically normal with
    standard deviation 1/sqrt(n_samples), so values beyond 4/sqrt(n_samples)
    are evidence of dependence. Coordinates that are almost surely constant
    carry no dependence and contribute zero.
    """
    sm, tm = _map_pair(g, s, t)
    if sm.rows == 0 or tm.rows == 0:
        return 0.0
    rows = sample(g, n_samples, seed)
    left = rows @ sm.entries.T
    right = rows @ tm.entries.T
    mean_left = left.mean(axis=0)
    mean_right = right.mean(axis=0)
    left = left - mean_left
    right = right - mean_right
    std_left = left.std(axis=0, ddof=1)
    std_right = right.std(axis=0, ddof=1)
    cross = left.T @ right / (n_samples - 1)
    # Constant coordinates: zero correlation by convention, not 0/0.
    tiny_left = std_left <= 1e-9 * (1.0 + np.abs(mean_left))
    tiny_right = std_right <= 1e-9 * (1.0 + np.abs(mean_right))
    denom = np.outer(np.where(tiny_left, 1.0, std_left), np.where(tiny_right, 1.0, std_right))
    corr = cross / denom
    corr[tiny_left, :] = 0.0
    corr[:, tiny_right] = 0.0
    return float(np.max(np.abs(corr)))
