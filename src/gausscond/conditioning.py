"""Conditional laws of a normal vector given a linear transformation.

The central objects, for Y ~ N(mu, D) on R^n and any T into R^m:

* the whitened map S = T D^(1/2), whose null and row-space projectors on
  R^n split every sample into a part independent of T Y and a part that is
  an affine function of T Y,
* the conditional law of Y given T Y, an affine family: gain
  K = D^(1/2) P_row(S) D^(-1/2), conditional covariance
  G = D^(1/2) P_null(S) D^(1/2), and mean map y -> mu + K (y - mu).

Nothing here requires D or T to have full rank. The projectors of S come
from the SVD of S itself, never from S^T S, so a direction of S counts
as observed down to rank_tol_scale * max(m, n) * eps times the larger of
sigma_max(S) and ||T|| ||D^(1/2)||, the scale of the roundoff in S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimError, InconsistentObservation
from .gaussian import Gaussian, _psd_clamped
from .spectral import (
    DEFAULT_RANK_TOL_SCALE,
    LinearMap,
    Projector,
    SymOperator,
    _map_svd,
    _resolve_rank_tol_scale,
    as_linear_map,
    frob,
    invertible_left_factor,
    maxabs,
    row_space_projector,
)


@dataclass(frozen=True, eq=False)
class ConditionalLaw:
    """Conditional distribution of Y given T Y, as an affine family.

    For an observed state y the conditional law is
    N(prior_mean + gain (y - prior_mean), cov); the gain only ever reads
    the component of y that T determines, so any support-consistent state
    with the same image under T gives the same law.

    prior_null_projector projects onto the null space of the prior
    covariance; it is carried so evaluate() can verify that a state lies
    in the support of the prior.
    """

    prior_mean: np.ndarray
    gain: np.ndarray
    cov: SymOperator
    prior_null_projector: Projector
    rank_tol_scale: float = DEFAULT_RANK_TOL_SCALE

    def __post_init__(self):
        mu = np.asarray(self.prior_mean, dtype=float).reshape(-1)
        k = np.asarray(self.gain, dtype=float)
        if k.shape != (mu.size, mu.size):
            raise DimError(f"gain shape {k.shape} does not match dim {mu.size}")
        if self.cov.dim != mu.size or self.prior_null_projector.dim != mu.size:
            raise DimError("covariance or projector dimension mismatch")
        mu = mu.copy()
        mu.setflags(write=False)
        k = k.copy()
        k.setflags(write=False)
        object.__setattr__(self, "prior_mean", mu)
        object.__setattr__(self, "gain", k)

    @property
    def dim(self) -> int:
        return self.prior_mean.size


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Split of Y into a T Y-independent part and an affine function of T Y.

    M = independent_map applied to Y is independent of T Y, and on the
    support of the prior Y - M Y = affine_gain (T Y) + affine_offset, so
    the two summands reconstruct Y exactly. whitened_transform is
    S = T D^(1/2). One SVD of S zero-padded to a square map gives both
    its null projector, hence M, and its invertible left factor, hence
    affine_gain.
    """

    independent_map: np.ndarray
    affine_gain: np.ndarray
    affine_offset: np.ndarray
    whitened_transform: LinearMap
    null_projector: Projector
    row_projector: Projector
    rank_tol_scale: float = DEFAULT_RANK_TOL_SCALE


@dataclass(frozen=True)
class AnovaReport:
    """Pieces of the variance decomposition E Cov(Y|TY) + Cov E(Y|TY) = D."""

    e_cov_given: np.ndarray
    cov_of_mean: np.ndarray
    residual: float


def _whiten(g: Gaussian, t, rank_tol_scale):
    tm = as_linear_map(t)
    if tm.cols != g.dim:
        raise DimError(f"map expects dim {tm.cols} but the law lives on R^{g.dim}")
    d_dec = g.cov.decomposition(rank_tol_scale)
    root = d_dec.sqrt_matrix()
    # S carries roundoff of order eps * ||T|| ||D^(1/2)||, e.g. from a row of
    # T that reads null(D); that product is the floor of its rank cut.
    return tm, d_dec, root, LinearMap(tm.entries @ root), frob(tm.entries) * frob(root)


def condition(g: Gaussian, t, rank_tol_scale: float | None = None) -> ConditionalLaw:
    """Conditional law of Y ~ g given T Y, valid for any ranks of D and T.

    The gain is D^(1/2) P D^(-1/2) with P the projector onto the row space
    of S = T D^(1/2); the conditional covariance is D^(1/2) (I - P) D^(1/2).
    A zero T returns the prior itself; a full-rank square T collapses the
    covariance to zero.
    """
    tm, d_dec, root, s, ref = _whiten(g, t, rank_tol_scale)
    p_row = row_space_projector(s, rank_tol_scale, ref).entries
    gain = root @ p_row @ d_dec.pinv_sqrt_matrix()
    cov_entries = root @ (np.eye(g.dim) - p_row) @ root
    cov = _psd_clamped((cov_entries + cov_entries.T) / 2.0, rank_tol_scale, frob(root) ** 2)
    prior_null = Projector(d_dec.null_projector_matrix(), g.dim - d_dec.rank)
    return ConditionalLaw(g.mean, gain, cov, prior_null, _resolve_rank_tol_scale(rank_tol_scale))


def evaluate(
    law: ConditionalLaw,
    y,
    check_support: bool = False,
    support_tol: float | None = None,
) -> Gaussian:
    """Instantiate the conditional law at a state y.

    y is a full state of the prior (the conditioning event is T Y = T y).
    With check_support the component of y - prior_mean in the null space
    of the prior covariance must vanish within support_tol, otherwise the
    state is impossible under the prior and InconsistentObservation is
    raised.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != law.dim:
        raise DimError(f"state has dim {y.size} but the law lives on R^{law.dim}")
    shift = y - law.prior_mean
    if check_support:
        off = float(np.linalg.norm(law.prior_null_projector.entries @ shift))
        tol = support_tol if support_tol is not None else 1e-8 * (1.0 + float(np.linalg.norm(shift)))
        if off > tol:
            raise InconsistentObservation(
                f"state leaves the support of the prior by {off:.3e} (tol {tol:.3e})"
            )
    return Gaussian(law.prior_mean + law.gain @ shift, law.cov)


def decompose(g: Gaussian, t, rank_tol_scale: float | None = None) -> Decomposition:
    """Split Y ~ g into M Y independent of T Y plus an affine image of T Y.

    M = D^(1/2) P_null(S) D^(-1/2) satisfies T D M^T = 0, which for jointly
    normal vectors is exactly independence of M Y and T Y. The affine part
    reproduces Y - M Y from the value of T Y alone. S (m x n), divided by
    its largest entry c, is zero-padded to a square k x k map,
    k = max(m, n), whose invertible left factor U has
    U[:n, :m] S / c = P_row(S); the gain is A = D^(1/2) U[:n, :m] / c
    restricted to range(S). P_row(S) and range(S) are read off the SVD
    that built U, so M and A share one rank decision.
    """
    tm, d_dec, root, s, ref = _whiten(g, t, rank_tol_scale)
    # U's unit singular values would carry roundoff of size eps * |S| out of
    # range(S)^perp unscaled; at unit size that is eps for every scale of T.
    size = maxabs(s.entries) or 1.0
    k = max(tm.rows, tm.cols)
    padded = LinearMap(np.pad(s.entries / size, ((0, k - tm.rows), (0, k - tm.cols))))
    u = invertible_left_factor(padded, rank_tol_scale, ref / size)
    w, _, vt, rank = _map_svd(padded, rank_tol_scale, ref / size)
    v_r = vt[:rank, : tm.cols].T
    out = v_r @ v_r.T
    p_row = Projector((out + out.T) / 2.0, rank)
    p_null = p_row.complement()
    m_map = root @ p_null.entries @ d_dec.pinv_sqrt_matrix()
    # T Y - T mu never leaves range(S) on the support of the prior. Off it, U
    # is an arbitrary isometry that would carry rounding in T Y, scaled by the
    # rows of T that read null(D), into the split; the gain keeps U on range(S).
    w_r = w[: tm.rows, :rank]
    affine_gain = root @ (u[: tm.cols, : tm.rows] @ w_r) @ w_r.T / size
    null_d = d_dec.null_projector_matrix()
    affine_offset = (np.eye(g.dim) - affine_gain @ tm.entries) @ (null_d @ g.mean)
    scale = _resolve_rank_tol_scale(rank_tol_scale)
    return Decomposition(m_map, affine_gain, affine_offset, s, p_null, p_row, scale)


def endomorphism_reduction(t) -> LinearMap:
    """Replace a rectangular T by the square T^T T, which has the same null space.

    Conditioning only ever sees T through the null space of T D^(1/2), so
    this reduction leaves the conditional law unchanged while making the
    transform an endomorphism of the state space.
    """
    tm = as_linear_map(t)
    return LinearMap(tm.entries.T @ tm.entries)


def anova_check(g: Gaussian, t, rank_tol_scale: float | None = None) -> AnovaReport:
    """Evaluate both halves of the variance decomposition and their defect.

    e_cov_given = D^(1/2) P_null(S) D^(1/2) is the expected conditional
    covariance; cov_of_mean = D^(1/2) P_row(S) D^(1/2) is the covariance of
    the conditional mean; their sum must reproduce D. The residual is the
    largest entry of the defect.
    """
    _, _, root, s, ref = _whiten(g, t, rank_tol_scale)
    p_row = row_space_projector(s, rank_tol_scale, ref).entries
    e_cov_given = root @ (np.eye(g.dim) - p_row) @ root
    e_cov_given = (e_cov_given + e_cov_given.T) / 2.0
    cov_of_mean = root @ p_row @ root
    cov_of_mean = (cov_of_mean + cov_of_mean.T) / 2.0
    residual = maxabs(e_cov_given + cov_of_mean - g.cov.entries)
    return AnovaReport(e_cov_given, cov_of_mean, residual)


def lift_observation(
    g: Gaussian,
    t,
    observed,
    rank_tol_scale: float | None = None,
    strict: bool = False,
    tol: float | None = None,
) -> np.ndarray:
    """Support-consistent state y* with T y* equal to the observed value.

    The minimal construction y* = mu + D^(1/2) S^+ (observed - T mu), with
    S^+ from the SVD of S under the map rank rule, lands in the support
    mu + range(D) by design; when the observed vector is not attainable
    (it leaves the range of S), T y* only matches its attainable part, and
    with strict=True that mismatch raises InconsistentObservation.
    """
    tm, _, root, s, ref = _whiten(g, t, rank_tol_scale)
    obs = np.asarray(observed, dtype=float).reshape(-1)
    if obs.size != tm.rows:
        raise DimError(f"observed value has dim {obs.size} but the map outputs dim {tm.rows}")
    if tm.rows == 0:
        return g.mean.copy()
    shift = obs - tm.entries @ g.mean
    w, sv, vt, rank = _map_svd(s, rank_tol_scale, ref)
    state = g.mean + root @ (vt[:rank].T @ ((w[:, :rank].T @ shift) / sv[:rank]))
    if strict:
        residual = float(np.linalg.norm(tm.entries @ state - obs))
        limit = tol if tol is not None else 1e-8 * (1.0 + float(np.linalg.norm(obs)))
        if residual > limit:
            raise InconsistentObservation(
                f"observed value misses the attainable set by {residual:.3e} (tol {limit:.3e})"
            )
    return state
