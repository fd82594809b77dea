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

One SVD serves the law, the lift and the split: S, divided by its largest
entry c, is factored once per (law, T, rank_tol_scale) at its own m x n
shape, and that SVD, completed by identities, is the SVD of S / c
zero-padded to a square map. A Gaussian keeps its most recent whitening,
a record that forms each map of (D, T) once: P_row(S), S^+, range(S), the
law and the split. condition, lift_observation and decompose only read it,
so repeat calls on one (law, T) recompute nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimError, InconsistentObservation, InvalidInput
from .gaussian import Gaussian, _map_on, _observed, _psd_clamped
from .spectral import (
    DEFAULT_RANK_TOL_SCALE,
    EPS,
    LinearMap,
    Projector,
    SymOperator,
    _map_svd,
    _outer,
    _resolve_rank_tol_scale,
    _zero_padded,
    as_linear_map,
    frob,
    invertible_left_factor,
    maxabs,
    orthonormal_columns,
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
        mu = np.array(self.prior_mean, dtype=float).reshape(-1)
        k = np.array(self.gain, dtype=float)
        if k.shape != (mu.size, mu.size):
            raise DimError(f"gain shape {k.shape} does not match dim {mu.size}")
        if self.cov.dim != mu.size or self.prior_null_projector.dim != mu.size:
            raise DimError("covariance or projector dimension mismatch")
        for name, arr in (("prior_mean", mu), ("gain", k)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.prior_mean.size


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Split of Y into a T Y-independent part and an affine function of T Y.

    M = independent_map applied to Y is independent of T Y, and on the
    support of the prior Y - M Y = affine_gain (T Y) + affine_offset, so
    the two summands reconstruct Y exactly. One SVD of the whitened map
    S = T D^(1/2), completed by identities to the SVD of S zero-padded to
    a square map, gives both its null projector, hence M, and the padded
    map's invertible left factor, hence affine_gain; it is the same SVD
    that condition and lift_observation read. Repeat calls share one
    split, so its arrays are read-only.
    """

    independent_map: np.ndarray
    affine_gain: np.ndarray
    affine_offset: np.ndarray
    rank_tol_scale: float = DEFAULT_RANK_TOL_SCALE


@dataclass(frozen=True)
class AnovaReport:
    """Pieces of the variance decomposition E Cov(Y|TY) + Cov E(Y|TY) = D.

    Both halves are read off the law that condition() returns: its
    covariance, and K D K^T for its gain K.
    """

    e_cov_given: np.ndarray
    cov_of_mean: np.ndarray
    residual: float


class _Whitening:
    """S = T D^(1/2) of one (law, T, rank_tol_scale), factored once.

    S is divided by its largest entry c and zero-padded to a square
    k x k map, k = max(m, n). Its SVD W Sigma V^T is one full SVD of S / c
    at its own m x n shape, completed by identities (spectral._zero_padded).
    Cut by the map rank rule with floor ||T|| ||D^(1/2)|| / c, it gives
    P_row(S) = V_r V_r^T, S^+ = V_r (Sigma_r c)^(-1) W_r^T, range(S) = W_r
    and decompose's left factor, so every route shares one rank decision.
    D^(1/2), D^(-1/2)+, P_row(S) and root_null = D^(1/2) P_null(S) are formed
    when it is built, the law and the Decomposition on first use. It holds the
    prior mean, not the Gaussian, so it makes no reference cycle.
    """

    def __init__(self, g: Gaussian, tm: LinearMap, scale: float):
        self.mean, self.tm, self.scale = g.mean, tm, scale
        self.d_dec = g.cov.decomposition(scale)
        self.root = self.d_dec.sqrt_matrix()
        s = tm.entries @ self.root
        # S carries roundoff of order eps * ||T|| ||D^(1/2)||, e.g. from a row
        # of T that reads null(D); that product is the floor of its rank cut.
        # At unit size the left factor's residual bound, which grows with
        # ||S||, stays tight for every scale of T.
        self.size = maxabs(s) or 1.0
        self.floor = frob(tm.entries) * frob(self.root) / self.size
        self.padded = _zero_padded(s / self.size)
        self.w, self.sv, self.vt, self.rank = _map_svd(self.padded, scale, self.floor)
        self.pinv_root = self.d_dec.pinv_sqrt_matrix()
        self.p_row = Projector(_outer(self.vt[: self.rank, : tm.cols].T), self.rank)
        self.root_null = self.root @ (np.eye(tm.cols) - self.p_row.entries)

    @cached_property
    def law(self) -> ConditionalLaw:
        root, p_row = self.root, self.p_row.entries
        gain = root @ p_row @ self.pinv_root
        # The roundoff floor of root (I - P) root; past the float limit no tolerance can be stated.
        if not math.isfinite(ref := frob(root) * frob(root)):
            raise InvalidInput("covariance is too large to condition: ||D^(1/2)||_F^2 overflows")
        cov = _psd_clamped(self.root_null @ root, self.scale, ref, self.d_dec.rank - self.rank)
        return ConditionalLaw(self.mean, gain, cov, self.d_dec.null_projector, self.scale)

    @cached_property
    def decomposition(self) -> Decomposition:
        tm = self.tm
        u = invertible_left_factor(self.padded, self.scale, self.floor)
        m_map = self.root_null @ self.pinv_root
        # T Y - T mu never leaves range(S) on the support of the prior. Off it, U
        # is an arbitrary map onto null(S) that would carry rounding in T Y,
        # scaled by the rows of T that read null(D), into the split; the gain
        # keeps U on range(S).
        w_r = orthonormal_columns(self.padded, self.scale, self.floor)[: tm.rows]
        affine_gain = self.root @ (u[: tm.cols, : tm.rows] @ w_r) @ w_r.T / self.size
        null_d = self.d_dec.null_projector.entries
        affine_offset = (np.eye(tm.cols) - affine_gain @ tm.entries) @ (null_d @ self.mean)
        for shared in (m_map, affine_gain, affine_offset):
            shared.setflags(write=False)
        return Decomposition(m_map, affine_gain, affine_offset, self.scale)


def _whiten(g: Gaussian, t, rank_tol_scale) -> _Whitening:
    # The law's one-entry slot, keyed by T's shape and bytes: an in-place
    # edit of T never returns a stale record, and a new map replaces the old.
    tm = _map_on(g, t)
    scale = _resolve_rank_tol_scale(rank_tol_scale)
    key = (tm.entries.shape, tm.entries.tobytes(), scale)
    if g._whitening is None or g._whitening[0] != key:
        object.__setattr__(g, "_whitening", (key, _Whitening(g, tm, scale)))
    return g._whitening[1]


def condition(g: Gaussian, t, rank_tol_scale: float | None = None) -> ConditionalLaw:
    """Conditional law of Y ~ g given T Y, valid for any ranks of D and T.

    The gain is D^(1/2) P D^(-1/2) with P the projector onto the row space
    of S = T D^(1/2); the conditional covariance is D^(1/2) (I - P) D^(1/2).
    A zero T returns the prior itself; a full-rank square T collapses the
    covariance to exact zeros: the rank of G is rank D - rank S, and the PSD
    clamp zeroes the rest. A repeat call on one (law, T) returns the same law.
    """
    return _whiten(g, t, rank_tol_scale).law


def _consistent(residual: np.ndarray, size: float, ref: float, dim: int, what: str) -> None:
    # The one consistency check: a residual may reach 1e-8 of the size it is measured
    # against plus 100 dim eps ref, the rounding of the dim-term products of size ref
    # that formed it. It is no rank decision, so rank_tol_scale does not move it.
    # A NaN residual is outside every tolerance.
    tol = 1e-8 * size + 100.0 * dim * EPS * ref
    if not (off := frob(residual)) <= tol:
        raise InconsistentObservation(f"{what} by {off:.3e} (tol {tol:.3e})")


def evaluate(law: ConditionalLaw, y, check_support: bool = False) -> Gaussian:
    """Instantiate the conditional law at a state y.

    y is a full state of the prior (the conditioning event is T Y = T y).
    With check_support the component of y - prior_mean in the null space
    of the prior covariance must vanish within 1e-8 ||y - prior_mean|| plus
    the rounding floor of ||y|| + ||prior_mean||, otherwise the state is
    impossible under the prior and InconsistentObservation is raised.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != law.dim:
        raise DimError(f"state has dim {y.size} but the law lives on R^{law.dim}")
    if not np.all(np.isfinite(y)):
        raise InvalidInput("state has non-finite entries")
    shift = y - law.prior_mean
    if check_support:
        off, ref = law.prior_null_projector.entries @ shift, frob(y) + frob(law.prior_mean)
        _consistent(off, frob(shift), ref, law.dim, "state leaves the support of the prior")
    return Gaussian(law.prior_mean + law.gain @ shift, law.cov)


def decompose(g: Gaussian, t, rank_tol_scale: float | None = None) -> Decomposition:
    """Split Y ~ g into M Y independent of T Y plus an affine image of T Y.

    M = D^(1/2) P_null(S) D^(-1/2) satisfies T D M^T = 0, which for jointly
    normal vectors is exactly independence of M Y and T Y. The affine part
    reproduces Y - M Y from the value of T Y alone. S (m x n), divided by
    its largest entry c, is zero-padded to a square k x k map,
    k = max(m, n), whose invertible left factor U has
    U[:n, :m] S / c = P_row(S); the gain is A = D^(1/2) U[:n, :m] / c
    restricted to range(S). U, P_row(S) and range(S) are read off the one
    SVD of S / c at its own shape, so M and A share one rank decision.
    M reuses the factor D^(1/2) P_null(S) of the conditional covariance.
    """
    return _whiten(g, t, rank_tol_scale).decomposition


def endomorphism_reduction(t) -> LinearMap:
    """Replace a rectangular T by the square T^T T, which has the same null space.

    Conditioning only ever sees T through the null space of T D^(1/2), so
    this reduction leaves the conditional law unchanged while making the
    transform an endomorphism of the state space.
    """
    tm = as_linear_map(t)
    return LinearMap(tm.entries.T @ tm.entries)


def anova_check(g: Gaussian, t, rank_tol_scale: float | None = None) -> AnovaReport:
    """Verify the law condition() returns against the law of total variance.

    e_cov_given is the conditional covariance of condition(g, t), which
    does not depend on the observed value, so it is its own expectation;
    cov_of_mean = K D K^T is the covariance of the conditional mean
    mu + K (Y - mu), K the law's gain. Their sum must reproduce D. The
    residual is the largest entry of the defect.
    """
    law = condition(g, t, rank_tol_scale)
    cov_of_mean = law.gain @ g.cov.entries @ law.gain.T
    cov_of_mean = (cov_of_mean + cov_of_mean.T) / 2.0
    residual = maxabs(law.cov.entries + cov_of_mean - g.cov.entries)
    return AnovaReport(law.cov.entries, cov_of_mean, residual)


def lift_observation(
    g: Gaussian, t, observed, rank_tol_scale: float | None = None, strict: bool = False
) -> np.ndarray:
    """Conditional mean E[Y | T Y = observed], a state y* with T y* = observed.

    y* = mu + D^(1/2) S^+ (observed - T mu), with S^+ from the one SVD of S
    that condition and decompose share, is the conditional mean
    mu + D T^T (T D T^T)^+ (observed - T mu); evaluating condition(g, t)
    at y* returns mean y*.
    It lands in the support mu + range(D) by design. When the observed
    vector is not attainable (it leaves the range of S), T y* only matches
    its attainable part; with strict=True a mismatch above 1e-8 ||observed||
    plus the rounding of T mu, D^(1/2) S^+ (observed - T mu) and observed
    raises InconsistentObservation.
    """
    tm = _map_on(g, t)
    obs = _observed(tm, observed)
    wh = _whiten(g, tm, rank_tol_scale)
    shift = obs - tm.entries @ g.mean
    r, m, n = wh.rank, tm.rows, tm.cols
    coef = (wh.w[:m, :r].T @ shift) / (wh.sv[:r] * wh.size)
    state = g.mean + wh.root @ (wh.vt[:r, :n].T @ coef)
    if not np.all(np.isfinite(state)):
        raise InvalidInput("conditional mean is not finite: T mu or the lift overflows")
    if strict:
        ref = frob(tm.entries) * (frob(g.mean) + frob(wh.root) * frob(coef)) + frob(obs)
        _consistent(tm.entries @ state - obs, frob(obs), ref, n, "observed value misses the attainable set")
    return state
