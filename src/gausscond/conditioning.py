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

D's eigenbasis needs no second n x n eigensolve: with F = Q_r Lambda_r^(1/2) from
the prior's gate, S_r = T F (m x rank D), divided by its largest entry c, is factored
once per (law, T, rank_tol_scale) at its own shape, and that SVD, completed by
identities, is the SVD of S_r / c zero-padded to a square map; the covariance is read
off one small SVD of its factor. A Gaussian keeps its most recent whitening, a record
that admits T once per call, makes the one rank cut of S and forms each map of (D, T)
once: the gain, S^+, range(S), the law and the split. condition, lift_observation and
decompose only read it, so repeat calls on one (law, T) recompute nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimError, InconsistentObservation, InvalidInput
from .gaussian import Gaussian, _map_on, _psd_clamped
from .spectral import (
    DEFAULT_RANK_TOL_SCALE,
    EPS,
    LinearMap,
    Projector,
    SymOperator,
    _admit,
    _from_eigenpairs,
    _map_entries,
    _resolve_rank_tol_scale,
    _symmetrized,
    _zero_padded,
    _zeros_on,
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
        mu, k = _admit(self.prior_mean, "prior_mean").copy(), _admit(self.gain, "gain", None).copy()
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
    the two summands reconstruct Y exactly. Both are read off the whitening
    record that condition and lift_observation read, with its one SVD of S_r and
    its one rank cut of S. Repeat calls share one split, so its arrays are
    read-only.
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
    """S = T D^(1/2) of one (law, T, rank_tol_scale), factored and cut once, in D's eigenbasis.

    With F = Q_r Lambda_r^(1/2) from the gate's eigenpairs, S = S_r Q_r^T for S_r = T F
    (m x rank D). S_r, divided by its largest entry c and zero-padded to k x k, k = max(m, n),
    has one full SVD W Sigma V^T at its own shape, completed by identities. Only the record
    cuts it and reads its factors: range(S) = W_r, cut by the map rank rule with floor
    ||T|| ||D^(1/2)|| / c, sets rank S for the gain K = (F V_r)(Q_r Lambda_r^(-1/2) V_r)^T,
    formed when it is built, and for the lift, the law (G = B B^T, B = F V_perp) and the
    Decomposition (M = P_range(D) - K), formed on first use. An empty S_r (m = 0 or
    rank D = 0) is the zero map, whose SVD _zero_padded seeds without factoring. Where
    rank S = 0 the law is the prior and the split is (P_range(D), 0, P_null(D) mu); where
    rank S = rank D, G is exact zeros on D's eigenvectors: neither factors the core or forms
    U. It holds the prior mean and covariance, not the Gaussian, so it makes no reference cycle.
    """

    def __init__(self, g: Gaussian, tm: LinearMap, scale: float):
        self.mean, self.prior_cov, self.tm, self.scale = g.mean, g.cov, tm, scale
        dec = self.d_dec = g.cov.decomposition(scale)
        q_r, self.root_vals = dec.eigenvectors[:, : dec.rank], np.sqrt(dec.eigenvalues[: dec.rank])
        self.f = q_r * self.root_vals
        s = tm.entries @ self.f
        # S carries roundoff of order eps * ||T|| ||D^(1/2)||, e.g. from a row of T that reads
        # null(D); that product is the floor of its rank cut. At unit size its singular values
        # lie in [0, max(m, n)] at every scale of T and D; the lift and the split restore c.
        self.size = maxabs(s) or 1.0
        self.floor = frob(tm.entries) * frob(self.root_vals) / self.size
        self.padded = _zero_padded(s / self.size, tm.cols)
        self.w_r = orthonormal_columns(self.padded, scale, self.floor)[: tm.rows]
        self.rank = self.w_r.shape[1]
        _, self.sv, vt = self.padded.svd
        self.v = vt[: dec.rank, : dec.rank].T
        v_r = self.v[:, : self.rank]
        self.gain = (self.f @ v_r) @ ((q_r / self.root_vals) @ v_r).T

    @cached_property
    def law(self) -> ConditionalLaw:
        q, r_d, kept = self.d_dec.eigenvectors, self.d_dec.rank, self.d_dec.rank - self.rank
        if not self.rank:
            # S observes nothing: G is D itself, whose gate has certified it.
            cov = self.prior_cov
        elif not kept:
            # S observes all of range(D): G is exact zeros on D's certified eigenvectors.
            cov = _zeros_on(q)
        else:
            # G = Q_r C C^T Q_r^T for the core C = Lambda_r^(1/2) V_perp = U_C Sigma_C Z_C^T: its
            # eigenvectors are Q_r U_C and null(D)'s, its eigenvalues Sigma_C^2 and then exact zeros.
            u_c, s_c, _ = np.linalg.svd(self.root_vals[:, None] * self.v[:, self.rank :])
            vals = np.concatenate([s_c * s_c, np.zeros(self.tm.cols - kept)])
            vecs = np.concatenate([q[:, :r_d] @ u_c, q[:, r_d:]], axis=1)
            # Its gate can neither raise nor clamp, but the traced benchmark requires the layer.
            cov = _psd_clamped(_from_eigenpairs(vals, vecs), self.scale)
        return ConditionalLaw(self.mean, self.gain, cov, self.d_dec.null_projector, self.scale)

    @cached_property
    def decomposition(self) -> Decomposition:
        tm, null_d = self.tm, self.d_dec.null_projector.entries
        # On the support of the prior, Y - E[Y | T Y] = (P_range(D) - K)(Y - mu). Where S
        # observes nothing, K and A are exact zeros and the offset is P_null(D) mu: no U is formed.
        m_map, affine_gain = np.eye(tm.cols) - null_d, np.zeros((tm.cols, tm.rows))
        if self.rank:
            u = invertible_left_factor(self.padded, self.scale, self.floor)
            m_map = m_map - self.gain
        # T Y - T mu never leaves range(S) on the support of the prior. Off it, U
        # is an arbitrary map onto null(S) that would carry rounding in T Y,
        # scaled by the rows of T that read null(D), into the split; the gain
        # keeps U on range(S). The exact A overflows where S is tiny against
        # D^(1/2), the offset where mu nears the float limit: such a split fails closed.
        with np.errstate(over="ignore", invalid="ignore"):
            affine_offset = null_d @ self.mean
            if self.rank:
                affine_gain = self.f @ (u[: self.d_dec.rank, : tm.rows] @ self.w_r) @ self.w_r.T / self.size
                affine_offset = (np.eye(tm.cols) - affine_gain @ tm.entries) @ affine_offset
        if not (np.isfinite(affine_gain).all() and np.isfinite(affine_offset).all()):
            raise InvalidInput("the split is not finite: D^(1/2) S^+ or its offset overflows")
        for shared in (m_map, affine_gain, affine_offset):
            shared.setflags(write=False)
        return Decomposition(m_map, affine_gain, affine_offset, self.scale)

    def lift(self, observed, strict: bool) -> np.ndarray:
        # mu + F V_r (Sigma_r c)^(-1) W_r^T (observed - T mu), failing closed where it overflows.
        tm, r, n = self.tm, self.rank, self.tm.cols
        obs = _admit(observed, "observation", 1, tm.rows, "the map outputs dim {}")
        # Where S observes nothing (r = 0), coef is empty and the state is mu.
        with np.errstate(over="ignore", invalid="ignore"):
            coef = (self.w_r.T @ (obs - tm.entries @ self.mean)) / (self.sv[:r] * self.size)
            state = self.mean + self.f @ (self.v[:, :r] @ coef)
            residual = tm.entries @ state - obs if strict else None
        if not np.isfinite(state).all():
            raise InvalidInput("conditional mean is not finite: T mu or the lift overflows")
        if strict:
            ref = frob(tm.entries) * (frob(self.mean) + frob(self.root_vals) * frob(coef)) + frob(obs)
            _consistent(residual, frob(obs), ref, n, "observed value misses the attainable set")
        return state


def _whiten(g: Gaussian, t, rank_tol_scale) -> _Whitening:
    # The law's one-entry slot, keyed by T's shape and bytes as as_linear_map
    # reads them: an in-place edit of T never returns a stale record, a new map
    # replaces the old, and T is wrapped and checked once, when the slot misses.
    raw, scale = _map_entries(t), _resolve_rank_tol_scale(rank_tol_scale)
    key = (raw.shape, raw.tobytes(), scale)
    if g._whitening is None or g._whitening[0] != key:
        object.__setattr__(g, "_whitening", (key, _Whitening(g, _map_on(g, t), scale)))
    return g._whitening[1]


def condition(g: Gaussian, t, rank_tol_scale: float | None = None) -> ConditionalLaw:
    """Conditional law of Y ~ g given T Y, valid for any ranks of D and T.

    The gain is D^(1/2) P D^(-1/2) with P the projector onto the row space
    of S = T D^(1/2); the conditional covariance is D^(1/2) (I - P) D^(1/2).
    A T whose S observes nothing (zero or empty T, zero D, rows that read only
    null(D)) returns the prior's own covariance; one that observes all of range(D),
    as a full-rank square T does, returns exact zeros. Otherwise G is read off a
    factor of rank D - rank S, and its other eigenvalues are exact zeros. A repeat
    call on one (law, T) returns the same law.
    """
    return _whiten(g, t, rank_tol_scale).law


def _consistent(residual: np.ndarray, size: float, ref: float, dim: int, what: str) -> None:
    # The one consistency check: a residual may reach 1e-8 of the size it is measured
    # against plus 100 dim eps ref, the rounding of the dim-term products of size ref
    # that formed it. It is no rank decision, so rank_tol_scale does not move it.
    # A NaN residual is outside every tolerance; past the float limit none can be stated.
    if not math.isfinite(tol := 1e-8 * size + 100.0 * dim * EPS * ref):
        raise InvalidInput(f"too large to check whether the {what}: the tolerance overflows")
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
    y = _admit(y, "state", 1, law.dim, "the law lives on R^{}")
    shift = y - law.prior_mean
    if check_support:
        off, ref = law.prior_null_projector.entries @ shift, frob(y) + frob(law.prior_mean)
        _consistent(off, frob(shift), ref, law.dim, "state leaves the support of the prior")
    return Gaussian(law.prior_mean + law.gain @ shift, law.cov)


def decompose(g: Gaussian, t, rank_tol_scale: float | None = None) -> Decomposition:
    """Split Y ~ g into M Y independent of T Y plus an affine image of T Y.

    M = D^(1/2) P_null(S) D^(-1/2) satisfies T D M^T = 0, which for jointly
    normal vectors is exactly independence of M Y and T Y. The affine part
    reproduces Y - M Y from the value of T Y alone. S_r = T F (m x rank D,
    F = Q_r Lambda_r^(1/2)), divided by its largest entry c, is zero-padded to
    a square k x k map, k = max(m, n), whose invertible left factor U has
    U[:r, :m] S_r / c = P_row(S_r), r = rank D; the gain is A = F U[:r, :m] / c
    restricted to range(S). U and range(S) come from the record's one SVD of
    S_r / c, and M = P_range(D) - K from the law's gain K on the same record,
    so M and A share one rank decision. A split that is not finite raises.
    """
    return _whiten(g, t, rank_tol_scale).decomposition


def endomorphism_reduction(t) -> LinearMap:
    """Replace a rectangular T by the square T^T T, which has the same null space.

    Conditioning only ever sees T through the null space of T D^(1/2), so
    this reduction leaves the conditional law unchanged while making the
    transform an endomorphism of the state space.
    """
    tm = as_linear_map(t)
    # A product past the float limit fails LinearMap's admission.
    with np.errstate(over="ignore", invalid="ignore"):
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
    cov_of_mean = _symmetrized(law.gain @ g.cov.entries @ law.gain.T)
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
    return _whiten(g, t, rank_tol_scale).lift(observed, strict)
