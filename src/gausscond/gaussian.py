"""Multivariate normal vectors with possibly singular covariance.

A Gaussian here is a mean vector plus a positive semidefinite SymOperator;
no density ever appears, so rank-deficient covariance is a first-class
citizen. The law is pinned down by its characteristic function, pushed
forward through linear maps, and sampled by whitening: mu + D^(1/2) Z with
Z standard normal.

Sampling is reproducible: uniforms come from numpy's PCG64 stream for the
given seed and are turned into normals with the Box-Muller transform, so
identical (seed, count, model) gives rows identical on one numpy/BLAS
build and equal to rounding across builds.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimError, InvalidInput
from .spectral import (
    LinearMap,
    SymOperator,
    _psd_decomposition,
    as_linear_map,
    as_sym_operator,
    frob,
    maxabs,
)

INDEPENDENCE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Gaussian:
    """Normal law N(mean, cov) on R^n; cov may be singular.

    A law keeps its most recent whitening S = T D^(1/2), with the one SVD
    that condition, lift_observation and decompose read, in a one-entry
    slot keyed by T's shape and bytes and the rank_tol_scale: the calls
    of one (law, T) factor S once, an in-place edit of T misses the slot,
    and the slot never holds more than one map.
    """

    mean: np.ndarray
    cov: SymOperator
    _whitening: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        mu = np.asarray(self.mean, dtype=float).reshape(-1)
        if mu.size < 1:
            raise InvalidInput("mean must have at least one coordinate")
        if not np.all(np.isfinite(mu)):
            raise InvalidInput("mean has non-finite entries")
        cov = as_sym_operator(self.cov)
        if cov.dim != mu.size:
            raise DimError(f"mean has dim {mu.size} but cov has dim {cov.dim}")
        _psd_decomposition(cov, None, "covariance")
        mu = mu.copy()
        mu.setflags(write=False)
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True, eq=False)
class JointGaussian:
    """Joint law of (S Y, T Y) on R^(m+p), with the block boundary recorded.

    Positive semidefiniteness is validated by joint(), which knows the
    magnitude of the products that built the covariance; the type itself
    only enforces shapes. Entries may carry eigenvalues negative at
    roundoff scale and are never rewritten, so the diagonal blocks stay
    bit-identical to the marginal covariances they came from.
    """

    mean: np.ndarray
    cov: SymOperator
    block_split: int

    def __post_init__(self):
        mu = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = as_sym_operator(self.cov)
        if cov.dim != mu.size:
            raise DimError(f"mean has dim {mu.size} but cov has dim {cov.dim}")
        if not 0 <= self.block_split <= mu.size:
            raise DimError(f"block_split {self.block_split} outside [0, {mu.size}]")
        mu = mu.copy()
        mu.setflags(write=False)
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    def marginal_first(self) -> Gaussian:
        m = self.block_split
        if m < 1:
            raise DimError("first block is empty")
        return Gaussian(self.mean[:m], SymOperator(self.cov.entries[:m, :m]))

    def marginal_second(self) -> Gaussian:
        m = self.block_split
        if m >= self.dim:
            raise DimError("second block is empty")
        return Gaussian(self.mean[m:], SymOperator(self.cov.entries[m:, m:]))


class IndependenceResult(NamedTuple):
    independent: bool
    residual: float


def _map_on(g: Gaussian, t) -> LinearMap:
    # The one domain check: a map applied to Y ~ g must read R^n.
    tm = as_linear_map(t)
    if tm.cols != g.dim:
        raise DimError(f"map expects dim {tm.cols} but the law lives on R^{g.dim}")
    return tm


def _observed(tm: LinearMap, y) -> np.ndarray:
    # The one observation check: an observed value of T Y lives in R^m.
    obs = np.asarray(y, dtype=float).reshape(-1)
    if obs.size != tm.rows:
        raise DimError(f"observation has dim {obs.size} but the map outputs dim {tm.rows}")
    if not np.all(np.isfinite(obs)):
        raise InvalidInput("observation has non-finite entries")
    return obs


def char_fn(g: Gaussian, t) -> complex:
    """Characteristic function exp(i <t, mu> - <t, D t>/2) at the point t."""
    t = np.asarray(t, dtype=float).reshape(-1)
    if t.size != g.dim:
        raise DimError(f"argument has dim {t.size} but the law lives on R^{g.dim}")
    if not np.all(np.isfinite(t)):
        raise InvalidInput("argument has non-finite entries")
    quad = float(t @ g.cov.entries @ t)
    lin = float(t @ g.mean)
    return cmath.exp(complex(-0.5 * quad, lin))


def _psd_clamped(
    entries: np.ndarray, rank_tol_scale: float | None, ref: float = 0.0, rank: int | None = None
) -> SymOperator:
    # The PSD gate raises below the roundoff band of products of size ref. The
    # eigenvalues past rank, known from the factors of the matrix, and negative
    # ones become exact zeros; no band zeroes a positive eigenvalue, which may be
    # exact. Entries stay untouched if none is; the result carries its decomposition.
    op = SymOperator(entries)
    dec = _psd_decomposition(op, rank_tol_scale, "matrix", ref)
    keep = op.dim if rank is None else max(rank, 0)
    if dec.eigenvalues[-1] >= 0.0 and not dec.eigenvalues[keep:].any():
        return op
    return dec._clamped(keep)


def pushforward(g: Gaussian, s, rank_tol_scale: float | None = None) -> Gaussian:
    """Law of S Y for Y ~ g: mean S mu, covariance S D S^T."""
    sm = _map_on(g, s)
    if sm.rows < 1:
        raise DimError("map has an empty output space")
    cov = sm.entries @ g.cov.entries @ sm.entries.T
    ref = frob(sm.entries) ** 2 * frob(g.cov.entries)
    return Gaussian(sm.entries @ g.mean, _psd_clamped(cov, rank_tol_scale, ref))


def joint(g: Gaussian, s, t, rank_tol_scale: float | None = None) -> JointGaussian:
    """Joint law of (S Y, T Y): block mean and block covariance of the pair.

    Diagonal blocks are taken verbatim from pushforward, so the marginals
    of the result reproduce pushforward(g, s) and pushforward(g, t) entry
    for entry. The assembled matrix is validated as positive semidefinite
    up to roundoff of the producing products but never rewritten.
    """
    sm, tm = _map_on(g, s), _map_on(g, t)
    m, p = sm.rows, tm.rows
    if m + p < 1:
        raise DimError("both maps have empty output spaces")
    d = g.cov.entries
    big = np.empty((m + p, m + p))
    big[:m, m:] = sm.entries @ d @ tm.entries.T
    big[m:, :m] = tm.entries @ d @ sm.entries.T
    if m:
        big[:m, :m] = pushforward(g, sm, rank_tol_scale).cov.entries
    if p:
        big[m:, m:] = pushforward(g, tm, rank_tol_scale).cov.entries
    # SymOperator's average passes exactly symmetric diagonal blocks unchanged.
    op = SymOperator(big)
    ref = (frob(sm.entries) + frob(tm.entries)) ** 2 * frob(d)
    _psd_decomposition(op, rank_tol_scale, "joint covariance", ref)

    mean = np.concatenate([sm.entries @ g.mean, tm.entries @ g.mean])
    return JointGaussian(mean, op, m)


def independence_test(g: Gaussian, s, t) -> IndependenceResult:
    """Whether S Y and T Y are independent under g.

    For jointly normal vectors independence is exactly the vanishing of the
    cross-covariance S D T^T; the residual reported is its largest entry in
    magnitude, compared against 1e-10 times (1 + ||S|| ||D|| ||T||).
    """
    sm, tm = _map_on(g, s), _map_on(g, t)
    cross = sm.entries @ g.cov.entries @ tm.entries.T
    residual = maxabs(cross)
    limit = INDEPENDENCE_TOL * (1.0 + sm.norm() * g.cov.norm() * tm.norm())
    return IndependenceResult(residual <= limit, residual)


def standard_normal_rows(count: int, dim: int, seed: int) -> np.ndarray:
    """count x dim standard normals, reproducible for a given seed.

    Uniform deviates come from PCG64; pairs (u1, u2) with u1 shifted into
    (0, 1] are mapped through Box-Muller, r cos(a) and r sin(a) filling
    consecutive slots.
    """
    if seed < 0:
        raise InvalidInput(f"seed must be non-negative, got {seed}")
    total = count * dim
    pairs = (total + 1) // 2
    rng = np.random.Generator(np.random.PCG64(seed))
    u1 = 1.0 - rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:total].reshape(count, dim)


def sample(g: Gaussian, count: int, seed: int, rank_tol_scale: float | None = None) -> np.ndarray:
    """Draw count rows from g as mu + D^(1/2) Z.

    Rows always lie in the support mu + range(D): null directions of the
    covariance get an exact zero factor, not a rounded one.
    """
    if count < 1:
        raise InvalidInput(f"count must be positive, got {count}")
    root = g.cov.decomposition(rank_tol_scale).sqrt_matrix()
    z = standard_normal_rows(count, g.dim, seed)
    return g.mean + z @ root
