"""Seeded problem instances, generated by the benchmark's own numpy code.

The distributions mirror the library's property-suite generators
(orthogonal factors times bounded spectra, exact zeros for rank
deficiency, ranks drawn uniformly), but nothing here imports the library:
a later change to its generators cannot silently change the benchmark's
inputs. One restriction is added: the whitened map T F must have a
condition number of at most KAPPA_MAX over its nonzero singular values,
and a map that exceeds it is drawn again. The benchmark measures speed
on well-posed problems; the library's accuracy on ill-conditioned maps
is a correctness matter, and at the seed commit it fails there (see
KAPPA_MAX). Every instance keeps the factors it was built from, so the
reference in reference.py never has to decompose what the library
decomposes.

Instance ``index`` of a workload run with ``seed`` is a pure function of
(seed, index), so any single operation can be replayed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reference import rank_cut

LARGE_N, LARGE_RANK_D, LARGE_M, LARGE_RANK_T = 64, 48, 32, 28
SMALL_N_MAX = 8
# Prior states drawn per instance for the decomposition reconstruction check.
RECON_STATES = 8
# Largest condition number of T F, over the singular values above the
# reference's rank cut, that an instance may have. Unbounded, about one
# small instance in 700 exceeds 100, and at the seed commit `decompose`
# raises InvalidInput ("left factor residual") on about one in 1400 small
# instances (kappa 88 to 1200 in 20000 draws) and returns a wrong split on
# some (reconstruction off by 0.39 at kappa 2.6e4: seed 1746794883, index
# 2334). Bounded at 30, about one small map in 200 is drawn again, and
# large maps (kappa 6 to 21 in 300 draws) almost never are. KAPPA_MAX =
# float("inf") restores the property-suite distribution draw for draw.
KAPPA_MAX = 30.0


@dataclass(frozen=True)
class Instance:
    """A prior N(mean, factor factor^T), a map t, and draws from the prior.

    obs = t @ x for one prior draw x is the observed value the operation
    conditions on. states holds further prior draws used to check the
    reconstruction of the decomposition.
    """

    mean: np.ndarray
    factor: np.ndarray
    cov: np.ndarray
    t: np.ndarray
    obs: np.ndarray
    states: np.ndarray


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.diag(r).copy()
    d[d == 0.0] = 1.0
    return q * np.sign(d)


def _psd_factor(rng, n: int, rank: int, low: float = 0.25, high: float = 4.0):
    """Covariance with eigenvalues uniform in [low, high] on `rank` directions.

    Returns (cov, factor) with cov = factor @ factor.T up to rounding.
    """
    q = _orthogonal(rng, n)
    vals = np.zeros(n)
    vals[:rank] = rng.uniform(low, high, rank)
    cov = (q * vals) @ q.T
    return (cov + cov.T) / 2.0, q[:, :rank] * np.sqrt(vals[:rank])


def _map(rng, m: int, n: int, rank: int, low: float = 0.3, high: float = 3.0) -> np.ndarray:
    if m == 0:
        return np.zeros((0, n))
    rank = min(rank, m, n)
    u = _orthogonal(rng, m)
    v = _orthogonal(rng, n)
    core = np.zeros((m, n))
    core[np.arange(rank), np.arange(rank)] = rng.uniform(low, high, rank)
    return u @ core @ v.T


def whitened_condition(t: np.ndarray, factor: np.ndarray) -> float:
    """sigma_max / sigma_min of T F over its singular values above the rank cut; 1 when T F is 0."""
    if t.size == 0 or factor.size == 0:
        return 1.0
    sig = np.linalg.svd(t @ factor, compute_uv=False)
    kept = sig[sig > rank_cut(sig[0], t.shape[1])]
    return float(kept[0] / kept[-1]) if kept.size else 1.0


def _conditioned_map(rng, m: int, n: int, rank: int, factor: np.ndarray) -> np.ndarray:
    """_map(rng, m, n, rank), drawn again until T F is within KAPPA_MAX."""
    while True:
        t = _map(rng, m, n, rank)
        if whitened_condition(t, factor) <= KAPPA_MAX:
            return t


def _prior(rng, n: int, rank: int):
    mean = rng.uniform(-2.0, 2.0, n)
    cov, factor = _psd_factor(rng, n, rank)
    return mean, cov, factor


def prior_draws(rng, mean: np.ndarray, factor: np.ndarray, count: int) -> np.ndarray:
    """count x n states mean + factor z; every row lies in the prior's support."""
    return mean + rng.standard_normal((count, factor.shape[1])) @ factor.T


def _finish(rng, mean, cov, factor, t) -> Instance:
    draws = prior_draws(rng, mean, factor, 1 + RECON_STATES)
    return Instance(mean, factor, cov, t, t @ draws[0], draws[1:])


def small_instance(seed: int, index: int) -> Instance:
    """n uniform in 1..8, rank(D) uniform in 0..n, m in 0..n, rank(T) uniform in 0..min(m, n); T F within KAPPA_MAX."""
    rng = np.random.default_rng([seed, index])
    n = int(rng.integers(1, SMALL_N_MAX + 1))
    rank_d = int(rng.integers(0, n + 1))
    mean, cov, factor = _prior(rng, n, rank_d)
    m = int(rng.integers(0, n + 1))
    rank_t = int(rng.integers(0, min(m, n) + 1)) if m else 0
    return _finish(rng, mean, cov, factor, _conditioned_map(rng, m, n, rank_t, factor))


def large_instance(seed: int, index: int) -> Instance:
    """n = 64, rank(D) = 48, m = 32, rank(T) = 28, T F within KAPPA_MAX; fresh for every index."""
    rng = np.random.default_rng([seed, index, LARGE_N])
    mean, cov, factor = _prior(rng, LARGE_N, LARGE_RANK_D)
    t = _conditioned_map(rng, LARGE_M, LARGE_N, LARGE_RANK_T, factor)
    return _finish(rng, mean, cov, factor, t)
