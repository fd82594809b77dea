"""Independent reference for every operation the benchmark times.

For a prior N(mu, D) with known factor D = F F^T and a map T, the
conditional law of Y given T Y = obs is the generalized Schur complement

    cov  = D - D T^T (T D T^T)^+ T D = F (I - A^+ A) F^T,   A = T F,
    mean = mu + D T^T (T D T^T)^+ (obs - T mu) = mu + F A^+ (obs - T mu).

It is computed here from the instance's factors with one LAPACK SVD of
A = T F, so it never forms T D T^T (which squares the condition number)
and shares no code with the library under test, whose primary route and
generalized-inverse oracle both go through its own eigensolver.

Rank is decided by the rule the library documents, applied to singular
values: sigma counts when sigma^2 > RANK_TOL_SCALE * n * sigma_max^2 * eps.
Instances bound the condition number of T F over its kept singular values
(inputs.KAPPA_MAX), so that cut falls in a wide gap.
"""

from __future__ import annotations

import numpy as np

RANK_TOL_SCALE = 100.0
EPS = float(np.finfo(float).eps)
# Relative tolerance of every comparison, scaled by the instance's size
# (1 + ||D||_F, times the state or gain scale where those enter). It is the
# tolerance the library's own property suites use for the same identities.
REL_TOL = 1e-8


def rank_cut(sig_max: float, n: int) -> float:
    """Singular values of T F at or below this count as zero, for a prior of dimension n."""
    return float(np.sqrt(RANK_TOL_SCALE * n * EPS) * sig_max)


def _maxabs(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


class Reference:
    """Reference conditional law of one (prior, map) pair, ready for many observations."""

    def __init__(self, mean: np.ndarray, factor: np.ndarray, t: np.ndarray):
        self.mean = mean
        self.factor = factor
        self.t = t
        self.cov = factor @ factor.T
        n, r = factor.shape
        a = t @ factor
        self.scale = 1.0 + float(np.linalg.norm(self.cov))
        if a.size == 0:
            v = np.eye(r)
            self.rank = 0
            self.pinv_a = np.zeros((r, t.shape[0]))
        else:
            u, sig, vt = np.linalg.svd(a)
            self.rank = int(np.count_nonzero(sig > rank_cut(sig[0], n)))
            k = self.rank
            v = vt.T
            self.pinv_a = (v[:, :k] / sig[:k]) @ u[:, :k].T
        kept = factor @ v[:, self.rank:]
        self.cond_cov = kept @ kept.T
        # Orthonormal basis of range(D), for the support test of lifted states.
        self.support = np.linalg.qr(factor)[0] if r else np.zeros((n, 0))

    def cond_mean(self, obs: np.ndarray) -> np.ndarray:
        return self.mean + self.factor @ (self.pinv_a @ (obs - self.t @ self.mean))

    def _off_support(self, x: np.ndarray) -> float:
        shift = x - self.mean
        return _maxabs(shift - self.support @ (self.support.T @ shift))

    def law_errors(self, obs, state, mean, cov) -> list[str]:
        """Mismatches of a lifted state and the law evaluated there; empty when all agree."""
        errors = []
        miss = _maxabs(self.t @ state - obs)
        if miss > REL_TOL * (1.0 + _maxabs(obs)) * self.scale:
            errors.append(f"lifted state misses the observation by {miss:.3e}")
        if self._off_support(state) > REL_TOL * (1.0 + _maxabs(state)) * self.scale:
            errors.append(f"lifted state leaves the prior support by {self._off_support(state):.3e}")
        return errors + self.moment_errors(obs, mean, cov)

    def moment_errors(self, obs, mean, cov) -> list[str]:
        """Mismatches of conditional moments reported for the observation obs."""
        errors = []
        ref_mean = self.cond_mean(obs)
        if _maxabs(mean - ref_mean) > REL_TOL * (1.0 + _maxabs(ref_mean)) * self.scale:
            errors.append(f"conditional mean off by {_maxabs(mean - ref_mean):.3e}")
        if _maxabs(cov - self.cond_cov) > REL_TOL * self.scale:
            errors.append(f"conditional covariance off by {_maxabs(cov - self.cond_cov):.3e}")
        return errors

    def decomposition_errors(self, independent_map, affine_gain, affine_offset, states) -> list[str]:
        """Checks of Y = M Y + A (T Y) + b with M Y independent of T Y.

        Independence of jointly normal vectors is T D M^T = 0; the split
        must rebuild each prior state exactly; and Cov(M Y) = M D M^T must
        equal the conditional covariance, which rules out a trivial M.
        """
        errors = []
        m_map = independent_map
        gain_scale = 1.0 + float(np.linalg.norm(affine_gain))
        indep = _maxabs(self.t @ self.cov @ m_map.T)
        if indep > REL_TOL * self.scale * (1.0 + float(np.linalg.norm(self.t))) * (
            1.0 + float(np.linalg.norm(m_map))
        ):
            errors.append(f"independence residual T D M^T is {indep:.3e}")
        rebuilt = states @ m_map.T + (states @ self.t.T) @ affine_gain.T + affine_offset
        recon = _maxabs(states - rebuilt)
        if recon > REL_TOL * (1.0 + _maxabs(states)) * gain_scale * self.scale:
            errors.append(f"reconstruction of prior states off by {recon:.3e}")
        split_cov = m_map @ self.cov @ m_map.T
        if _maxabs(split_cov - self.cond_cov) > REL_TOL * self.scale:
            errors.append(
                f"covariance of the independent part off by {_maxabs(split_cov - self.cond_cov):.3e}"
            )
        return errors
