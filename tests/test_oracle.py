import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscond.checks import random_conditioning_instance, random_symmetric
from gausscond.conditioning import condition, evaluate, lift_observation
from gausscond.errors import TooFewAccepted
from gausscond.gaussian import Gaussian, sample
from gausscond.oracle import ginv_condition, mc_conditional_moments, mc_independence
from gausscond.spectral import SymOperator, frob, maxabs


def _law(mean, cov):
    return Gaussian(np.asarray(mean, dtype=float), SymOperator(np.asarray(cov, dtype=float)))


class TestGinvCondition:
    def test_bivariate_closed_form(self):
        g = _law([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
        res = ginv_condition(g, np.array([[1.0, 0.0]]), [2.0])
        assert np.allclose(res.mean, [2.0, 1.0], atol=1e-13)
        assert np.allclose(res.cov.entries, [[0.0, 0.0], [0.0, 0.75]], atol=1e-13)
        assert res.method == "ginv"

    def test_empty_transform_returns_prior(self):
        g = _law([1.0, -1.0], np.eye(2))
        res = ginv_condition(g, np.zeros((0, 2)), [])
        assert np.array_equal(res.mean, g.mean)
        assert np.array_equal(res.cov.entries, g.cov.entries)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_spectral_route(self, seed):
        rng = np.random.default_rng(seed)
        g, t = random_conditioning_instance(rng)
        state = sample(g, 1, seed)[0]
        via_spectral = evaluate(condition(g, t), state)
        ginv = ginv_condition(g, t, t @ state)
        tol = 1e-8 * (1.0 + frob(g.cov.entries))
        assert maxabs(via_spectral.mean - ginv.mean) <= tol
        assert maxabs(via_spectral.cov.entries - ginv.cov.entries) <= tol

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_choice_of_generalized_inverse(self, seed):
        # The classical formulas use a pseudoinverse of W = T D T^*, but any
        # generalized inverse gives the same answer on attainable
        # observations: W^+ + (I - P) Z (I - P) with P the projector onto
        # range(W) is a different generalized inverse for every symmetric Z.
        rng = np.random.default_rng(seed)
        g, t = random_conditioning_instance(rng, n_min=2)
        if t.shape[0] == 0:
            return
        d = g.cov.entries
        state = sample(g, 1, seed)[0]
        y = t @ state

        mid = SymOperator(t @ d @ t.T)
        dec = mid.decomposition()
        pinv = dec.pinv_matrix()
        p = dec.range_projector_matrix()
        z = random_symmetric(rng, t.shape[0])
        other = pinv + (np.eye(t.shape[0]) - p) @ z @ (np.eye(t.shape[0]) - p)

        gain_a = d @ t.T @ pinv
        gain_b = d @ t.T @ other
        mean_a = g.mean + gain_a @ (y - t @ g.mean)
        mean_b = g.mean + gain_b @ (y - t @ g.mean)
        cov_a = d - gain_a @ t @ d
        cov_b = d - gain_b @ t @ d
        tol = 1e-8 * (1.0 + frob(d)) * (1.0 + maxabs(z)) * (1.0 + maxabs(y))
        assert maxabs(mean_a - mean_b) <= tol
        assert maxabs(cov_a - cov_b) <= tol

    def test_lifted_observation_matches_ginv(self):
        rng = np.random.default_rng(31)
        g, t = random_conditioning_instance(rng, n_min=2)
        state = sample(g, 1, 5)[0]
        obs = t @ state
        law = condition(g, t)
        via_lift = evaluate(law, lift_observation(g, t, obs))
        ginv = ginv_condition(g, t, obs)
        tol = 1e-8 * (1.0 + frob(g.cov.entries))
        assert maxabs(via_lift.mean - ginv.mean) <= tol


class TestMcConditionalMoments:
    def test_prior_recovered_with_zero_map(self):
        g = _law([0.5, -0.5], [[1.0, 0.3], [0.3, 0.8]])
        n = 20_000
        res = mc_conditional_moments(g, np.zeros((1, 2)), [0.0], n, float("inf"), 11)
        band = 5.0 / np.sqrt(n)
        assert maxabs(res.mean - g.mean) <= band
        assert maxabs(res.cov.entries - g.cov.entries) <= band * (1.0 + frob(g.cov.entries))
        assert res.n_kept == n
        assert res.method == "monte_carlo"

    def test_zero_row_map_keeps_every_row(self):
        # An (N, 0) image is at distance 0 from the empty observation, so the
        # estimate is the sample mean of every drawn row.
        g = _law([0.5, -0.5], [[1.0, 0.3], [0.3, 0.8]])
        res = mc_conditional_moments(g, np.zeros((0, 2)), [], 500, 0.0, 11)
        assert res.n_kept == 500
        assert np.array_equal(res.mean, sample(g, 500, 11).mean(axis=0))

    def test_bivariate_conditioning(self):
        g = _law([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
        res = mc_conditional_moments(g, np.array([[1.0, 0.0]]), [2.0], 400_000, 0.1, 3)
        assert abs(res.mean[1] - 1.0) <= 0.08
        assert abs(res.cov.entries[1, 1] - 0.75) <= 0.08

    def test_too_few_accepted(self):
        g = _law([0.0], [[1.0]])
        with pytest.raises(TooFewAccepted):
            mc_conditional_moments(g, np.eye(1), [100.0], 1_000, 0.01, 0)


class TestMcIndependence:
    def test_independent_pair_small_correlation(self):
        n = 3
        pi = np.ones((n, n)) / n
        g = _law(np.zeros(n), 1.3 * np.eye(n))
        samples = 50_000
        r = mc_independence(g, pi, np.eye(n) - pi, samples, 17)
        assert r <= 4.0 / np.sqrt(samples)

    def test_dependent_pair_large_correlation(self):
        g = _law([0.0, 0.0], [[1.0, 0.9], [0.9, 1.0]])
        r = mc_independence(g, np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 20_000, 2)
        assert r > 0.5

    def test_constant_coordinate_contributes_zero(self):
        # The first map reads a null direction of the covariance, so its
        # samples are constant; the convention is zero correlation.
        g = _law([0.0, 0.0], np.diag([0.0, 1.0]))
        r = mc_independence(g, np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 5_000, 1)
        assert r == 0.0

    def test_empty_map_contributes_zero(self):
        g = _law([0.0, 0.0], np.eye(2))
        assert mc_independence(g, np.zeros((0, 2)), np.eye(2), 1_000, 0) == 0.0
