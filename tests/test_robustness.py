"""Ill-conditioned, rescaled and extreme-magnitude maps.

A singular value of S = T D^(1/2) counts as nonzero when it exceeds
rank_tol_scale * max(m, n) * max(sigma_max, ||T|| ||D^(1/2)||) * eps,
however small it is in absolute terms. So the law must be exact for every
map whose singular values clear that cut: small ones, rescaled rows, and
entries near the ends of the floating-point range; and a row of T that
leaves only rounding noise in S must count as no observation. Each test
here checks a closed form or an invariance of the law, not a second
formula.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscond.checks import random_gaussian, random_graded_instance, random_map
from gausscond.conditioning import (
    anova_check,
    condition,
    decompose,
    evaluate,
    lift_observation,
)
from gausscond.gaussian import Gaussian, sample
from gausscond.spectral import SymOperator, frob, maxabs


def _law(mean, cov):
    return Gaussian(np.asarray(mean, dtype=float), SymOperator(np.asarray(cov, dtype=float)))


def _same_law(law, ref, d, where):
    assert maxabs(law.gain - ref.gain) <= 1e-9 * (1.0 + frob(ref.gain)), where
    assert maxabs(law.cov.entries - ref.cov.entries) <= 1e-9 * (1.0 + frob(d)), where


def _rebuild_error(dec, t, rows):
    rebuilt = rows @ dec.independent_map.T + rows @ t.T @ dec.affine_gain.T + dec.affine_offset
    bound = 1e-8 * (1.0 + maxabs(rows)) * (1.0 + frob(dec.affine_gain))
    return maxabs(rows - rebuilt), bound


def test_small_singular_value_is_observed():
    # diag(1, 1e-7) is invertible: observing it pins both coordinates.
    law = condition(_law(np.zeros(2), np.eye(2)), np.diag([1.0, 1e-7]))
    assert maxabs(law.cov.entries) <= 1e-12
    assert maxabs(law.gain - np.eye(2)) <= 1e-12


def test_scaled_coordinate_map_matches_closed_form():
    # D diagonal, T reads coordinate 0 and coordinate 1 times 1/kappa:
    # T Y pins both for every kappa and leaves coordinate 2 at its prior.
    g = _law([0.5, -1.0, 2.0], np.diag([2.0, 0.5, 3.0]))
    y = np.array([1.5, 0.25, -4.0])
    for kappa in (1e2, 1e4, 1e6, 1e8, 1e10, 1e12):
        t = np.array([[1.0, 0.0, 0.0], [0.0, 1.0 / kappa, 0.0]])
        law = condition(g, t)
        assert maxabs(law.gain - np.diag([1.0, 1.0, 0.0])) <= 1e-12, kappa
        assert maxabs(law.cov.entries - np.diag([0.0, 0.0, 3.0])) <= 1e-12, kappa
        state = lift_observation(g, t, t @ y, strict=True)
        assert maxabs(evaluate(law, state).mean - [1.5, 0.25, 2.0]) <= 1e-12, kappa


def test_row_rescaling_leaves_the_law_unchanged():
    # L T has the null space of T for every invertible diagonal L.
    rng = np.random.default_rng(31)
    for m, n, rank_t, rank_d in ((3, 6, 3, 6), (3, 6, 3, 4), (5, 5, 5, 5), (4, 5, 2, 5)):
        g = random_gaussian(rng, n, rank_d)
        t = random_map(rng, m, n, rank_t)
        ref = condition(g, t)
        for kappa in (1e2, 1e4, 1e6, 1e8):
            rows = np.geomspace(1.0, 1.0 / kappa, m)
            _same_law(condition(g, rows[:, None] * t), ref, g.cov.entries, (m, n, kappa))


def test_rows_reading_null_of_a_rotated_covariance_are_unobserved():
    # D = Q diag(2, 1, 0) Q^T is synthesized, so a row c q0 (q0 spanning
    # null(D)) leaves roundoff of order eps * c in S = T D^(1/2). That row
    # observes nothing: the law, the split and the lift are those of q_r.
    q, _ = np.linalg.qr(np.random.default_rng(34).standard_normal((3, 3)))
    d = q @ np.diag([2.0, 1.0, 0.0]) @ q.T
    g = _law([1.0, -2.0, 0.5], d)
    y = sample(g, 1, 6)[0]
    rows = sample(g, 30, 8)
    q_r, q0 = q[:, :1].T, q[:, 2:].T
    _same_law(condition(g, q0), condition(g, np.zeros((1, 3))), d, "null row alone")
    ref, ref_dec = condition(g, q_r), decompose(g, q_r)
    ref_state = lift_observation(g, q_r, q_r @ y)
    for c in (1.0, 1e2, 1e3, 1e6, 1e9):
        t = np.vstack([q_r, c * q0])
        _same_law(condition(g, t), ref, d, c)
        dec = decompose(g, t)
        assert maxabs(dec.independent_map - ref_dec.independent_map) <= 1e-9, c
        err, bound = _rebuild_error(dec, t, rows)
        assert err <= bound, c
        assert maxabs(anova_check(g, t).e_cov_given - ref.cov.entries) <= 1e-9, c
        assert maxabs(lift_observation(g, t, t @ y) - ref_state) <= 1e-9, c


def test_extreme_magnitudes_leave_the_law_unchanged():
    rng = np.random.default_rng(32)
    for m, n, rank_t, rank_d in ((2, 4, 2, 4), (3, 5, 2, 4), (4, 4, 4, 3)):
        g = random_gaussian(rng, n, rank_d)
        t = random_map(rng, m, n, rank_t)
        y = sample(g, 1, 5)[0]
        ref = condition(g, t)
        ref_state = lift_observation(g, t, t @ y)
        for c in (1e-200, 1e200):
            _same_law(condition(g, c * t), ref, g.cov.entries, (m, n, c))
            state = lift_observation(g, c * t, (c * t) @ y)
            assert maxabs(state - ref_state) <= 1e-9 * (1.0 + maxabs(ref_state)), (m, n, c)


def test_decompose_rebuilds_states_of_scaled_maps():
    rng = np.random.default_rng(33)
    for m, rank_t in ((6, 6), (6, 4), (3, 3), (3, 1), (8, 6), (8, 5)):
        g = random_gaussian(rng, 6, 5)
        t = random_map(rng, m, 6, rank_t)
        rows = sample(g, 30, 7)
        for c in (1e-200, 1e-12, 1e-6, 1e6, 1e12, 1e200):
            err, bound = _rebuild_error(decompose(g, c * t), c * t, rows)
            assert err <= bound, (m, rank_t, c)


@given(st.integers(0, 10_000), st.sampled_from((1e-12, 1.0, 1e12)))
@settings(max_examples=60, deadline=None)
def test_decompose_rebuilds_states_of_graded_maps(seed, c):
    # S = T D^(1/2) has condition number up to 1e4, at any overall scale.
    rng = np.random.default_rng(seed)
    g, t = random_graded_instance(rng)
    err, bound = _rebuild_error(decompose(g, c * t), c * t, sample(g, 30, seed))
    assert err <= bound
