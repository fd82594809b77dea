import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscond.checks import (
    random_conditioning_instance,
    random_gaussian,
    random_graded_instance,
    random_map,
    random_psd,
)
from gausscond.conditioning import (
    _whiten,
    anova_check,
    condition,
    decompose,
    endomorphism_reduction,
    evaluate,
    lift_observation,
)
from gausscond.errors import DimError, InconsistentObservation
from gausscond.gaussian import Gaussian, sample
from gausscond.spectral import SymOperator, frob, maxabs


def _law(mean, cov):
    return Gaussian(np.asarray(mean, dtype=float), SymOperator(np.asarray(cov, dtype=float)))


def _bivariate(rho, s1=1.0, s2=1.0, mean=(0.0, 0.0)):
    cov = [[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]]
    return _law(mean, cov)


class TestCondition:
    def test_bivariate_closed_form(self):
        g = _bivariate(0.5)
        law = condition(g, np.array([[1.0, 0.0]]))
        out = evaluate(law, [2.0, 0.0])
        assert np.allclose(out.mean, [2.0, 1.0], atol=1e-13)
        assert np.allclose(out.cov.entries, [[0.0, 0.0], [0.0, 0.75]], atol=1e-13)

    def test_second_coordinate_of_state_is_ignored(self):
        # The gain reads only what the transform determines, so two states
        # with the same image give the same conditional law.
        g = _bivariate(-0.3, 2.0, 0.5, mean=(1.0, -1.0))
        law = condition(g, np.array([[1.0, 0.0]]))
        a = evaluate(law, [2.5, 0.0])
        b = evaluate(law, [2.5, 1e6])
        # The unread column of the gain is zero only up to roundoff, which
        # the large coordinate amplifies; equality holds at that scale.
        assert maxabs(a.mean - b.mean) <= 1e-15 * 1e6

    def test_zero_transform_returns_prior(self):
        g = _bivariate(0.4, 1.5, 0.7, mean=(0.2, -0.8))
        law = condition(g, np.zeros((1, 2)))
        assert maxabs(law.gain) <= 1e-14
        assert maxabs(law.cov.entries - g.cov.entries) <= 1e-14
        out = evaluate(law, [100.0, -50.0])
        assert np.array_equal(out.mean, g.mean)

    def test_full_rank_square_transform_collapses(self):
        g = _bivariate(0.2, 1.0, 2.0)
        law = condition(g, np.array([[2.0, 1.0], [0.0, 3.0]]))
        assert maxabs(law.gain - np.eye(2)) <= 1e-12
        assert maxabs(law.cov.entries) <= 1e-12

    def test_empty_transform_is_zero_information(self):
        g = _bivariate(0.6)
        law = condition(g, np.zeros((0, 2)))
        assert maxabs(law.gain) <= 1e-14
        assert maxabs(law.cov.entries - g.cov.entries) <= 1e-14

    def test_dim_mismatch(self):
        with pytest.raises(DimError):
            condition(_bivariate(0.0), np.zeros((1, 3)))

    def test_rank_tol_scale_recorded(self):
        law = condition(_bivariate(0.0), np.eye(2), rank_tol_scale=7.5)
        assert law.rank_tol_scale == 7.5


class TestEvaluate:
    def test_wrong_state_dim(self):
        law = condition(_bivariate(0.0), np.eye(2))
        with pytest.raises(DimError):
            evaluate(law, [1.0, 2.0, 3.0])

    def test_support_check_rejects_off_support_state(self):
        d = np.array([[1.0, -1.0], [-1.0, 1.0]])
        law = condition(_law([0.0, 0.0], d), np.array([[1.0, 0.0]]))
        ok = np.array([2.0, -2.0])
        bad = np.array([2.0, 2.0])
        evaluate(law, ok, check_support=True)
        with pytest.raises(InconsistentObservation):
            evaluate(law, bad, check_support=True)
        # The default is permissive so callers can probe the affine family.
        evaluate(law, bad)


    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_samples_of_an_evaluated_law_stay_in_its_support(self, seed):
        # sample reads the decomposition the law's covariance carries from the
        # PSD clamp; a fresh factorization of the same entries is the reference.
        rng = np.random.default_rng(seed)
        g, t = random_conditioning_instance(rng)
        law = evaluate(condition(g, t), sample(g, 1, seed)[0])
        rows = sample(law, 25, seed)
        null_proj = SymOperator(law.cov.entries).decomposition().null_projector_matrix()
        assert maxabs(null_proj @ (rows - law.mean).T) <= 1e-9 * (1.0 + frob(g.cov.entries))


class TestDecompose:
    def test_identity_cov_projection_transform(self):
        n = 3
        pi = np.ones((n, n)) / n
        dec = decompose(_law(np.zeros(n), np.eye(n)), pi)
        assert maxabs(dec.independent_map - (np.eye(n) - pi)) <= 1e-10

    def test_identity_transform_full_rank_cov(self):
        g = _bivariate(0.3, 1.2, 0.9)
        dec = decompose(g, np.eye(2))
        assert maxabs(dec.independent_map) <= 1e-12

    def test_zero_transform_gives_range_projector(self):
        rng = np.random.default_rng(4)
        g = random_gaussian(rng, 4, 2)
        dec = decompose(g, np.zeros((2, 4)))
        expected = g.cov.decomposition().range_projector_matrix()
        assert maxabs(dec.independent_map - expected) <= 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_split_reconstruction_and_independence(self, seed):
        rng = np.random.default_rng(seed)
        g, t = random_conditioning_instance(rng)
        dec = decompose(g, t)
        d = g.cov.entries
        assert maxabs(t @ d @ dec.independent_map.T) <= 1e-9 * (
            1.0 + frob(t) * frob(d) * max(1.0, frob(dec.independent_map))
        )
        rows = sample(g, 30, seed)
        rebuilt = rows @ dec.independent_map.T + rows @ t.T @ dec.affine_gain.T + dec.affine_offset
        assert maxabs(rows - rebuilt) <= 1e-8 * (1.0 + maxabs(rows)) * (
            1.0 + frob(dec.affine_gain)
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_partition_of_identity_on_support(self, seed):
        rng = np.random.default_rng(seed)
        g, t = random_conditioning_instance(rng)
        law = condition(g, t)
        dec = decompose(g, t)
        total = dec.independent_map + law.gain + law.prior_null_projector.entries
        assert maxabs(total - np.eye(g.dim)) <= 1e-9 * (1.0 + frob(g.cov.entries))


class TestAnova:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_variance_decomposition(self, seed):
        rng = np.random.default_rng(seed)
        g, t = random_conditioning_instance(rng)
        rep = anova_check(g, t)
        assert rep.residual <= 1e-9 * (1.0 + frob(g.cov.entries))
        for half in (rep.e_cov_given, rep.cov_of_mean):
            low = float(np.min(np.linalg.eigvalsh(half)))
            assert low >= -1e-10 * (1.0 + frob(g.cov.entries))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_halves_are_read_off_the_conditional_law(self, seed):
        # The check verifies the law condition() returns, not a second formula.
        rng = np.random.default_rng(seed)
        g, t = random_conditioning_instance(rng)
        rep = anova_check(g, t)
        law = condition(g, t)
        assert np.array_equal(rep.e_cov_given, law.cov.entries)
        k = law.gain
        assert maxabs(rep.cov_of_mean - k @ g.cov.entries @ k.T) <= 1e-12 * (
            1.0 + frob(g.cov.entries)
        )

    def test_halves_for_coordinate_observation(self):
        g = _bivariate(0.5)
        rep = anova_check(g, np.array([[1.0, 0.0]]))
        assert np.allclose(rep.cov_of_mean, [[1.0, 0.5], [0.5, 0.25]], atol=1e-12)
        assert np.allclose(rep.e_cov_given, [[0.0, 0.0], [0.0, 0.75]], atol=1e-12)


class TestEndomorphismReduction:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_same_conditional_law(self, seed):
        rng = np.random.default_rng(seed)
        g, t = random_conditioning_instance(rng)
        law = condition(g, t)
        law_hat = condition(g, endomorphism_reduction(t))
        assert maxabs(law.gain - law_hat.gain) <= 1e-9 * (1.0 + frob(law.gain))
        assert maxabs(law.cov.entries - law_hat.cov.entries) <= 1e-9 * (
            1.0 + frob(g.cov.entries)
        )

    def test_result_is_square(self):
        red = endomorphism_reduction(np.ones((2, 5)))
        assert red.rows == red.cols == 5


class TestLiftObservation:
    def test_recovers_observed_image(self):
        rng = np.random.default_rng(9)
        g, t = random_conditioning_instance(rng, n_min=2)
        state = sample(g, 1, 3)[0]
        obs = t @ state
        lifted = lift_observation(g, t, obs, strict=True)
        assert maxabs(t @ lifted - obs) <= 1e-8 * (1.0 + maxabs(obs))
        null_d = g.cov.decomposition().null_projector_matrix()
        assert maxabs(null_d @ (lifted - g.mean)) <= 1e-10

    def test_same_law_as_direct_state(self):
        g = _bivariate(0.5)
        t = np.array([[1.0, 0.0]])
        law = condition(g, t)
        direct = evaluate(law, [2.0, -7.0])
        via_lift = evaluate(law, lift_observation(g, t, [2.0]))
        assert maxabs(direct.mean - via_lift.mean) <= 1e-12

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_lift_is_the_conditional_mean(self, seed, graded):
        # y* = mu + D^(1/2) S^+ (obs - T mu) is E[Y | T Y = obs], so the law
        # given T Y, evaluated at y*, has mean y*.
        rng = np.random.default_rng(seed)
        g, t = (random_graded_instance if graded else random_conditioning_instance)(rng)
        state = lift_observation(g, t, t @ sample(g, 1, seed)[0])
        mean = evaluate(condition(g, t), state).mean
        assert maxabs(mean - state) <= 1e-9 * (1.0 + maxabs(state))

    def test_unattainable_observation_strict(self):
        # T kills the only direction the covariance spans, so any nonzero
        # observed value is impossible.
        g = _law([0.0, 0.0], np.diag([0.0, 1.0]))
        t = np.array([[1.0, 0.0]])
        with pytest.raises(InconsistentObservation):
            lift_observation(g, t, [2.0], strict=True)
        lenient = lift_observation(g, t, [2.0])
        assert maxabs(lenient - g.mean) <= 1e-12

    def test_empty_observation(self):
        g = _bivariate(0.1)
        assert np.array_equal(lift_observation(g, np.zeros((0, 2)), []), g.mean)

    def test_wrong_obs_dim(self):
        with pytest.raises(DimError):
            lift_observation(_bivariate(0.0), np.eye(2), [1.0])


class TestSingularCases:
    def test_rank_deficient_cov_conditioning(self):
        # Perfectly correlated pair: observing one coordinate pins the other.
        d = np.array([[1.0, 1.0], [1.0, 1.0]])
        law = condition(_law([0.0, 0.0], d), np.array([[1.0, 0.0]]))
        out = evaluate(law, [1.5, 1.5])
        assert np.allclose(out.mean, [1.5, 1.5], atol=1e-12)
        assert maxabs(out.cov.entries) <= 1e-12

    def test_transform_seeing_only_null_directions(self):
        # T reads a direction the prior never leaves; conditioning on it
        # teaches nothing.
        g = _law([1.0, 2.0], np.diag([0.0, 3.0]))
        law = condition(g, np.array([[1.0, 0.0]]))
        assert maxabs(law.gain) <= 1e-14
        assert maxabs(law.cov.entries - g.cov.entries) <= 1e-14

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_conditional_cov_psd_and_dominated(self, seed):
        rng = np.random.default_rng(seed)
        g, t = random_conditioning_instance(rng)
        law = condition(g, t)
        vals = np.linalg.eigvalsh(law.cov.entries)
        assert float(vals.min()) >= -1e-12 * (1.0 + frob(g.cov.entries))
        # Conditioning never adds variance: D - G is PSD too.
        gap = np.linalg.eigvalsh(g.cov.entries - law.cov.entries)
        assert float(gap.min()) >= -1e-9 * (1.0 + frob(g.cov.entries))


def _fresh(g):
    # The same law without its whitening slot.
    return Gaussian(g.mean, g.cov)


def _same_results(g, t, ref_g, ref_t, rank_tol_scale=None):
    law, ref = condition(g, t, rank_tol_scale), condition(ref_g, ref_t, rank_tol_scale)
    assert np.array_equal(law.gain, ref.gain)
    assert np.array_equal(law.cov.entries, ref.cov.entries)
    obs = ref_t @ sample(ref_g, 1, 0)[0]
    assert np.array_equal(lift_observation(g, t, obs, rank_tol_scale),
                          lift_observation(ref_g, ref_t, obs, rank_tol_scale))
    dec = decompose(g, t, rank_tol_scale)
    ref_dec = decompose(ref_g, ref_t, rank_tol_scale)
    assert np.array_equal(dec.independent_map, ref_dec.independent_map)
    assert np.array_equal(dec.affine_gain, ref_dec.affine_gain)
    return law


class TestWhitening:
    """One whitening and one SVD of S serve condition, lift_observation and decompose."""

    @pytest.mark.parametrize("rank_tol_scale", (None, 1e3), ids=("default", "scaled"))
    def test_fresh_chain_factors_once(self, factorizations, rank_tol_scale):
        rng = np.random.default_rng(64)
        mean, cov = rng.uniform(-2.0, 2.0, 64), random_psd(rng, 64, 48)
        t = random_map(rng, 32, 64, 32)
        g = Gaussian(mean, SymOperator(cov))
        law = condition(g, t, rank_tol_scale)
        state = lift_observation(g, t, t @ sample(g, 1, 0, rank_tol_scale)[0], rank_tol_scale)
        sample(evaluate(law, state), 1, 0, rank_tol_scale)
        decompose(g, t, rank_tol_scale)
        # eigh: the law's PSD gate and the conditional covariance's clamp; the
        # gate of evaluate's result and the sample read the eigensolve the clamp
        # carries, and any other scale re-cuts the eigenpairs it already holds.
        # svd: S at its own shape, which is also the padded S's SVD.
        assert factorizations == {"svd": 1, "eigh": 2}

    def test_repeat_calls_factor_nothing(self, factorizations):
        rng = np.random.default_rng(65)
        g = random_gaussian(rng, 8, 6)
        t = random_map(rng, 4, 8, 3)
        law, dec = condition(g, t), decompose(g, t)
        before = dict(factorizations)
        assert condition(g, t) is law
        anova_check(g, t)
        assert decompose(g, t) is dec
        assert factorizations == before

    def test_decompose_alone_never_builds_the_law(self, factorizations):
        # eigh: the law's PSD gate only, no clamp of a conditional covariance.
        rng = np.random.default_rng(64)
        mean, cov = rng.uniform(-2.0, 2.0, 64), random_psd(rng, 64, 48)
        decompose(Gaussian(mean, SymOperator(cov)), random_map(rng, 32, 64, 28))
        assert factorizations == {"svd": 1, "eigh": 1}

    def test_shared_split_is_read_only(self):
        rng = np.random.default_rng(66)
        dec = decompose(random_gaussian(rng, 5, 4), random_map(rng, 2, 5, 2))
        for arr in (dec.independent_map, dec.affine_gain, dec.affine_offset):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_one_prior_null_projector_per_decomposition(self):
        rng = np.random.default_rng(7)
        g = random_gaussian(rng, 6, 4)
        t1, t2 = random_map(rng, 2, 6, 2), random_map(rng, 3, 6, 3)
        null_d = g.cov.decomposition().null_projector
        assert condition(g, t1).prior_null_projector is null_d
        assert condition(g, t2).prior_null_projector is null_d
        assert maxabs(null_d.entries - g.cov.decomposition().null_projector_matrix()) == 0.0
        assert null_d.subspace_rank == 2

    def test_in_place_edit_of_the_map_gives_the_new_law(self):
        rng = np.random.default_rng(5)
        g = random_gaussian(rng, 6, 5)
        t = random_map(rng, 3, 6, 3)
        before = condition(g, t)
        t[1] = 2.0 * t[0] - t[2]
        law = _same_results(g, t, _fresh(g), t.copy())
        assert not np.array_equal(law.gain, before.gain)

    def test_another_rank_tol_scale_misses_the_slot(self, factorizations):
        # sigma = 1e-12 clears the cut 100 * 2 * eps but not 1e4 * 2 * eps.
        g = _law([0.0, 0.0], np.eye(2))
        t = np.diag([1.0, 1e-12])
        assert maxabs(condition(g, t).cov.entries) == 0.0
        assert np.array_equal(condition(g, t, 1e4).cov.entries, np.diag([0.0, 1.0]))
        assert maxabs(condition(g, t).cov.entries) == 0.0
        assert factorizations["svd"] == 3
        _same_results(g, t, _fresh(g), t, 1e4)

    def test_slot_holds_one_map(self, factorizations):
        rng = np.random.default_rng(6)
        g = random_gaussian(rng, 5, 4)
        t1, t2 = random_map(rng, 2, 5, 2), random_map(rng, 3, 5, 2)
        for t in (t1, t2, t1, t1):
            condition(g, t)
        assert factorizations["svd"] == 3
        _same_results(g, t1, _fresh(g), t1)
        _same_results(g, t2, _fresh(g), t2)


# D and a full-rank square T whose conditional covariance is zero, formed
# from products that leave rounding of order eps * tr D.
FULL_OBS_D = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 1.5]])
FULL_OBS_T = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])


def _full_observations(s):
    # The fixed case, then random laws of every rank with a full-rank square T.
    yield _law(np.ones(3), s * FULL_OBS_D), FULL_OBS_T
    for seed in range(100):
        rng = np.random.default_rng(seed)
        g, _ = random_conditioning_instance(rng)
        yield _law(g.mean, s * g.cov.entries), random_map(rng, g.dim, g.dim, g.dim)


def _graded(kappa):
    return lambda rng: random_graded_instance(rng, kappa=kappa)


class TestConditionalRank:
    """A conditional covariance has rank rank D - rank S, and its other eigenvalues are exact zeros."""

    @pytest.mark.parametrize("s", (1e-12, 1.0, 1e12))
    def test_full_observation_is_an_exact_point_mass(self, s):
        for g, t in _full_observations(s):
            law = condition(g, t)
            assert np.all(law.cov.entries == 0.0)
            assert law.cov.decomposition().rank == 0
            point = evaluate(law, sample(g, 1, 0)[0])
            assert np.array_equal(sample(point, 20, 1), np.tile(point.mean, (20, 1)))

    @pytest.mark.parametrize("s", (1e-12, 1.0, 1e12))
    def test_conditioned_point_mass_rejects_every_other_state(self, s):
        # The direction in which the rounded covariance was largest is the
        # one a rank read off rounding would let through.
        for g, t in _full_observations(s):
            point = evaluate(condition(g, t), sample(g, 1, 0)[0])
            law = condition(point, np.zeros((0, g.dim)))
            away = np.linalg.eigh(point.cov.entries)[1][:, -1]
            bad = point.mean + away * (1.0 + maxabs(point.mean))
            with pytest.raises(InconsistentObservation):
                evaluate(law, bad, check_support=True)

    @pytest.mark.parametrize(
        "generator",
        (random_conditioning_instance, _graded(1e4), _graded(1e8)),
        ids=("plain", "graded-1e4", "graded-1e8"),
    )
    def test_conditional_rank_is_rank_d_minus_rank_s(self, generator):
        # The ranks come from the whitening record; decompose is not called,
        # since its left factor may raise at kappa = 1e8.
        for seed in range(300):
            g, t = generator(np.random.default_rng(seed))
            wh = _whiten(g, t, None)
            assert condition(g, t).cov.decomposition().rank == wh.d_dec.rank - wh.rank

    @pytest.mark.parametrize("s", (1e-12, 1.0, 1e12))
    def test_small_exact_conditional_variance_is_kept(self, s):
        # Observing the first nine coordinates leaves the tenth, whose exact
        # variance clears D's rank cut but not a roundoff bound of order eps * tr D.
        g = _law(np.zeros(10), np.diag([1.0] * 9 + [1e-12]) * s)
        law = condition(g, np.eye(10)[:9])
        assert law.cov.decomposition().rank == 1
        assert abs(law.cov.entries[9, 9] - 1e-12 * s) <= 1e-9 * 1e-12 * s


class TestChainRule:
    """Conditioning on T1 then on T2 gives the law conditioned on [T1; T2] once."""

    @pytest.mark.parametrize(
        "generator", (random_conditioning_instance, _graded(1e4)), ids=("plain", "graded-1e4")
    )
    def test_sequential_conditioning_matches_the_joint_law(self, generator):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            g, t = generator(rng)
            k = int(rng.integers(0, t.shape[0] + 1))
            y = sample(g, 1, seed)[0]
            joint = evaluate(condition(g, t), y)
            rank = joint.cov.decomposition().rank
            mean_size = maxabs(y) + maxabs(g.mean)
            for first, second in ((t[:k], t[k:]), (t[k:], t[:k])):
                chained = evaluate(condition(evaluate(condition(g, first), y), second), y)
                assert maxabs(chained.mean - joint.mean) <= 1e-9 * mean_size
                assert maxabs(chained.cov.entries - joint.cov.entries) <= 1e-9 * maxabs(g.cov.entries)
                assert chained.cov.decomposition().rank == rank
