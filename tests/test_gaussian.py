import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscond.checks import random_gaussian, random_map, random_orthogonal
from gausscond.errors import DimError, InvalidInput, NotPositive
from gausscond.gaussian import (
    Gaussian,
    JointGaussian,
    _psd_clamped,
    char_fn,
    independence_test,
    joint,
    pushforward,
    sample,
    standard_normal_rows,
)
from gausscond.spectral import (
    EIG_RESIDUAL_TOL,
    ORTHONORMALITY_TOL,
    SymOperator,
    _from_eigenpairs,
    eig_sym,
    frob,
    maxabs,
)


def _law(mean, cov):
    return Gaussian(np.asarray(mean, dtype=float), SymOperator(np.asarray(cov, dtype=float)))


class TestGaussian:
    def test_scalar_law(self):
        g = _law([1.5], [[4.0]])
        assert g.dim == 1

    def test_non_psd_rejected(self):
        with pytest.raises(NotPositive):
            _law([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimError):
            _law([0.0, 0.0, 0.0], np.eye(2))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            _law([np.nan], [[1.0]])

    def test_empty_mean_rejected(self):
        with pytest.raises(InvalidInput, match="at least one coordinate"):
            Gaussian(np.zeros(0), SymOperator([[1.0]]))

    def test_mean_is_read_only(self):
        g = _law([1.0, 2.0], np.eye(2))
        with pytest.raises(ValueError):
            g.mean[0] = 5.0


class TestCharFn:
    def test_scalar_closed_form(self):
        g = _law([0.7], [[2.25]])
        for t in (-1.3, 0.0, 0.4, 2.0):
            expected = cmath.exp(complex(-0.5 * 2.25 * t * t, 0.7 * t))
            assert abs(char_fn(g, [t]) - expected) <= 1e-15

    def test_at_zero_is_one(self):
        g = _law([3.0, -1.0], np.eye(2))
        assert char_fn(g, [0.0, 0.0]) == 1.0 + 0.0j

    def test_argument_is_checked(self):
        g = _law([3.0, -1.0], np.eye(2))
        with pytest.raises(DimError):
            char_fn(g, [0.0, 0.0, 0.0])
        with pytest.raises(InvalidInput, match="non-finite"):
            char_fn(g, [np.inf, 0.0])

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_pushforward_adjoint_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        g = random_gaussian(rng, n, int(rng.integers(0, n + 1)))
        m = int(rng.integers(1, n + 1))
        s = random_map(rng, m, n, int(rng.integers(0, min(m, n) + 1)))
        u = rng.uniform(-1.0, 1.0, m)
        assert abs(char_fn(pushforward(g, s), u) - char_fn(g, s.T @ u)) <= 1e-12


class TestPushforwardAndJoint:
    def test_pushforward_known(self):
        g = _law([1.0, -1.0], [[2.0, 0.5], [0.5, 1.0]])
        s = np.array([[1.0, 1.0]])
        out = pushforward(g, s)
        assert np.allclose(out.mean, [0.0])
        assert np.allclose(out.cov.entries, [[4.0]])

    def test_pushforward_into_null_of_cov(self):
        # S maps onto the null direction: the image law is a point mass and
        # must construct cleanly despite the covariance being pure roundoff.
        d = np.array([[1.0, -1.0], [-1.0, 1.0]])
        g = _law([0.0, 0.0], d)
        out = pushforward(g, np.array([[1.0, 1.0]]))
        assert abs(out.cov.entries[0, 0]) <= 1e-12

    def test_empty_output_rejected(self):
        with pytest.raises(DimError):
            pushforward(_law([0.0], [[1.0]]), np.zeros((0, 1)))
        with pytest.raises(DimError, match="both maps"):
            joint(_law([0.0], [[1.0]]), np.zeros((0, 1)), np.zeros((0, 1)))

    @pytest.mark.parametrize("s", (1e-12, 1.0, 1e12))
    def test_identity_pushforward_keeps_the_rank(self, s):
        # The smallest eigenvalue is exact and above D's rank cut, though it
        # lies below a roundoff bound that scales with ||S||^2 ||D||.
        d = np.diag([1.0] * 9 + [1e-12]) * s
        out = pushforward(_law(np.zeros(10), d), np.eye(10))
        assert np.array_equal(out.cov.entries, d)
        assert out.cov.decomposition().rank == 10

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_joint_marginals_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        g = random_gaussian(rng, n, int(rng.integers(0, n + 1)))
        s = random_map(rng, int(rng.integers(1, n + 1)), n, int(rng.integers(1, n + 1)))
        t = random_map(rng, int(rng.integers(1, n + 1)), n, int(rng.integers(0, n + 1)))
        jg = joint(g, s, t)
        first = pushforward(g, s)
        second = pushforward(g, t)
        assert np.array_equal(jg.marginal_first().mean, first.mean)
        assert np.array_equal(jg.marginal_first().cov.entries, first.cov.entries)
        assert np.array_equal(jg.marginal_second().mean, second.mean)
        assert np.array_equal(jg.marginal_second().cov.entries, second.cov.entries)

    def test_joint_block_split_edges(self):
        g = _law([0.0, 1.0], np.eye(2))
        jg = joint(g, np.zeros((0, 2)), np.eye(2))
        assert jg.block_split == 0
        with pytest.raises(DimError):
            jg.marginal_first()
        jg = joint(g, np.eye(2), np.zeros((0, 2)))
        assert jg.block_split == 2
        with pytest.raises(DimError, match="second block is empty"):
            jg.marginal_second()
        # Built directly, the type checks its own shapes.
        for mean, split in (([0.0, 1.0, 2.0], 1), ([0.0, 1.0], -1), ([0.0, 1.0], 3)):
            with pytest.raises(DimError):
                JointGaussian(np.array(mean), SymOperator(np.eye(2)), split)


class TestPsdClamp:
    def test_clamped_operator_carries_a_certified_decomposition(self, monkeypatch):
        q = random_orthogonal(np.random.default_rng(8), 5)
        entries = (q * [3.0, 1.0, 0.5, 0.0, -1e-15]) @ q.T
        assert np.linalg.eigvalsh(entries)[0] < 0.0
        op = _psd_clamped(entries, None)
        eigh = np.linalg.eigh
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: calls.append(1) or eigh(a, *args))
        dec = op.decomposition()
        assert calls == []
        vals, vecs = dec.eigenvalues, dec.eigenvectors
        assert vals[-1] == 0.0 and np.all(vals >= 0.0)
        resid = np.linalg.norm(op.entries @ vecs - vecs * vals, axis=0)
        assert float(np.max(resid)) <= EIG_RESIDUAL_TOL * (1.0 + maxabs(vals))
        assert maxabs(vecs.T @ vecs - np.eye(5)) <= ORTHONORMALITY_TOL * 5
        # Another scale re-cuts the certified eigenpairs: same pairs, no solve.
        scaled = op.decomposition(1e3)
        assert calls == []
        assert scaled.eigenvalues is vals and scaled.eigenvectors is vecs
        assert scaled.rank == 3 and scaled.rank_tolerance == pytest.approx(10.0 * dec.rank_tolerance)
        fresh = eig_sym(op.entries)
        assert calls == [1]
        assert fresh.rank == dec.rank == 3
        assert maxabs(fresh.eigenvalues - vals) <= 1e-12 * 3.0

    @staticmethod
    def _eigh_calls(monkeypatch):
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: calls.append(1) or eigh(a, *args))
        return calls

    def test_operator_with_nothing_past_rank_is_returned_unsolved(self, monkeypatch):
        # The gate reads the seeded spectrum at any scale, and nothing needs a clamp.
        q = random_orthogonal(np.random.default_rng(10), 5)
        op = _from_eigenpairs(np.array([3.0, 1.0, 0.5, 0.0, 0.0]), q)
        calls = self._eigh_calls(monkeypatch)
        for scale in (None, 1e3):
            assert _psd_clamped(op, scale, 0.0) is op
        assert calls == []

    def test_seeded_spectrum_below_the_band_is_not_positive(self, monkeypatch):
        q = random_orthogonal(np.random.default_rng(11), 5)
        op = _from_eigenpairs(np.array([3.0, 1.0, 0.5, 0.0, -1e-3]), q)
        calls = self._eigh_calls(monkeypatch)
        with pytest.raises(NotPositive, match="eigenvalue -1.000e-03"):
            _psd_clamped(op, None, 0.0)
        assert calls == []

    def test_vectors_are_certified_when_an_operator_is_built(self):
        # Vectors 10% long would rebuild entries whose eigenvalues are not the given ones.
        q = random_orthogonal(np.random.default_rng(12), 4)
        with pytest.raises(InvalidInput, match="lost orthonormality"):
            _from_eigenpairs(np.array([2.0, 1.0, 0.0, 0.0]), q * 1.1)


class TestIndependence:
    def test_known_independent_pair(self):
        n = 3
        pi = np.ones((n, n)) / n
        g = _law(np.zeros(n), 2.0 * np.eye(n))
        res = independence_test(g, pi, np.eye(n) - pi)
        assert res.independent
        assert res.residual <= 1e-12

    def test_known_dependent_pair(self):
        g = _law([0.0, 0.0], [[1.0, 0.9], [0.9, 1.0]])
        res = independence_test(g, np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert not res.independent
        assert res.residual == pytest.approx(0.9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_in_the_two_maps(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        g = random_gaussian(rng, n, int(rng.integers(0, n + 1)))
        s = random_map(rng, int(rng.integers(1, n + 1)), n, int(rng.integers(0, n + 1)))
        t = random_map(rng, int(rng.integers(1, n + 1)), n, int(rng.integers(0, n + 1)))
        assert independence_test(g, s, t).independent == independence_test(g, t, s).independent


class TestSampling:
    def test_repeatable_for_seed(self):
        a = standard_normal_rows(17, 3, 42)
        b = standard_normal_rows(17, 3, 42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, standard_normal_rows(17, 3, 43))

    def test_rows_all_finite(self):
        z = standard_normal_rows(10_001, 7, 0)
        assert np.all(np.isfinite(z))

    def test_moments_within_clt_bands(self):
        n = 200_000
        z = standard_normal_rows(n, 2, 123)
        band = 5.0 / np.sqrt(n)
        assert maxabs(z.mean(axis=0)) <= band
        assert maxabs(z.std(axis=0, ddof=1) - 1.0) <= band
        corr = float(np.corrcoef(z[:, 0], z[:, 1])[0, 1])
        assert abs(corr) <= band

    def test_covariance_near_the_float_limit(self):
        rows = sample(_law([0.0, 0.0], np.diag([1.7e308, 1.7e308])), 4, 0)
        assert np.all(np.isfinite(rows))
        assert np.all(np.any(rows != 0.0, axis=1))

    def test_zero_covariance_returns_mean(self):
        g = _law([2.0, -3.0], np.zeros((2, 2)))
        rows = sample(g, 4, 0)
        assert np.array_equal(rows, np.tile(g.mean, (4, 1)))

    def test_count_must_be_positive(self):
        with pytest.raises(InvalidInput):
            sample(_law([0.0], [[1.0]]), 0, 0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_rows_stay_in_support(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        g = random_gaussian(rng, n, int(rng.integers(0, n)))
        null_proj = g.cov.decomposition().null_projector_matrix()
        rows = sample(g, 25, seed)
        assert maxabs(null_proj @ (rows - g.mean).T) <= 1e-10

    def test_sample_moments_match_law(self):
        g = _law([1.0, -2.0], [[2.0, 1.0], [1.0, 2.0]])
        n = 100_000
        rows = sample(g, n, 7)
        band = 5.0 / np.sqrt(n)
        assert maxabs(rows.mean(axis=0) - g.mean) <= band * np.sqrt(2.0)
        emp = np.cov(rows.T)
        assert maxabs(emp - g.cov.entries) <= band * (1.0 + frob(g.cov.entries))
