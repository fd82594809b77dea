import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscond.checks import random_gaussian
from gausscond.conditioning import condition
from gausscond.errors import DimError, XInSubspace
from gausscond.gaussian import Gaussian, sample
from gausscond.regression import (
    extended_projection_delta,
    partial_out,
    partial_out_identity_check,
)
from gausscond.spectral import SymOperator, frob, maxabs, orthonormal_columns


def _law(mean, cov):
    return Gaussian(np.asarray(mean, dtype=float), SymOperator(np.asarray(cov, dtype=float)))


def _schur_conditional_cov(d):
    """Covariance of the first two coordinates given the rest, full-rank case."""
    d = np.asarray(d, dtype=float)
    a = d[:2, :2]
    b = d[:2, 2:]
    c = d[2:, 2:]
    return a - b @ np.linalg.solve(c, b.T)


def _degenerate_cov():
    # D = F^2 with F e1 = F e3 + F e4: the first coordinate is a function of
    # the last two, so its conditional variance given the others vanishes.
    rng = np.random.default_rng(3)
    u = np.array([1.0, 0.0, -1.0, -1.0])
    u /= np.linalg.norm(u)
    comp = orthonormal_columns(np.eye(4) - np.outer(u, u))
    f = (comp * rng.uniform(0.5, 2.0, comp.shape[1])) @ comp.T
    d = f @ f
    return (d + d.T) / 2.0


class TestPartialOut:
    def test_matches_schur_complement(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_gaussian(rng, 4, 4)
            res = partial_out(g)
            cc = _schur_conditional_cov(g.cov.entries)
            coef = cc[0, 1] / cc[0, 0]
            assert res.cond_var_x == pytest.approx(cc[0, 0], abs=1e-9)
            assert res.cond_cov_xy == pytest.approx(cc[0, 1], abs=1e-9)
            assert res.coefficient == pytest.approx(coef, abs=1e-8)
            assert not res.degenerate

    def test_three_dim_hand_computed(self):
        # Cov [[2,1,1],[1,2,0],[1,0,1]]: given Y3, residual variance of Y1
        # is 2 - 1 = 1 and residual covariance with Y2 is 1 - 0 = 1.
        d = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 0.0], [1.0, 0.0, 1.0]])
        res = partial_out(_law([0.0, 0.0, 0.0], d))
        assert res.cond_var_x == pytest.approx(1.0, abs=1e-12)
        assert res.cond_cov_xy == pytest.approx(1.0, abs=1e-12)
        assert res.coefficient == pytest.approx(1.0, abs=1e-12)

    def test_requires_three_coordinates(self):
        with pytest.raises(DimError):
            partial_out(_law([0.0, 0.0], np.eye(2)))
        for n in (1, 2):
            with pytest.raises(DimError):
                partial_out_identity_check(_law(np.zeros(n), np.eye(n)), np.zeros(n))

    def test_identity_check_rejects_a_state_of_another_dim(self):
        with pytest.raises(DimError, match="state has dim 3 but the law lives on R"):
            partial_out_identity_check(_law(np.zeros(4), np.eye(4)), np.zeros(3))

    def test_identity_check_reads_the_law_partial_out_read(self, factorizations):
        # The law given Z is built once: after partial_out, the identity check
        # factors only the law given (X, Z), its S_r, and solves no eigenproblem:
        # (X, Z) observes all of range(D), so the covariance is exact zeros on
        # D's eigenvectors and no core is factored.
        g = random_gaussian(np.random.default_rng(9), 5, 4)
        partial_out(g)
        before = dict(factorizations)
        partial_out_identity_check(g, sample(g, 1, 0)[0])
        assert factorizations["svd"] - before["svd"] == 1
        assert factorizations["eigh"] - before["eigh"] == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_moments_are_read_off_the_conditional_law(self, seed):
        # Var(X | Z) and Cov(X, Y | Z) are entries of condition(g, P_z).cov.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        g = random_gaussian(rng, n, int(rng.integers(0, n + 1)))
        res = partial_out(g)
        cov = condition(g, np.diag([0.0, 0.0] + [1.0] * (n - 2))).cov.entries
        assert res.cond_var_x == cov[0, 0]
        assert res.cond_cov_xy == cov[1, 0]

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_identity_on_random_instances(self, seed, full_rank):
        rng = np.random.default_rng(seed)
        g = random_gaussian(rng, 4, 4 if full_rank else 3)
        y = sample(g, 1, seed)[0]
        res = partial_out(g)
        scale = 1.0 + abs(res.coefficient) * (1.0 + maxabs(y))
        assert partial_out_identity_check(g, y) <= 1e-8 * scale

    def test_degenerate_direction_in_conditioning_span(self):
        # The conditional variance of the first coordinate given the others
        # vanishes, the coefficient is a hard zero, and the identity still holds.
        d = _degenerate_cov()
        g = _law([0.5, -0.5, 1.0, 0.0], d)
        res = partial_out(g)
        assert res.degenerate
        assert res.coefficient == 0.0
        assert res.cond_var_x <= res.rank_tol_scale * 1e-12 * (1.0 + frob(d))
        y = sample(g, 1, 1)[0]
        assert partial_out_identity_check(g, y) <= 1e-8

    @pytest.mark.parametrize("s", (1e-200, 1e-12, 1.0, 1e12, 1e13, 1e200))
    def test_degeneracy_does_not_depend_on_the_scale_of_d(self, s):
        # Var(X | Z) and the rank cutoff it meets both scale with D, so a
        # rescaled law keeps its verdict and its coefficient.
        g = random_gaussian(np.random.default_rng(0), 4, 4)
        ref = partial_out(g)
        res = partial_out(_law(g.mean, g.cov.entries * s))
        assert not res.degenerate
        assert res.coefficient == pytest.approx(ref.coefficient, rel=1e-12)
        deg = partial_out(_law(np.zeros(4), _degenerate_cov() * s))
        assert deg.degenerate
        assert deg.coefficient == 0.0

    @pytest.mark.parametrize("s", (1e-12, 1.0, 1e12))
    def test_small_exact_conditional_variance_is_not_degenerate(self, s):
        # Z is independent of (X, Y), whose covariance is [[1e-12, .5e-12], [.5e-12, 1]]:
        # Var(X | Z) = 1e-12 exactly clears the law's own rank cut, though it sits
        # below the PSD gate's worst-case band of order eps * tr D.
        d = np.eye(10)
        d[:2, :2] = [[1e-12, 0.5e-12], [0.5e-12, 1.0]]
        res = partial_out(_law(np.zeros(10), d * s))
        assert not res.degenerate
        assert res.coefficient == pytest.approx(0.5, rel=1e-12)

    def test_independent_coordinates_give_zero_coefficient(self):
        res = partial_out(_law([0.0] * 3, np.diag([1.0, 2.0, 3.0])))
        assert res.coefficient == pytest.approx(0.0, abs=1e-14)
        assert not res.degenerate


class TestExtendedProjectionDelta:
    def test_matches_direct_projection_difference(self):
        rng = np.random.default_rng(5)
        for k in range(20):
            dim_v = int(rng.integers(0, 5))
            basis = rng.standard_normal((6, dim_v))
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            delta = extended_projection_delta(basis, x, y)
            q_small = orthonormal_columns(basis)
            q_big = orthonormal_columns(np.column_stack([basis, x]))
            direct = q_big @ (q_big.T @ y) - q_small @ (q_small.T @ y)
            assert maxabs(delta - direct) <= 1e-10

    def test_empty_subspace(self):
        x = np.array([2.0, 0.0, 0.0])
        y = np.array([3.0, 4.0, 5.0])
        delta = extended_projection_delta(np.zeros((3, 0)), x, y)
        assert np.allclose(delta, [3.0, 0.0, 0.0], atol=1e-14)

    def test_row_layout_accepted(self):
        rng = np.random.default_rng(6)
        basis_cols = rng.standard_normal((6, 2))
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        a = extended_projection_delta(basis_cols, x, y)
        b = extended_projection_delta(basis_cols.T, x, y)
        assert maxabs(a - b) <= 1e-12
        # A 1-D basis is one vector.
        a = extended_projection_delta(basis_cols[:, :1], x, y)
        b = extended_projection_delta(basis_cols[:, 0], x, y)
        assert maxabs(a - b) <= 1e-12

    def test_x_inside_subspace_rejected(self):
        basis = np.eye(4)[:, :2]
        with pytest.raises(XInSubspace):
            extended_projection_delta(basis, np.array([1.0, -2.0, 0.0, 0.0]), np.ones(4))

    @pytest.mark.parametrize("s", (1e-300, 1e-170, 1e-160, 1e-12, 1.0, 1e12, 1e150))
    def test_new_direction_found_at_any_scale(self, s):
        # x leaves span(e1, e2) along e3 at every scale, so y's new
        # component is its e3 coordinate; |x|^2 underflows below 1e-154.
        x = np.array([1e-3, 0.0, 1.0, 0.0]) * s
        delta = extended_projection_delta(np.eye(4)[:, :2], x, np.ones(4))
        assert maxabs(delta - [0.0, 0.0, 1.0, 0.0]) <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimError):
            extended_projection_delta(np.zeros((3, 1)), np.ones(3), np.ones(4))
        with pytest.raises(DimError, match="basis vectors have dim 2"):
            extended_projection_delta(np.zeros((2, 1)), np.ones(3), np.ones(3))

    def test_orthogonal_to_old_subspace(self):
        rng = np.random.default_rng(12)
        basis = rng.standard_normal((5, 3))
        delta = extended_projection_delta(basis, rng.standard_normal(5), rng.standard_normal(5))
        assert maxabs(basis.T @ delta) <= 1e-10 * (1.0 + frob(basis))
