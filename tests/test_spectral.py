import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscond.checks import random_map, random_orthogonal, random_psd, random_symmetric
from gausscond.errors import DimError, InvalidInput, NotPositive
from gausscond.spectral import (
    LinearMap,
    _zero_padded,
    Projector,
    SymOperator,
    as_linear_map,
    eig_sym,
    frob,
    invertible_left_factor,
    lu_min_pivot,
    maxabs,
    null_space_projector,
    orthonormal_columns,
    pinv_sqrt_psd,
    range_projector,
    row_space_projector,
    sqrt_psd,
)


class TestEigSym:
    def test_diagonal_matrix_sorted_descending(self):
        dec = eig_sym(np.diag([1.0, 5.0, -2.0, 3.0]))
        assert np.allclose(dec.eigenvalues, [5.0, 3.0, 1.0, -2.0])

    def test_known_two_by_two(self):
        dec = eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-14)
        v = dec.eigenvectors
        # Sign convention: the largest-magnitude component is positive.
        assert np.allclose(np.abs(v), 1.0 / np.sqrt(2.0), atol=1e-14)
        assert v[0, 0] > 0 and v[0, 1] > 0

    def test_rank_of_outer_product(self):
        u = np.array([1.0, -2.0, 0.5])
        dec = eig_sym(np.outer(u, u))
        assert dec.rank == 1

    def test_zero_matrix(self):
        dec = eig_sym(np.zeros((3, 3)))
        assert dec.rank == 0
        assert np.array_equal(dec.eigenvalues, np.zeros(3))

    def test_entries_near_the_float_limit(self):
        # Symmetrizing by halves keeps finite entries finite.
        dec = eig_sym(np.array([[0.0, 1e308], [1e308, 0.0]]))
        assert np.array_equal(dec.eigenvalues, [1e308, -1e308])

    def test_reconstruct_near_the_float_limit(self):
        # Halves first when symmetrizing the synthesis, so no sum overflows.
        a = np.array([[0.0, 1e308], [1e308, 0.0]])
        back = eig_sym(a).reconstruct()
        assert np.all(np.isfinite(back))
        assert maxabs(back - a) <= 1e-15 * 1e308

    def test_overflowing_spectrum_rejected(self):
        # Finite entries whose largest eigenvalue exceeds the float range.
        with pytest.raises(InvalidInput):
            eig_sym(np.array([[1e308, 0.95e308], [0.95e308, 0.95e308]]))

    def test_deterministic_repeatable(self):
        a = random_symmetric(np.random.default_rng(5), 6)
        d1 = eig_sym(a)
        d2 = eig_sym(a)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    @given(st.integers(0, 10_000), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_and_orthonormality(self, seed, n):
        a = random_symmetric(np.random.default_rng(seed), n)
        dec = eig_sym(a)
        assert maxabs(dec.reconstruct() - a) <= 1e-9 * (1.0 + frob(a))
        assert maxabs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(n)) <= 1e-12 * n

    @given(st.integers(0, 10_000), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_eigen_residual_per_column(self, seed, n):
        a = random_symmetric(np.random.default_rng(seed), n)
        dec = eig_sym(a)
        resid = a @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
        assert float(np.max(np.linalg.norm(resid, axis=0))) <= 1e-10 * (
            1.0 + maxabs(dec.eigenvalues)
        )

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInput):
            eig_sym(np.zeros((2, 3)))

    @pytest.mark.parametrize("s", (1e-300, 1e-12, 1.0, 1e12))
    def test_wrong_eigenvalue_rejected_at_any_scale(self, s, monkeypatch):
        # A solver that returns the smallest eigenvalue 10% off fails the
        # residual certificate, whose limit scales with the spectrum alone.
        eigh = np.linalg.eigh

        def wrong(a, *args):
            vals, vecs = eigh(a, *args)
            return vals * [1.1, 1.0, 1.0], vecs

        monkeypatch.setattr(np.linalg, "eigh", wrong)
        with pytest.raises(InvalidInput):
            eig_sym(np.diag([2.0, 1.0, 0.5]) * s)

    def test_lost_orthonormality_rejected(self, monkeypatch):
        # Eigenvectors returned 10% long fail the Gram certificate.
        eigh = np.linalg.eigh

        def scaled(a, *args):
            vals, vecs = eigh(a, *args)
            return vals, vecs * 1.1

        monkeypatch.setattr(np.linalg, "eigh", scaled)
        with pytest.raises(InvalidInput, match="lost orthonormality"):
            eig_sym(np.diag([2.0, 1.0, 0.5]))

    def test_subnormal_rounding_is_no_solver_error(self):
        # Entries below the smallest normal float round by a few absolute
        # ulps, which no limit relative to the spectrum can state.
        a = random_symmetric(np.random.default_rng(3), 4) * 1e-315
        assert eig_sym(a).dim == 4


class TestOperatorCalculus:
    @given(st.integers(0, 10_000), st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_sqrt_squares_back(self, seed, n):
        rng = np.random.default_rng(seed)
        d = random_psd(rng, n, int(rng.integers(0, n + 1)))
        root = sqrt_psd(SymOperator(d)).entries
        assert maxabs(root @ root - d) <= 1e-9 * (1.0 + frob(d))

    @given(st.integers(0, 10_000), st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_half_inverse_identities(self, seed, n):
        rng = np.random.default_rng(seed)
        d = random_psd(rng, n, int(rng.integers(0, n + 1)))
        op = SymOperator(d)
        root = sqrt_psd(op).entries
        inv_root = pinv_sqrt_psd(op).entries
        proj = range_projector(op).entries
        tol = 1e-9 * (1.0 + frob(d))
        assert maxabs(root @ inv_root - proj) <= tol
        assert maxabs(inv_root @ root - proj) <= tol
        assert maxabs(d @ inv_root - root) <= tol
        assert maxabs(inv_root @ d - root) <= tol

    def test_sqrt_keeps_null_directions_exact(self):
        # Eigenvalues at or below the rank cut must become exact zeros in
        # the root, so the root's range agrees with the rank split.
        rng = np.random.default_rng(11)
        d = random_psd(rng, 5, 3)
        dec = SymOperator(d).decomposition()
        root = dec.sqrt_matrix()
        null_vecs = dec.eigenvectors[:, dec.rank:]
        assert maxabs(root @ null_vecs) <= 1e-12

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositive):
            sqrt_psd(SymOperator(np.diag([1.0, -0.5])))

    def test_projectors_of_rectangular_map(self):
        rng = np.random.default_rng(3)
        t = random_map(rng, 2, 5, 2)
        p_row = row_space_projector(t)
        p_null = null_space_projector(t)
        assert p_row.subspace_rank == 2
        assert p_null.subspace_rank == 3
        assert maxabs(p_row.entries + p_null.entries - np.eye(5)) <= 1e-10
        assert maxabs(t @ p_null.entries) <= 1e-9 * (1.0 + frob(t))

    def test_zero_map_projectors(self):
        p_row = row_space_projector(np.zeros((2, 4)))
        assert p_row.subspace_rank == 0
        assert maxabs(p_row.entries) == 0.0


class TestOrthonormalColumns:
    def test_detects_rank(self):
        a = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [1.0, 2.0, 0.0]])
        q = orthonormal_columns(a)
        assert q.shape == (3, 2)
        assert maxabs(q.T @ q - np.eye(2)) <= 1e-13

    def test_empty_input(self):
        assert orthonormal_columns(np.zeros((4, 0))).shape == (4, 0)
        assert orthonormal_columns(np.zeros((4, 2))).shape == (4, 0)
        assert orthonormal_columns(LinearMap(np.zeros((4, 2)))).shape == (4, 0)
        assert orthonormal_columns(LinearMap(np.zeros((0, 3)))).shape == (0, 0)

    def test_linear_map_reads_its_cached_svd(self):
        c = random_map(np.random.default_rng(4), 5, 3, 2)
        tm = LinearMap(c)
        q = orthonormal_columns(tm)
        assert np.array_equal(q, orthonormal_columns(c))
        assert q.shape == (5, 2)
        assert np.array_equal(q, tm.svd[0][:, :2])


class TestLU:
    def test_known_pivots(self):
        assert lu_min_pivot(np.array([[0.0, 1.0], [1.0, 0.0]])) == 1.0
        assert lu_min_pivot(np.eye(3)) == 1.0

    def test_singular_matrix(self):
        assert lu_min_pivot(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInput, match="square"):
            lu_min_pivot(np.zeros((2, 3)))


class TestInvertibleLeftFactor:
    def test_identity_map(self):
        u = invertible_left_factor(np.eye(3))
        assert maxabs(u - np.eye(3)) <= 1e-12

    def test_zero_map_gives_identity(self):
        assert np.array_equal(invertible_left_factor(np.zeros((4, 4))), np.eye(4))

    def test_rectangular_rejected(self):
        with pytest.raises(DimError):
            invertible_left_factor(np.zeros((2, 3)))

    def test_inaccurate_factor_rejected(self):
        # Singular values 1, .5, .3, 1e-9 are all kept; U T misses P_row by
        # about 2e-8, past the certificate's limit of about 2e-9.
        rng = np.random.default_rng(0)
        q, v = random_orthogonal(rng, 4), random_orthogonal(rng, 4)
        with pytest.raises(InvalidInput, match="left factor residual"):
            invertible_left_factor((q * [1.0, 0.5, 0.3, 1e-9]) @ v.T)

    def test_numerically_singular_factor_rejected(self):
        with pytest.raises(InvalidInput, match="numerically singular"):
            invertible_left_factor(np.diag([1.0, 1e-13]))

    @given(st.integers(0, 10_000), st.integers(1, 7), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_inverts_on_row_space(self, seed, n, deficient):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(0, n)) if deficient else n
        t = random_map(rng, n, n, rank)
        u = invertible_left_factor(t)
        p_row = row_space_projector(t).entries
        assert maxabs(u @ t - p_row) <= 1e-9 * (1.0 + frob(t))
        assert lu_min_pivot(u) > 1e-12 * frob(u)

    @given(st.integers(0, 10_000), st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_singular_values_are_inverse_and_inverse_max(self, seed, n):
        # U is exactly as well-conditioned as T allows: it inverts T's
        # nonzero singular values and sends the rest of range(T)^perp onto
        # null(T) at 1/sigma_max, T's own scale.
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(0, n + 1))
        t = random_map(rng, n, n, rank)
        sv_t = np.linalg.svd(t, compute_uv=False)[:rank]
        fill = 1.0 / sv_t[0] if rank else 1.0
        expect = np.sort(np.concatenate([1.0 / sv_t, np.full(n - rank, fill)]))
        got = np.sort(np.linalg.svd(invertible_left_factor(t), compute_uv=False))
        assert np.all(np.abs(got - expect) <= 1e-9 * expect)

    @pytest.mark.parametrize("scale", [1e-200, 1e-12, 1.0, 1e12, 1e200])
    def test_any_scale_of_the_map(self, scale):
        # U T - P_row is scale-free, and so is U's conditioning.
        rng = np.random.default_rng(0)
        maps = [np.diag([1.0, 0.5, 0.0, 0.0])]
        for _ in range(100):
            n = int(rng.integers(1, 8))
            maps.append(random_map(rng, n, n, int(rng.integers(0, n + 1))))
        for t in maps:
            u = invertible_left_factor(t * scale)
            assert maxabs(u @ (t * scale) - row_space_projector(t).entries) <= 1e-9


class TestZeroPadded:
    """One SVD of a at its own shape is the SVD of a zero-padded to a square."""

    @pytest.mark.parametrize("m, n, rank", [(2, 5, 2), (4, 4, 3), (6, 3, 3), (0, 4, 0), (3, 5, 0)])
    def test_assembled_svd(self, m, n, rank, factorizations):
        a = random_map(np.random.default_rng(m * 10 + n), m, n, rank)
        tm = _zero_padded(a)
        k = max(m, n)
        assert tm.entries.shape == (k, k)
        assert np.array_equal(tm.entries[:m, :n], a)
        assert maxabs(tm.entries[m:]) == 0.0 and maxabs(tm.entries[:, n:]) == 0.0
        w, sv, vt = tm.svd
        assert maxabs((w * sv) @ vt - tm.entries) <= 1e-14 * max(k, maxabs(a))
        assert maxabs(w.T @ w - np.eye(k)) <= 1e-14 * k
        assert maxabs(vt @ vt.T - np.eye(k)) <= 1e-14 * k
        assert np.all(np.diff(sv) <= 0.0)
        assert np.all(sv[min(m, n):] == 0.0)
        # A 0-row map needs no factorization at all.
        assert factorizations["svd"] == int(m > 0)
        assert orthonormal_columns(tm).shape == (k, rank)
        u = invertible_left_factor(tm)
        assert maxabs(u @ tm.entries - row_space_projector(tm).entries) <= 1e-12
        assert factorizations["svd"] == int(m > 0) + 1  # row_space_projector's own SVD


class TestTypes:
    def test_sym_operator_symmetrizes(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-15, 1.0]])
        op = SymOperator(a)
        assert np.array_equal(op.entries, op.entries.T)

    def test_sym_operator_rejects_non_square(self):
        with pytest.raises(InvalidInput):
            SymOperator(np.zeros((2, 3)))

    def test_vector_coerces_to_row_map(self):
        tm = as_linear_map(np.array([1.0, 2.0, 3.0]))
        assert tm.rows == 1 and tm.cols == 3
        with pytest.raises(InvalidInput):
            LinearMap(np.array([1.0, 2.0, 3.0]))

    def test_linear_map_accepts_empty_output(self):
        tm = LinearMap(np.zeros((0, 3)))
        assert tm.rows == 0

    def test_linear_map_rejects_empty_domain(self):
        with pytest.raises(InvalidInput, match="domain"):
            LinearMap(np.zeros((2, 0)))

    def test_projector_validates(self):
        with pytest.raises(InvalidInput):
            Projector(np.array([[0.5, 0.0], [0.0, 0.0]]), 1)
        for entries, rank, match in ((np.zeros((2, 3)), 0, "square"),
                                     (np.array([[1.0, 1e-9], [0.0, 0.0]]), 1, "symmetric"),
                                     (np.diag([1.0, 0.0]), 2, "trace")):
            with pytest.raises(InvalidInput, match=match):
                Projector(entries, rank)

    def test_operators_and_projectors_coerce(self):
        # A Projector reads as a SymOperator, and either as a LinearMap.
        p = range_projector(np.diag([2.0, 0.0, 1.0]))
        assert np.array_equal(sqrt_psd(p).entries, np.diag([1.0, 0.0, 1.0]))
        for op in (SymOperator(np.diag([2.0, 0.0, 1.0])), p):
            tm = as_linear_map(op)
            assert isinstance(tm, LinearMap) and np.array_equal(tm.entries, op.entries)
            assert row_space_projector(op).subspace_rank == 2

    def test_projector_complement(self):
        p = Projector(np.diag([1.0, 0.0, 0.0]), 1)
        c = p.complement()
        assert c.subspace_rank == 2
        assert maxabs(p.entries + c.entries - np.eye(3)) == 0.0
