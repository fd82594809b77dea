"""Spectral calculus for real symmetric operators and linear maps.

Everything downstream rests on four primitives built here:

* an eigendecomposition of symmetric matrices (LAPACK through
  ``numpy.linalg.eigh``, descending order, fixed sign convention),
* square roots and pseudo-inverse square roots of positive semidefinite
  operators, with a shared notion of numerical rank,
* orthogonal projectors onto ranges, row spaces and null spaces,
* an invertible completion U of a square map T with U T equal to the
  orthogonal projector onto the row space of T, certified through its
  closed-form inverse.

Numerical rank has one cutoff, ``rank_tol_scale * dim * eps * max(size,
ref)``: for symmetric operators dim is n and size is max|lambda|; for
m x n maps dim is max(m, n) and size is sigma_max of the map, never of
T^T T. ref is the size of a product that computed the matrix, whose
roundoff its own spectrum cannot reveal. Operators from one decomposition
share a null space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimError, InvalidInput, NotPositive

EPS = float(np.finfo(float).eps)

# Default multiplier for the numerical rank threshold. Overridable per call.
DEFAULT_RANK_TOL_SCALE = 100.0

# Construction-time validation thresholds.
ORTHONORMALITY_TOL = 1e-12          # scaled by n
EIG_RESIDUAL_TOL = 1e-10            # scaled by max|lambda|, floored at the smallest normal
PROJECTOR_SYM_TOL = 1e-12
PROJECTOR_IDEMPOTENT_TOL = 1e-10
PROJECTOR_TRACE_TOL = 1e-8
LEFT_FACTOR_TOL = 1e-9              # scaled by 1 + ||T||
LU_PIVOT_TOL = 1e-12                # lower bound on sigma_min(U), scaled by ||U||


def _resolve_rank_tol_scale(rank_tol_scale: float | None) -> float:
    """The rank threshold multiplier a call uses: the default for None, else positive and finite."""
    scale = DEFAULT_RANK_TOL_SCALE if rank_tol_scale is None else float(rank_tol_scale)
    if not 0.0 < scale < math.inf:
        raise InvalidInput(f"rank_tol_scale must be positive and finite, got {scale}")
    return scale


def _cutoff(rank_tol_scale: float | None, dim: int, size: float, ref: float = 0.0) -> float:
    """The one rank cutoff: values above scale * dim * eps * max(size, ref) count."""
    return _resolve_rank_tol_scale(rank_tol_scale) * dim * EPS * max(size, ref)


def frob(a) -> float:
    """Frobenius norm, the package-wide scale for tolerance factors.

    Taken of a / max|a|, so squares neither overflow nor underflow.
    """
    a = np.asarray(a, dtype=float)
    big = maxabs(a)
    return big * float(np.linalg.norm(a / big)) if big else 0.0


def maxabs(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _as_matrix(a, name: str) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim != 2:
        raise InvalidInput(f"{name} must be a 2-d matrix, got ndim={out.ndim}")
    if out.size and not np.all(np.isfinite(out)):
        raise InvalidInput(f"{name} has non-finite entries")
    return out


@dataclass(frozen=True, eq=False)
class SymOperator:
    """Real symmetric operator on R^n with one cached eigensolve.

    Entries are symmetrized by averaging at construction and frozen
    read-only afterwards. The operator is solved and certified once; each
    rank_tol_scale re-cuts those eigenpairs, so it is never factorized twice.
    """

    entries: np.ndarray
    dim: int = field(init=False)
    _decomp_cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        a = _as_matrix(self.entries, "SymOperator entries")
        if a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InvalidInput(f"SymOperator must be square with dim >= 1, got shape {a.shape}")
        # Halves first, so finite entries near the float limit stay finite.
        a = a / 2.0 + a.T / 2.0
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "dim", a.shape[0])

    def decomposition(self, rank_tol_scale: float | None = None) -> "SpectralDecomposition":
        key = _resolve_rank_tol_scale(rank_tol_scale)
        cached = self._decomp_cache.get(key)
        if cached is None:
            solved = next(iter(self._decomp_cache.values()), None)
            cached = _eig_cut(solved.eigenvalues, solved.eigenvectors, key) if solved else eig_sym(self, key)
            self._decomp_cache[key] = cached
        return cached

    def norm(self) -> float:
        return frob(self.entries)


def as_sym_operator(a) -> SymOperator:
    if isinstance(a, SymOperator):
        return a
    if isinstance(a, Projector):
        return SymOperator(a.entries)
    return SymOperator(np.asarray(a, dtype=float))


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Dense real matrix viewed as a map R^cols -> R^rows.

    rows may be zero (a map into the trivial space); cols may not.
    """

    entries: np.ndarray
    rows: int = field(init=False)
    cols: int = field(init=False)

    def __post_init__(self):
        a = _as_matrix(self.entries, "LinearMap entries")
        if a.shape[1] < 1:
            raise InvalidInput(f"LinearMap needs a domain of dim >= 1, got shape {a.shape}")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "rows", a.shape[0])
        object.__setattr__(self, "cols", a.shape[1])

    def norm(self) -> float:
        return frob(self.entries)

    @cached_property
    def svd(self) -> tuple:
        """Thin SVD (W, sigma, V^T), computed once per map; _zero_padded seeds it."""
        return np.linalg.svd(self.entries, full_matrices=False)


def _zero_padded(a: np.ndarray) -> LinearMap:
    """The m x n matrix a, zero-padded to a square k x k map, k = max(m, n).

    One full SVD W Sigma V^T of a at its own shape gives the padded map's
    SVD by identity completion: W (+) I_{k-m}, sigma followed by
    k - min(m, n) exact zeros, and V^T (+) I_{k-n}. It is held where
    LinearMap.svd caches, so every reader of the padded map shares it.
    A 0-row a is the zero map, with identity singular vectors.
    """
    m, n = a.shape
    k = max(m, n)
    entries = np.zeros((k, k))
    entries[:m, :n] = a
    tm = LinearMap(entries)
    w, sv, vt = np.eye(k), np.zeros(k), np.eye(k)
    if m:
        w[:m, :m], sv[: min(m, n)], vt[:n, :n] = np.linalg.svd(a, full_matrices=True)
    tm.__dict__["svd"] = (w, sv, vt)
    return tm


def as_linear_map(a) -> LinearMap:
    if isinstance(a, LinearMap):
        return a
    if isinstance(a, (SymOperator, Projector)):
        return LinearMap(a.entries)
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return LinearMap(arr)


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector: symmetric, idempotent, integer trace.

    All three properties are asserted at construction, so holding a
    Projector is itself a certificate that the matrix behaves like one.
    """

    entries: np.ndarray
    subspace_rank: int
    dim: int = field(init=False)

    def __post_init__(self):
        p = _as_matrix(self.entries, "Projector entries")
        if p.shape[0] != p.shape[1]:
            raise InvalidInput(f"Projector must be square, got shape {p.shape}")
        if maxabs(p - p.T) > PROJECTOR_SYM_TOL:
            raise InvalidInput("projector is not symmetric within 1e-12")
        if maxabs(p @ p - p) > PROJECTOR_IDEMPOTENT_TOL:
            raise InvalidInput("projector is not idempotent within 1e-10")
        trace = float(np.trace(p))
        if abs(trace - self.subspace_rank) > PROJECTOR_TRACE_TOL:
            raise InvalidInput(
                f"projector trace {trace} is not within 1e-8 of rank {self.subspace_rank}"
            )
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "entries", p)
        object.__setattr__(self, "dim", p.shape[0])

    def complement(self) -> "Projector":
        return Projector(np.eye(self.dim) - self.entries, self.dim - self.subspace_rank)


def _outer(v: np.ndarray, d=None) -> np.ndarray:
    """V diag(d) V^T, or V V^T (a symmetric rank update) without d, symmetrized."""
    out = v @ v.T if d is None else (v * d) @ v.T
    return out / 2.0 + out.T / 2.0


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenpairs of a symmetric operator plus its numerical rank split.

    eigenvalues are sorted descending; column j of eigenvectors pairs with
    eigenvalues[j]. rank counts the eigenvalues above rank_tolerance, and
    for positive semidefinite inputs those occupy exactly the leading
    columns, so the split into signal and null directions is an index cut.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int
    rank_tolerance: float

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    def reconstruct(self) -> np.ndarray:
        return _outer(self.eigenvectors, self.eigenvalues)

    def _positive_part(self, fn) -> np.ndarray:
        # fn of the eigenvalues above the rank cut, exact zeros elsewhere, so every
        # function of D has the range of its positive part; the PSD clamp has
        # already zeroed the eigenvalues past a computed covariance's known rank.
        vals = np.zeros_like(self.eigenvalues)
        pos = self.eigenvalues > self.rank_tolerance
        vals[pos] = fn(self.eigenvalues[pos])
        return _outer(self.eigenvectors, vals)

    def sqrt_matrix(self) -> np.ndarray:
        return self._positive_part(np.sqrt)

    def pinv_sqrt_matrix(self) -> np.ndarray:
        return self._positive_part(lambda x: 1.0 / np.sqrt(x))

    def pinv_matrix(self) -> np.ndarray:
        return self._positive_part(lambda x: 1.0 / x)

    def range_projector_matrix(self) -> np.ndarray:
        return _outer(self.eigenvectors[:, : self.rank])

    def null_projector_matrix(self) -> np.ndarray:
        return np.eye(self.dim) - self.range_projector_matrix()

    @cached_property
    def null_projector(self) -> Projector:
        """The certified projector onto the null space, built once per decomposition."""
        return Projector(self.null_projector_matrix(), self.dim - self.rank)

    def _clamped(self, keep: int) -> SymOperator:
        """The operator with the eigenvalues past the first keep, and the negative ones, zeroed.

        Its eigensolve is these eigenvectors with the clamped values,
        certified against its own entries by eig_sym's checks, so the
        operator is never factored at any rank_tol_scale.
        """
        vals = np.where(np.arange(self.dim) < keep, np.maximum(self.eigenvalues, 0.0), 0.0)
        op = SymOperator(_outer(self.eigenvectors, vals))
        op._decomp_cache[DEFAULT_RANK_TOL_SCALE] = _certified(op.entries, vals, self.eigenvectors, None)
        return op


def eig_sym(a, rank_tol_scale: float | None = None) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric operator (LAPACK ``eigh``).

    Output order is descending by eigenvalue. Each eigenvector is signed
    so its largest-magnitude component is positive, ties broken by the
    lowest index, so repeated calls on one numpy/BLAS build agree exactly.
    """
    op = as_sym_operator(a)
    vals, vecs = np.linalg.eigh(op.entries)
    if not (np.isfinite(vals).all() and np.isfinite(vecs).all()):
        raise InvalidInput("eigendecomposition is not finite: the spectrum overflows")
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    lead = np.argmax(np.abs(vecs), axis=0)
    vecs = vecs * np.where(vecs[lead, np.arange(op.dim)] < 0.0, -1.0, 1.0)
    return _certified(op.entries, vals, vecs, rank_tol_scale)


def _certified(a: np.ndarray, vals, vecs, rank_tol_scale) -> SpectralDecomposition:
    # Cheap accuracy certificate for eigenpairs (vals descending) of a;
    # failure here means the solver did not reach its advertised accuracy,
    # which callers must not paper over.
    n = a.shape[0]
    largest = maxabs(vals)
    gram = maxabs(vecs.T @ vecs - np.eye(n))
    if gram > ORTHONORMALITY_TOL * n:
        raise InvalidInput(f"eigenvector columns lost orthonormality: {gram:.3e}")
    # Column norms in units of the spectrum, so residuals past 1e154 do not overflow.
    unit = largest or 1.0
    resid = np.linalg.norm((a @ vecs - vecs * vals) / unit, axis=0)
    worst = unit * float(np.max(resid, initial=0.0))
    # Floored at the smallest normal float: subnormal residuals are rounding, not solver error.
    limit = max(EIG_RESIDUAL_TOL * largest, float(np.finfo(float).tiny))
    if worst > limit:
        raise InvalidInput(f"eigenpair residual {worst:.3e} exceeds {limit:.3e}")
    return _eig_cut(vals, vecs, rank_tol_scale)


def _eig_cut(vals: np.ndarray, vecs: np.ndarray, rank_tol_scale) -> SpectralDecomposition:
    # The one rank cut of an operator's certified eigenpairs: dim n, size max|lambda|.
    tol = _cutoff(rank_tol_scale, vals.size, maxabs(vals))
    return SpectralDecomposition(vals, vecs, int(np.count_nonzero(vals > tol)), tol)


def _psd_decomposition(a, rank_tol_scale: float | None, what: str = "operator", ref: float = 0.0):
    # The one PSD gate. ref is the magnitude of the computation that produced
    # the matrix: a product of O(ref) factors may be zero up to roundoff
    # scaled by ref, which the matrix's own (vanishing) spectrum cannot reveal.
    op = as_sym_operator(a)
    dec = op.decomposition(rank_tol_scale)
    low = float(dec.eigenvalues[-1])
    tol = _cutoff(rank_tol_scale, op.dim, maxabs(dec.eigenvalues), ref)
    if low < -tol:
        raise NotPositive(f"{what} has eigenvalue {low:.3e} below -{tol:.3e}")
    return dec


def sqrt_psd(a, rank_tol_scale: float | None = None) -> SymOperator:
    """Unique positive square root of a positive semidefinite operator."""
    return SymOperator(_psd_decomposition(a, rank_tol_scale).sqrt_matrix())


def pinv_sqrt_psd(a, rank_tol_scale: float | None = None) -> SymOperator:
    """Pseudo-inverse square root: 1/sqrt(lambda) on the positive part, 0 on the rest."""
    return SymOperator(_psd_decomposition(a, rank_tol_scale).pinv_sqrt_matrix())


def range_projector(a, rank_tol_scale: float | None = None) -> Projector:
    """Orthogonal projector onto the range of a symmetric operator.

    The range is spanned by the eigenvectors whose eigenvalues clear the
    rank tolerance; for a PSD operator this is exactly the orthogonal
    complement of the null space.
    """
    op = as_sym_operator(a)
    dec = op.decomposition(rank_tol_scale)
    return Projector(dec.range_projector_matrix(), dec.rank)


def row_space_projector(t, rank_tol_scale: float | None = None) -> Projector:
    """Orthogonal projector onto the row space of a (possibly rectangular) map.

    Q Q^T with Q the right singular vectors of T whose singular values
    exceed rank_tol_scale * max(m, n) * sigma_max * eps.
    """
    tm = as_linear_map(t)
    q = orthonormal_columns(tm.entries.T, rank_tol_scale)
    return Projector(_outer(q), q.shape[1])


def null_space_projector(t, rank_tol_scale: float | None = None) -> Projector:
    """Orthogonal projector onto the null space of a map: I minus its row-space projector."""
    return row_space_projector(t, rank_tol_scale).complement()


def orthonormal_columns(
    candidates, rank_tol_scale: float | None = None, ref: float = 0.0
) -> np.ndarray:
    """Orthonormal basis for the span of the given columns.

    The left singular vectors W_r of the matrix of columns, cut by the map
    rank rule with floor ref; smaller singular values count as dependence.
    The basis is unique only up to a rotation within the span: callers use
    its span and its size. A LinearMap is read through its cached SVD.
    """
    tm = candidates if isinstance(candidates, LinearMap) else None
    c = tm.entries if tm is not None else np.asarray(candidates, dtype=float)
    if c.ndim == 2 and min(c.shape) == 0:
        return np.zeros((c.shape[0], 0))
    w, _, _, rank = _map_svd(tm if tm is not None else LinearMap(c), rank_tol_scale, ref)
    return w[:, :rank]


def _map_svd(tm: LinearMap, rank_tol_scale: float | None, ref: float = 0.0):
    # The map's cached SVD (W, sigma, V^T) and its rank under the map rule:
    # callers that share a LinearMap share one factorization and one cut.
    w, sv, vt = tm.svd
    cut = _cutoff(rank_tol_scale, max(tm.rows, tm.cols), float(sv[0]), ref)
    return w, sv, vt, int(np.count_nonzero(sv > cut))


def lu_min_pivot(a) -> float:
    """Smallest absolute pivot met during a partial-pivoting LU factorization."""
    m = np.asarray(a, dtype=float).copy()
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput("lu_min_pivot expects a square matrix")
    n = m.shape[0]
    smallest = math.inf
    for k in range(n):
        i = k + int(np.argmax(np.abs(m[k:, k])))
        if i != k:
            m[[k, i]] = m[[i, k]]
        piv = m[k, k]
        smallest = min(smallest, abs(piv))
        if piv == 0.0:
            return 0.0
        if k + 1 < n:
            m[k + 1:, k] /= piv
            m[k + 1:, k + 1:] -= np.outer(m[k + 1:, k], m[k, k + 1:])
    return float(smallest)


def invertible_left_factor(t, rank_tol_scale: float | None = None, ref: float = 0.0) -> np.ndarray:
    """Invertible U with U T equal to the projector onto the row space of T.

    T must be square. From one SVD T = W Sigma V^T, cut by the map rank
    rule into a kept part (r) and the rest (perp), the factor is
    U = V_r Sigma_r^(-1) W_r^T + sigma_max^(-1) V_perp W_perp^T: it sends
    each T v_j back to v_j and range(T)^perp onto null(T) at T's own
    scale. Its singular values are 1/sigma_j(T) and 1/sigma_max(T), so
    its conditioning does not depend on the scale of T. A zero map yields
    the identity. ref is the size of a product that computed T, which is
    then known only to eps * ref: it floors the rank cut, and the
    residual bound scales with max(||T||, ref). Invertibility is
    certified from U's closed-form inverse X = W diag(sigma_r, sigma_max) V^T
    without another factorization.
    """
    tm = as_linear_map(t)
    if tm.rows != tm.cols:
        raise DimError(f"map must be square, got {tm.rows} x {tm.cols}")
    w, sv, vt, rank = _map_svd(tm, rank_tol_scale, ref)
    if rank == 0:
        return np.eye(tm.cols)
    # The kept singular values, with sigma_max in place of those cut.
    d = sv.copy()
    d[rank:] = sv[0]
    out = (vt.T / d) @ w.T
    v_r = vt[:rank].T

    resid = maxabs(out @ tm.entries - v_r @ v_r.T)
    limit = LEFT_FACTOR_TOL * (1.0 + max(tm.norm(), ref))
    if resid > limit:
        raise InvalidInput(
            f"left factor residual {resid:.3e} exceeds {limit:.3e}; "
            "the map is too ill-conditioned for this construction"
        )
    # With E = U X - I and ||E||_F < 1, sigma_min(U) >= (1 - ||E||_F) / ||X||_F
    # (Golub & Van Loan, 2.3): a bound never above the true sigma_min.
    inverse = (w * d) @ vt
    defect = frob(out @ inverse - np.eye(tm.cols))
    bound = (1.0 - defect) / frob(inverse)
    if defect >= 1.0 or bound <= LU_PIVOT_TOL * frob(out):
        raise InvalidInput(
            f"left factor is numerically singular (min singular value bound {bound:.3e})"
        )
    return out
