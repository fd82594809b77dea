"""Spectral calculus for real symmetric operators.

Everything downstream rests on four primitives built here:

* an eigendecomposition of symmetric matrices (LAPACK through
  ``numpy.linalg.eigh``, descending order, fixed sign convention),
* square roots and pseudo-inverse square roots of positive semidefinite
  operators, with a shared notion of numerical rank,
* orthogonal projectors onto ranges, row spaces and null spaces,
* an invertible completion U of a square map T with U T equal to the
  orthogonal projector onto the row space of T.

Numerical rank is decided by a single threshold,
``rank_tol_scale * n * max|lambda| * machine_eps``, so that all operators
derived from one decomposition agree on which directions count as null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimError, InvalidInput, NotPositive

EPS = float(np.finfo(float).eps)

# Default multiplier for the numerical rank threshold. Overridable per call.
DEFAULT_RANK_TOL_SCALE = 100.0

# Construction-time validation thresholds.
ORTHONORMALITY_TOL = 1e-12          # scaled by n
EIG_RESIDUAL_TOL = 1e-10            # scaled by 1 + max|lambda|
PROJECTOR_SYM_TOL = 1e-12
PROJECTOR_IDEMPOTENT_TOL = 1e-10
PROJECTOR_TRACE_TOL = 1e-8
LEFT_FACTOR_TOL = 1e-9              # scaled by 1 + ||T||
LU_PIVOT_TOL = 1e-12                # min singular value of U, scaled by ||U||


def _resolve_rank_tol_scale(rank_tol_scale: float | None) -> float:
    """The rank threshold multiplier a call uses: the default for None, else positive."""
    scale = DEFAULT_RANK_TOL_SCALE if rank_tol_scale is None else float(rank_tol_scale)
    if scale <= 0.0:
        raise InvalidInput(f"rank_tol_scale must be positive, got {scale}")
    return scale


def frob(a) -> float:
    """Frobenius norm, the package-wide scale for tolerance factors."""
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


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
    """Real symmetric operator on R^n with cached eigendecompositions.

    Entries are symmetrized by averaging at construction and frozen
    read-only afterwards. Decompositions are cached per rank_tol_scale so
    repeated use of the same operator never factorizes it twice.
    """

    entries: np.ndarray
    dim: int = field(init=False)
    _decomp_cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        a = _as_matrix(self.entries, "SymOperator entries")
        if a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InvalidInput(f"SymOperator must be square with dim >= 1, got shape {a.shape}")
        a = (a + a.T) / 2.0
        if not np.array_equal(a, a.T):
            raise InvalidInput("symmetrization failed to produce a symmetric matrix")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "dim", a.shape[0])

    def decomposition(self, rank_tol_scale: float | None = None) -> "SpectralDecomposition":
        key = _resolve_rank_tol_scale(rank_tol_scale)
        cached = self._decomp_cache.get(key)
        if cached is None:
            cached = eig_sym(self, rank_tol_scale=key)
            self._decomp_cache[key] = cached
        return cached

    def min_eigenvalue(self, rank_tol_scale: float | None = None) -> float:
        return float(self.decomposition(rank_tol_scale).eigenvalues[-1])

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

    def _synthesize(self, diag: np.ndarray) -> np.ndarray:
        v = self.eigenvectors
        out = (v * diag) @ v.T
        return (out + out.T) / 2.0

    def reconstruct(self) -> np.ndarray:
        return self._synthesize(self.eigenvalues)

    def sqrt_matrix(self) -> np.ndarray:
        # Eigenvalues at or below the rank cut are exact zeros here, so the
        # square root has the same range as the positive part. Negatives
        # within tolerance are clamped by the same rule.
        vals = np.where(self.eigenvalues > self.rank_tolerance, self.eigenvalues, 0.0)
        return self._synthesize(np.sqrt(vals))

    def pinv_sqrt_matrix(self) -> np.ndarray:
        vals = np.zeros_like(self.eigenvalues)
        pos = self.eigenvalues > self.rank_tolerance
        vals[pos] = 1.0 / np.sqrt(self.eigenvalues[pos])
        return self._synthesize(vals)

    def pinv_matrix(self) -> np.ndarray:
        vals = np.zeros_like(self.eigenvalues)
        pos = self.eigenvalues > self.rank_tolerance
        vals[pos] = 1.0 / self.eigenvalues[pos]
        return self._synthesize(vals)

    def range_projector_matrix(self) -> np.ndarray:
        v = self.eigenvectors[:, : self.rank]
        out = v @ v.T
        return (out + out.T) / 2.0

    def null_projector_matrix(self) -> np.ndarray:
        return np.eye(self.dim) - self.range_projector_matrix()


def eig_sym(a, rank_tol_scale: float | None = None) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric operator (LAPACK ``eigh``).

    Output order is descending by eigenvalue. Each eigenvector is signed
    so its largest-magnitude component is positive, ties broken by the
    lowest index, so repeated calls on one numpy/BLAS build agree exactly.
    """
    op = as_sym_operator(a)
    scale = _resolve_rank_tol_scale(rank_tol_scale)

    vals, vecs = np.linalg.eigh(op.entries)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    lead = np.argmax(np.abs(vecs), axis=0)
    vecs = vecs * np.where(vecs[lead, np.arange(op.dim)] < 0.0, -1.0, 1.0)

    largest = maxabs(vals)
    tol = scale * op.dim * largest * EPS
    rank = int(np.count_nonzero(vals > tol))

    # Cheap accuracy certificate; failure here means the solver did not
    # reach its advertised accuracy, which callers must not paper over.
    gram = maxabs(vecs.T @ vecs - np.eye(op.dim))
    if gram > ORTHONORMALITY_TOL * op.dim:
        raise InvalidInput(f"eigenvector columns lost orthonormality: {gram:.3e}")
    resid = np.linalg.norm(op.entries @ vecs - vecs * vals, axis=0)
    limit = EIG_RESIDUAL_TOL * (1.0 + largest)
    worst = float(np.max(resid)) if resid.size else 0.0
    if worst > limit:
        raise InvalidInput(f"eigenpair residual {worst:.3e} exceeds {limit:.3e}")

    return SpectralDecomposition(vals, vecs, rank, tol)


def sqrt_psd(a, rank_tol_scale: float | None = None) -> SymOperator:
    """Unique positive square root of a positive semidefinite operator."""
    op = as_sym_operator(a)
    dec = op.decomposition(rank_tol_scale)
    if dec.eigenvalues[-1] < -dec.rank_tolerance:
        raise NotPositive(
            f"operator has eigenvalue {dec.eigenvalues[-1]:.3e} below -rank_tolerance"
        )
    return SymOperator(dec.sqrt_matrix())


def pinv_sqrt_psd(a, rank_tol_scale: float | None = None) -> SymOperator:
    """Pseudo-inverse square root: 1/sqrt(lambda) on the positive part, 0 on the rest."""
    op = as_sym_operator(a)
    dec = op.decomposition(rank_tol_scale)
    if dec.eigenvalues[-1] < -dec.rank_tolerance:
        raise NotPositive(
            f"operator has eigenvalue {dec.eigenvalues[-1]:.3e} below -rank_tolerance"
        )
    return SymOperator(dec.pinv_sqrt_matrix())


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

    Built from the eigenvectors of T^T T: the positive-eigenvalue columns
    span the row space, and the eigenvalue of each equals the squared norm
    of its image under T.
    """
    tm = as_linear_map(t)
    gram = SymOperator(tm.entries.T @ tm.entries)
    dec = gram.decomposition(rank_tol_scale)
    return Projector(dec.range_projector_matrix(), dec.rank)


def null_space_projector(t, rank_tol_scale: float | None = None) -> Projector:
    """Orthogonal projector onto the null space of a map: I minus its row-space projector."""
    tm = as_linear_map(t)
    gram = SymOperator(tm.entries.T @ tm.entries)
    dec = gram.decomposition(rank_tol_scale)
    return Projector(dec.null_projector_matrix(), tm.cols - dec.rank)


def orthonormal_columns(
    candidates: np.ndarray, drop_tol: float | None = None, scale: float | None = None
) -> np.ndarray:
    """Orthonormal basis for the span of the given columns.

    The left singular vectors of a thin SVD whose singular values exceed
    drop_tol (default 1e-12) times scale; smaller ones count as dependence.
    scale defaults to the largest column norm; pass it explicitly when the
    columns themselves may be pure noise (e.g. a residual of projectors).
    The basis is unique only up to a rotation within the span: callers use
    its span and its size.
    """
    c = np.asarray(candidates, dtype=float)
    if c.ndim != 2:
        raise InvalidInput("orthonormal_columns expects a matrix of column vectors")
    n, k = c.shape
    if k == 0:
        return np.zeros((n, 0))
    scale0 = float(np.max(np.linalg.norm(c, axis=0))) if scale is None else float(scale)
    if scale0 == 0.0:
        return np.zeros((n, 0))
    cut = (1e-12 if drop_tol is None else drop_tol) * scale0
    u, sv, _ = np.linalg.svd(c, full_matrices=False)
    return u[:, : int(np.count_nonzero(sv > cut))]


def orthonormal_complement(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(basis columns)."""
    b = np.asarray(basis, dtype=float)
    if b.ndim != 2:
        raise InvalidInput("orthonormal_complement expects a matrix of column vectors")
    n = b.shape[0]
    q = orthonormal_columns(b)
    resid = np.eye(n) - q @ q.T
    # The identity's unit columns set the scale; the residual's own largest
    # column must not, or pure roundoff would be promoted to directions.
    comp = orthonormal_columns(resid, drop_tol=1e-8, scale=1.0)
    expect = n - q.shape[1]
    if comp.shape[1] != expect:
        raise InvalidInput(
            f"complement rank {comp.shape[1]} does not match expected {expect}"
        )
    return comp


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


def invertible_left_factor(t, rank_tol_scale: float | None = None) -> np.ndarray:
    """Invertible U with U T equal to the projector onto the row space of T.

    T must be square. With F_r the eigenvectors of T^T T whose eigenvalues
    lambda_j clear the rank tolerance, F_perp the rest and W = T F_r, the
    factor is U = F_r diag(1/lambda_j) W^T + F_perp C^T, where C is an
    orthonormal basis of range(W)^perp. U sends each T f_j back to f_j and
    range(W)^perp isometrically onto span(F_perp); its singular values are
    1/sigma_j(T) and ones. A zero map yields the identity.
    """
    tm = as_linear_map(t)
    if tm.rows != tm.cols:
        raise DimError(f"map must be square, got {tm.rows} x {tm.cols}")
    gram = SymOperator(tm.entries.T @ tm.entries)
    dec = gram.decomposition(rank_tol_scale)
    if dec.rank == 0:
        return np.eye(tm.cols)
    f_r = dec.eigenvectors[:, : dec.rank]
    f_perp = dec.eigenvectors[:, dec.rank:]
    w = tm.entries @ f_r
    out = (f_r / dec.eigenvalues[: dec.rank]) @ w.T + f_perp @ orthonormal_complement(w).T

    resid = maxabs(out @ tm.entries - dec.range_projector_matrix())
    limit = LEFT_FACTOR_TOL * (1.0 + tm.norm())
    if resid > limit:
        raise InvalidInput(
            f"left factor residual {resid:.3e} exceeds {limit:.3e}; "
            "the map is too ill-conditioned for this construction"
        )
    sigma_min = float(np.linalg.norm(out, -2))
    if sigma_min <= LU_PIVOT_TOL * frob(out):
        raise InvalidInput(
            f"left factor is numerically singular (min singular value {sigma_min:.3e})"
        )
    return out
