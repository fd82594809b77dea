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
LEFT_FACTOR_TOL = 1e-9              # scaled by 1 + ||T|| / max|T|
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

    Taken of a / max|a|, so squares neither overflow nor underflow; x.dot(x)
    is the sum np.linalg.norm forms, without its per-call dispatch.
    """
    a = np.asarray(a)
    if not (big := maxabs(a)):
        return 0.0
    x = (a / big).ravel(order="K")
    return big * math.sqrt(x.dot(x))


def maxabs(a) -> float:
    a = np.abs(a)
    return float(a.max()) if a.size else 0.0


def _admit(a, what: str, ndim: int | None = 1, size: int | None = None, where: str = "") -> np.ndarray:
    """The one admission rule for an array argument: real numbers, its shape, finite.

    ndim=2 asks for a matrix; ndim=1 flattens a to a vector, of size entries if size is
    given (where says what sets it, {} for size); ndim=None keeps a's shape. A fault
    raises InvalidInput, a wrong size DimError; their text is formed only then.
    """
    try:
        out = np.asarray(a)
        if out.dtype.kind not in "biufO":
            raise TypeError(out.dtype)
        out = out.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"{what} is not numeric") from exc
    if ndim == 1:
        out = out.reshape(-1)
        if size is not None and out.size != size:
            raise DimError(f"{what} has dim {out.size} but {where.format(size)}")
    elif ndim == 2 and out.ndim != 2:
        raise InvalidInput(f"{what} must be a 2-d matrix, got ndim={out.ndim}")
    if not np.isfinite(out).all():
        raise InvalidInput(f"{what} has non-finite entries")
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
        a = _admit(self.entries, "SymOperator entries", 2)
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
    return SymOperator(a.entries if isinstance(a, Projector) else a)


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Dense real matrix viewed as a map R^cols -> R^rows.

    rows may be zero (a map into the trivial space); cols may not.
    """

    entries: np.ndarray
    rows: int = field(init=False)
    cols: int = field(init=False)

    def __post_init__(self):
        a = _admit(self.entries, "LinearMap entries", 2)
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


def _zero_padded(a: np.ndarray, size: int = 0) -> LinearMap:
    """The m x n matrix a, zero-padded to a square k x k map, k = max(m, n, size).

    One full SVD W Sigma V^T of a at its own shape gives the padded map's
    SVD by identity completion: W (+) I_{k-m}, sigma followed by
    k - min(m, n) exact zeros, and V^T (+) I_{k-n}. It is held where
    LinearMap.svd caches, so every reader of the padded map shares it.
    An empty a is the zero map, with identity singular vectors.
    """
    m, n = a.shape
    k = max(m, n, size)
    entries = np.zeros((k, k))
    entries[:m, :n] = a
    tm = LinearMap(entries)
    w, sv, vt = np.eye(k), np.zeros(k), np.eye(k)
    if a.size:
        w[:m, :m], sv[: min(m, n)], vt[:n, :n] = np.linalg.svd(a, full_matrices=True)
    tm.__dict__["svd"] = (w, sv, vt)
    return tm


def _map_entries(a) -> np.ndarray:
    # The entries as_linear_map reads, admitted but not yet copied; a 1-d array is one row.
    if isinstance(a, (LinearMap, SymOperator, Projector)):
        return a.entries
    arr = _admit(a, "LinearMap entries", None)
    return arr.reshape(1, -1) if arr.ndim == 1 else arr


def as_linear_map(a) -> LinearMap:
    return a if isinstance(a, LinearMap) else LinearMap(_map_entries(a))


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
        p = _admit(self.entries, "Projector entries", 2)
        if p.shape[0] != p.shape[1]:
            raise InvalidInput(f"Projector must be square, got shape {p.shape}")
        if maxabs(p - p.T) > PROJECTOR_SYM_TOL:
            raise InvalidInput("projector is not symmetric within 1e-12")
        if maxabs(p @ p - p) > PROJECTOR_IDEMPOTENT_TOL:
            raise InvalidInput("projector is not idempotent within 1e-10")
        trace = float(p.trace())
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
        # A record of eigenpairs eig_sym has certified finite: frozen, not admitted again.
        for name in ("eigenvalues", "eigenvectors"):
            arr = np.asarray(getattr(self, name))
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
    _certify_orthonormal(vecs)
    _certify_residual(op.entries, vals, vecs)
    return _eig_cut(vals, vecs, rank_tol_scale)


# Cheap accuracy certificates for eigenpairs; failure means the solver did not
# reach its advertised accuracy, which callers must not paper over. A NaN
# defect is outside every limit.
def _certify_orthonormal(vecs: np.ndarray) -> None:
    n = vecs.shape[1]
    gram = vecs.T @ vecs
    gram.flat[:: n + 1] -= 1.0
    if not (defect := maxabs(gram)) <= ORTHONORMALITY_TOL * n:
        raise InvalidInput(f"eigenvector columns lost orthonormality: {defect:.3e}")


def _certify_residual(a: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> None:
    largest = maxabs(vals)
    # Column norms in units of the spectrum, so residuals past 1e154 do not overflow.
    unit = largest or 1.0
    r = (a @ vecs - vecs * vals) / unit
    worst = unit * float(np.sqrt(np.add.reduce(r * r, axis=0)).max(initial=0.0))
    # Floored at the smallest normal float: subnormal residuals are rounding, not solver error.
    limit = max(EIG_RESIDUAL_TOL * largest, float(np.finfo(float).tiny))
    if not worst <= limit:
        raise InvalidInput(f"eigenpair residual {worst:.3e} exceeds {limit:.3e}")


def _eig_cut(vals: np.ndarray, vecs: np.ndarray, rank_tol_scale) -> SpectralDecomposition:
    # The one rank cut of an operator's certified eigenpairs (vals descending):
    # dim n, size max|lambda|, which sits at one end.
    tol = _cutoff(rank_tol_scale, vals.size, float(max(abs(vals[0]), abs(vals[-1]))))
    return SpectralDecomposition(vals, vecs, int(np.count_nonzero(vals > tol)), tol)


def _psd_decomposition(a, rank_tol_scale: float | None, what: str = "operator", ref: float = 0.0):
    # The one PSD gate. ref is the magnitude of the computation that produced
    # the matrix: a product of O(ref) factors may be zero up to roundoff
    # scaled by ref, which the matrix's own (vanishing) spectrum cannot reveal.
    op = as_sym_operator(a)
    dec = op.decomposition(rank_tol_scale)
    low = float(dec.eigenvalues[-1])
    tol = _cutoff(rank_tol_scale, op.dim, max(abs(float(dec.eigenvalues[0])), abs(low)), ref)
    if low < -tol:
        raise NotPositive(f"{what} has eigenvalue {low:.3e} below -{tol:.3e}")
    return dec


def _from_eigenpairs(vals: np.ndarray, vecs: np.ndarray) -> SymOperator:
    # The one build of an operator from eigenpairs (vals descending): V diag(vals) V^T, which SymOperator
    # symmetrizes, its vectors and pairs on the entries certified and its cache seeded: never factored.
    _certify_orthonormal(vecs)
    op = SymOperator((vecs * vals) @ vecs.T)
    _certify_residual(op.entries, vals, vecs)
    op._decomp_cache[DEFAULT_RANK_TOL_SCALE] = _eig_cut(vals, vecs, None)
    return op


def _zeros_on(vecs: np.ndarray) -> SymOperator:
    # The exact zero operator on eigenvectors already certified, its cache seeded: the
    # residual of exact zeros is exactly 0, so neither certificate is run again.
    op = SymOperator(np.zeros((vecs.shape[0], vecs.shape[0])))
    op._decomp_cache[DEFAULT_RANK_TOL_SCALE] = _eig_cut(np.zeros(vecs.shape[0]), vecs, None)
    return op


def _psd_clamped(a, rank_tol_scale: float | None, ref: float = 0.0) -> SymOperator:
    # The one PSD clamp of a computed covariance, given as entries or as an operator carrying
    # certified eigenpairs, whose gate then solves nothing. The gate raises below the roundoff
    # band of products of size ref. Negative eigenvalues become exact zeros; no band zeroes a
    # positive one, which may be exact. An unclamped operator is returned untouched; a clamped
    # one carries the gate's eigenvectors.
    op = as_sym_operator(a)
    dec = _psd_decomposition(op, rank_tol_scale, "matrix", ref)
    vals = np.maximum(dec.eigenvalues, 0.0)
    return op if np.array_equal(vals, dec.eigenvalues) else _from_eigenpairs(vals, dec.eigenvectors)


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
    c = tm.entries if tm is not None else _admit(candidates, "LinearMap entries", 2)
    if min(c.shape) == 0:
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
    m = _admit(a, "lu_min_pivot's matrix", None).copy()
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
    residual bound scales with max(||T||, ref) in units of T's largest
    entry, since U T - P_row does not depend on T's scale. Invertibility is
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
    limit = LEFT_FACTOR_TOL * (1.0 + max(tm.norm(), ref) / maxabs(tm.entries))
    # A NaN residual or defect, as from 1 / sigma overflowing, fails both checks.
    if not resid <= limit:
        raise InvalidInput(
            f"left factor residual {resid:.3e} exceeds {limit:.3e}; "
            "the map is too ill-conditioned for this construction"
        )
    # With E = U X - I and ||E||_F < 1, sigma_min(U) >= (1 - ||E||_F) / ||X||_F
    # (Golub & Van Loan, 2.3): a bound never above the true sigma_min.
    inverse = (w * d) @ vt
    defect = frob(out @ inverse - np.eye(tm.cols))
    bound = (1.0 - defect) / frob(inverse)
    if not (defect < 1.0 and bound > LU_PIVOT_TOL * frob(out)):
        raise InvalidInput(
            f"left factor is numerically singular (min singular value bound {bound:.3e})"
        )
    return out
