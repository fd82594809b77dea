"""Deterministic property suites behind the `check` CLI subcommand.

Each suite replays the invariants of one module over randomized instances
and reports, per property, the worst residual seen against its tolerance.
Instances are synthesized with controlled spectra (orthogonal factors
times bounded eigenvalue draws, exact zeros for rank deficiency) so that
rank decisions are unambiguous and the stated tolerances are meaningful;
ranks themselves are drawn uniformly, degenerate cases included
(random_graded_instance also spreads the whitened map's singular values
over a chosen condition number). All randomness flows from the single
seed argument, so a report is a pure function of (suite, trials, seed,
rank_tol_scale).
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from .conditioning import (
    anova_check,
    condition,
    decompose,
    endomorphism_reduction,
    evaluate,
    lift_observation,
)
from .errors import InvalidInput
from .gaussian import (
    Gaussian,
    char_fn,
    independence_test,
    joint,
    pushforward,
    sample,
)
from .oracle import ginv_condition, mc_conditional_moments, mc_independence
from .regression import (
    extended_projection_delta,
    partial_out,
    partial_out_identity_check,
)
from .spectral import (
    SymOperator,
    _resolve_rank_tol_scale,
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

@dataclass(frozen=True)
class PropertyCheck:
    """Worst-case outcome of one property over all instances."""

    name: str
    passed: bool
    residual: float
    tolerance: float


@dataclass(frozen=True)
class CheckReport:
    suite: str
    trials: int
    seed: int
    rank_tol_scale: float
    properties: tuple[PropertyCheck, ...]
    wall_time_s: float

    @property
    def all_passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "rank_tol_scale": self.rank_tol_scale,
            "all_passed": self.all_passed,
            "wall_time_s": self.wall_time_s,
            "properties": [asdict(p) for p in self.properties],
        }


class _Worst:
    """Accumulate the worst residual-to-tolerance ratio across instances.

    A tolerance of zero means the property must hold exactly; a NaN
    residual counts as infinitely far off, so it fails.
    """

    def __init__(self, name: str):
        self.name = name
        self.ratio = 0.0
        self.residual = 0.0
        self.tolerance = 0.0
        self.seen = False

    def add(self, residual: float, tolerance: float) -> None:
        residual, tolerance = float(residual), float(tolerance)
        if tolerance == 0.0:
            ratio = 0.0 if residual == 0.0 else math.inf
        else:
            ratio = residual / tolerance
        ratio = math.inf if math.isnan(ratio) else ratio
        if not self.seen or ratio > self.ratio:
            self.ratio = ratio
            self.residual = residual
            self.tolerance = tolerance
        self.seen = True

    def result(self) -> PropertyCheck:
        return PropertyCheck(self.name, self.ratio <= 1.0, self.residual, self.tolerance)


# ---------------------------------------------------------------------------
# Instance generators. Spectra are synthesized, not emergent, so condition
# numbers stay bounded and rank is exact by construction.


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.diag(r).copy()
    d[d == 0.0] = 1.0
    return q * np.sign(d)


def random_symmetric(rng: np.random.Generator, n: int, scale: float = 2.0) -> np.ndarray:
    a = rng.uniform(-scale, scale, (n, n))
    return (a + a.T) / 2.0


def random_psd(
    rng: np.random.Generator, n: int, rank: int, low: float = 0.25, high: float = 4.0
) -> np.ndarray:
    q = random_orthogonal(rng, n)
    vals = np.zeros(n)
    vals[:rank] = rng.uniform(low, high, rank)
    a = (q * vals) @ q.T
    return (a + a.T) / 2.0


def random_map(
    rng: np.random.Generator, m: int, n: int, rank: int, low: float = 0.3, high: float = 3.0
) -> np.ndarray:
    if m == 0:
        return np.zeros((0, n))
    rank = min(rank, m, n)
    u = random_orthogonal(rng, m)
    v = random_orthogonal(rng, n)
    core = np.zeros((m, n))
    core[np.arange(rank), np.arange(rank)] = rng.uniform(low, high, rank)
    return u @ core @ v.T


def random_gaussian(rng: np.random.Generator, n: int, rank: int) -> Gaussian:
    return Gaussian(rng.uniform(-2.0, 2.0, n), SymOperator(random_psd(rng, n, rank)))


def random_conditioning_instance(
    rng: np.random.Generator, n_max: int = 8, n_min: int = 1
) -> tuple[Gaussian, np.ndarray]:
    """Random (law, transform) pair: n <= n_max, ranks uniform, m uniform over [0, n]."""
    n = int(rng.integers(n_min, n_max + 1))
    rank_d = int(rng.integers(0, n + 1))
    g = random_gaussian(rng, n, rank_d)
    m = int(rng.integers(0, n + 1))
    rank_t = int(rng.integers(0, min(m, n) + 1)) if m else 0
    return g, random_map(rng, m, n, rank_t)


def random_graded_instance(
    rng: np.random.Generator, n_max: int = 8, kappa: float = 1e4
) -> tuple[Gaussian, np.ndarray]:
    """Random (law, transform) pair whose whitened map S = T D^(1/2) is ill conditioned.

    The nonzero singular values of S are geometrically spaced from c down
    to c / kappa, with c uniform in [0.3, 3], so rank decisions stay exact
    while S spans the whole condition range up to kappa. Ranks and m are
    drawn as in random_conditioning_instance; when S is nonzero, T also
    reads the null space of D, which conditioning must ignore.
    """
    n = int(rng.integers(1, n_max + 1))
    rank_d = int(rng.integers(0, n + 1))
    g = random_gaussian(rng, n, rank_d)
    m = int(rng.integers(0, n + 1))
    rank_s = int(rng.integers(0, min(m, rank_d) + 1)) if m else 0
    if rank_s == 0:
        return g, np.zeros((m, n))
    vals, vecs = np.linalg.eigh(g.cov.entries)
    q_r, q_0 = vecs[:, n - rank_d:], vecs[:, : n - rank_d]
    sigma = rng.uniform(0.3, 3.0) * np.geomspace(1.0, 1.0 / kappa, rank_s)
    w = random_orthogonal(rng, m)[:, :rank_s]
    v = q_r @ random_orthogonal(rng, rank_d)[:, :rank_s]
    # T = S D^(+1/2) on range(D), plus an arbitrary part on null(D).
    inv_root = (q_r / np.sqrt(vals[n - rank_d:])) @ q_r.T
    return g, (w * sigma) @ v.T @ inv_root + rng.uniform(-1.0, 1.0, (m, n)) @ q_0 @ q_0.T


def _mc_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


# ---------------------------------------------------------------------------
# Suites. Each body draws its instances from (rng, trials, seed) and records
# properties through prop(name), which opens one _Worst per property in the
# report's order; _suite runs it and registers it.

DEFAULT_TRIALS: dict[str, int] = {}
SUITES: dict[str, Callable[..., CheckReport]] = {}


def _suite(name: str, default_trials: int):
    """Register a suite body as SUITES[name], run through one argument rule and timer."""

    def register(body) -> Callable[..., CheckReport]:
        def check(
            trials: int | None = None, seed: int = 0, rank_tol_scale: float | None = None
        ) -> CheckReport:
            trials = default_trials if trials is None else trials
            if seed < 0 or trials < 1:
                raise InvalidInput(f"need seed >= 0 and trials >= 1, got seed {seed}, trials {trials}")
            scale = _resolve_rank_tol_scale(rank_tol_scale)
            props: list[_Worst] = []

            def prop(prop_name: str) -> _Worst:
                props.append(_Worst(prop_name))
                return props[-1]

            t0 = time.perf_counter()
            body(np.random.default_rng(seed), trials, seed, scale, prop)
            results = tuple(w.result() for w in props)
            return CheckReport(name, trials, seed, scale, results, time.perf_counter() - t0)

        check.__name__ = check.__qualname__ = body.__name__
        DEFAULT_TRIALS[name] = default_trials
        SUITES[name] = check
        return check

    return register


@_suite("spectral", 200)
def check_spectral(rng, trials: int, seed: int, rank_tol_scale: float, prop) -> None:
    recon = prop("eigen_reconstruction")
    resid = prop("eigen_residual")
    ortho = prop("eigen_orthonormal")
    img_norm = prop("eigenvalue_is_image_norm")
    comple = prop("projector_complementarity")
    idem = prop("projector_idempotent")
    sq = prop("sqrt_squares_back")
    half_ids = prop("half_inverse_identities")
    factor = prop("left_factor_projector")
    pivot = prop("left_factor_pivot_margin")

    for k in range(trials):
        n = int(rng.integers(2, 9))

        a = random_symmetric(rng, n)
        dec = eig_sym(a, rank_tol_scale)
        big = maxabs(dec.eigenvalues)
        recon.add(maxabs(dec.reconstruct() - (a + a.T) / 2.0), 1e-9 * (1.0 + frob(a)))
        col_resid = np.linalg.norm(
            ((a + a.T) / 2.0) @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues, axis=0
        )
        resid.add(float(np.max(col_resid)), 1e-10 * (1.0 + big))
        ortho.add(maxabs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(n)), 1e-12 * n)

        d = random_psd(rng, n, int(rng.integers(0, n + 1)))
        op = SymOperator(d)
        root = sqrt_psd(op, rank_tol_scale).entries
        inv_root = pinv_sqrt_psd(op, rank_tol_scale).entries
        proj = range_projector(op, rank_tol_scale).entries
        scale_d = 1e-9 * (1.0 + frob(d))
        sq.add(maxabs(root @ root - op.entries), scale_d)
        half_ids.add(maxabs(root @ inv_root - proj), scale_d)
        half_ids.add(maxabs(inv_root @ root - proj), scale_d)
        half_ids.add(maxabs(op.entries @ inv_root - root), scale_d)
        half_ids.add(maxabs(inv_root @ op.entries - root), scale_d)

        m = int(rng.integers(0, n + 1))
        rank_t = int(rng.integers(0, min(m, n) + 1)) if m else 0
        t = random_map(rng, m, n, rank_t)
        p_row = row_space_projector(t, rank_tol_scale)
        p_null = null_space_projector(t, rank_tol_scale)
        comple.add(maxabs(p_row.entries + p_null.entries - np.eye(n)), 1e-10)
        idem.add(maxabs(p_row.entries @ p_row.entries - p_row.entries), 1e-10)
        gram_dec = eig_sym(t.T @ t, rank_tol_scale)
        images = np.linalg.norm(t @ gram_dec.eigenvectors, axis=0) ** 2
        img_norm.add(
            maxabs(images - gram_dec.eigenvalues), 1e-9 * (1.0 + maxabs(gram_dec.eigenvalues))
        )

        # Square maps, alternating full rank and deficient by construction.
        deficient = k % 2 == 1
        rank_sq = int(rng.integers(0, n)) if deficient else n
        t_sq = random_map(rng, n, n, rank_sq)
        u = invertible_left_factor(t_sq, rank_tol_scale)
        factor.add(
            maxabs(u @ t_sq - row_space_projector(t_sq, rank_tol_scale).entries),
            1e-9 * (1.0 + frob(t_sq)),
        )
        pivot.add(1e-12 * frob(u) / lu_min_pivot(u), 1.0)


@_suite("conditioning", 100)
def check_conditioning(rng, trials: int, seed: int, rank_tol_scale: float, prop) -> None:
    indep = prop("split_independence")
    partition = prop("split_partition_identity")
    recon = prop("split_reconstruction")
    anova = prop("variance_decomposition")
    reduction = prop("square_reduction_equivalence")
    null_match = prop("reduction_null_space_match")
    char_adj = prop("pushforward_char_identity")
    marginals = prop("joint_marginals_exact")
    support = prop("sample_support")
    indep_sym = prop("independence_symmetry")
    decorr = prop("split_sample_decorrelation")
    tower = prop("conditional_mean_tower")
    stat_indep = prop("mean_variance_statistic_independence")
    suff = prop("location_sufficiency")

    for _ in range(trials):
        g, t = random_conditioning_instance(rng)
        n = g.dim
        d = g.cov.entries
        dec = decompose(g, t, rank_tol_scale)
        m_map = dec.independent_map
        indep.add(
            maxabs(t @ d @ m_map.T), 1e-9 * (1.0 + frob(t) * frob(d) * max(1.0, frob(m_map)))
        )

        law = condition(g, t, rank_tol_scale)
        partition.add(
            maxabs(m_map + law.gain + law.prior_null_projector.entries - np.eye(n)),
            1e-9 * (1.0 + frob(d)),
        )

        rows = sample(g, 40, _mc_seed(rng), rank_tol_scale)
        rebuilt = rows @ m_map.T + rows @ t.T @ dec.affine_gain.T + dec.affine_offset
        recon.add(
            maxabs(rows - rebuilt),
            1e-8 * (1.0 + maxabs(rows)) * (1.0 + frob(dec.affine_gain)),
        )
        null_d = law.prior_null_projector.entries
        support.add(maxabs(null_d @ (rows - g.mean).T), 1e-10)

        anova.add(anova_check(g, t, rank_tol_scale).residual, 1e-9 * (1.0 + frob(d)))

        t_hat = endomorphism_reduction(t)
        law_hat = condition(g, t_hat, rank_tol_scale)
        reduction.add(maxabs(law.gain - law_hat.gain), 1e-9 * (1.0 + frob(law.gain)))
        reduction.add(
            maxabs(law.cov.entries - law_hat.cov.entries), 1e-9 * (1.0 + frob(d))
        )
        null_match.add(
            maxabs(
                null_space_projector(t, rank_tol_scale).entries
                - null_space_projector(t_hat, rank_tol_scale).entries
            ),
            1e-9,
        )

        if t.shape[0] >= 1:
            u = rng.uniform(-1.0, 1.0, t.shape[0])
            lhs = char_fn(pushforward(g, t, rank_tol_scale), u)
            rhs = char_fn(g, t.T @ u)
            char_adj.add(abs(lhs - rhs), 1e-12)

            s_other = random_map(rng, int(rng.integers(1, n + 1)), n, int(rng.integers(0, n + 1)))
            jg = joint(g, s_other, t, rank_tol_scale)
            pf = pushforward(g, s_other, rank_tol_scale)
            marginals.add(maxabs(jg.marginal_first().mean - pf.mean), 0.0)
            marginals.add(maxabs(jg.marginal_first().cov.entries - pf.cov.entries), 0.0)
            one = independence_test(g, s_other, t)
            other = independence_test(g, t, s_other)
            indep_sym.add(0.0 if one.independent == other.independent else 1.0, 0.0)

    # Monte Carlo decorrelation of the split, on dedicated instances whose
    # ranks guarantee both halves genuinely vary.
    rng_dec = np.random.default_rng(seed + 3)
    for _ in range(3):
        n = int(rng_dec.integers(3, 7))
        g_dec = random_gaussian(rng_dec, n, int(rng_dec.integers(2, n + 1)))
        m_rows = int(rng_dec.integers(1, n))
        t_dec = random_map(rng_dec, m_rows, n, int(rng_dec.integers(1, m_rows + 1)))
        split = decompose(g_dec, t_dec, rank_tol_scale)
        n_mc = 20_000
        decorr.add(
            mc_independence(g_dec, split.independent_map, t_dec, n_mc, _mc_seed(rng_dec)),
            4.0 / np.sqrt(n_mc),
        )

    # Tower property of the conditional mean, on a fixed well-scaled law.
    rng_fix = np.random.default_rng(seed + 1)
    g_fix = Gaussian(
        rng_fix.uniform(-1.0, 1.0, 4),
        SymOperator(random_psd(rng_fix, 4, 4, low=0.3, high=1.5)),
    )
    t_fix = random_map(rng_fix, 2, 4, 2)
    law_fix = condition(g_fix, t_fix, rank_tol_scale)
    n_mc = 50_000
    rows = sample(g_fix, n_mc, _mc_seed(rng_fix), rank_tol_scale)
    cond_means = g_fix.mean + (rows - g_fix.mean) @ law_fix.gain.T
    tower.add(maxabs(cond_means.mean(axis=0) - g_fix.mean), 5.0 / np.sqrt(n_mc))

    # Sample mean and sample dispersion are independent under any law whose
    # covariance has the all-ones direction as an eigenvector.
    ones2 = np.ones((2, 2)) / 2.0
    for cov in (1.69 * np.eye(2), np.array([[2.0, 1.0], [1.0, 2.0]])):
        g_stat = Gaussian(np.zeros(2), SymOperator(cov))
        res = independence_test(g_stat, ones2, np.eye(2) - ones2)
        stat_indep.add(res.residual, 1e-10 * (1.0 + frob(cov)))
        n_mc = 50_000
        rows = sample(g_stat, n_mc, _mc_seed(rng_fix))
        mean_stat = rows.mean(axis=1)
        var_stat = ((rows - mean_stat[:, None]) ** 2).sum(axis=1)
        corr = np.corrcoef(mean_stat, var_stat)[0, 1]
        stat_indep.add(abs(float(corr)), 4.0 / np.sqrt(n_mc))

    # Conditioning a location family on the coordinate average: the law of
    # the vector given its mean statistic does not depend on the location.
    n_loc = 5
    sigma2 = 1.7**2
    j_row = np.ones((1, n_loc)) / n_loc
    pi_j = np.ones((n_loc, n_loc)) / n_loc
    laws = [
        condition(Gaussian(theta * np.ones(n_loc), SymOperator(sigma2 * np.eye(n_loc))), j_row,
                  rank_tol_scale)
        for theta in (-5.0, 0.0, 5.0)
    ]
    y_probe = rng_fix.uniform(-3.0, 3.0, n_loc)
    for law_loc in laws:
        suff.add(maxabs(law_loc.gain - pi_j), 1e-10)
        suff.add(maxabs(law_loc.cov.entries - sigma2 * (np.eye(n_loc) - pi_j)), 1e-10)
        suff.add(maxabs(law_loc.gain - laws[0].gain), 1e-12)
        suff.add(maxabs(law_loc.cov.entries - laws[0].cov.entries), 1e-12)
        suff.add(
            maxabs(evaluate(law_loc, y_probe).mean - evaluate(laws[0], y_probe).mean), 1e-12
        )


@_suite("oracle", 200)
def check_oracle(rng, trials: int, seed: int, rank_tol_scale: float, prop) -> None:
    agree = prop("conditional_agreement")
    lift = prop("lifted_observation_agreement")
    cutoff = prop("cutoff_stability")
    mc_prior = prop("mc_prior_moments")

    for _ in range(trials):
        g, t = random_conditioning_instance(rng)
        d = g.cov.entries
        tol = 1e-8 * (1.0 + frob(d))
        y_state = sample(g, 1, _mc_seed(rng), rank_tol_scale)[0]
        y_obs = t @ y_state

        law = condition(g, t, rank_tol_scale)
        via_spectral = evaluate(law, y_state)
        ginv = ginv_condition(g, t, y_obs, rank_tol_scale)
        agree.add(maxabs(via_spectral.mean - ginv.mean), tol)
        agree.add(maxabs(via_spectral.cov.entries - ginv.cov.entries), tol)

        lifted = lift_observation(g, t, y_obs, rank_tol_scale)
        via_lift = evaluate(law, lifted)
        lift.add(maxabs(via_lift.mean - ginv.mean), tol)
        lift.add(maxabs(via_lift.cov.entries - ginv.cov.entries), tol)

        if t.shape[0] >= 1:
            mid = SymOperator(t @ d @ t.T)
            mid_dec = mid.decomposition(rank_tol_scale)
            pos = mid_dec.eigenvalues[: mid_dec.rank]
            gap_ok = pos.size == 0 or float(np.min(pos)) > 1e3 * 10.0 * mid_dec.rank_tolerance
            if gap_ok:
                for notch in (rank_tol_scale * 10.0, rank_tol_scale / 10.0):
                    other = ginv_condition(g, t, y_obs, notch)
                    cutoff.add(maxabs(other.mean - ginv.mean), tol)
                    cutoff.add(maxabs(other.cov.entries - ginv.cov.entries), tol)

    # Binning with an all-zero map and infinite radius keeps every sample,
    # so the reported moments must be the prior's, up to CLT bands.
    g_prior = Gaussian(
        np.array([0.4, -1.1, 0.0]),
        SymOperator(random_psd(np.random.default_rng(seed + 2), 3, 3, low=0.25, high=1.0)),
    )
    n_mc = 20_000
    res = mc_conditional_moments(
        g_prior, np.zeros((1, 3)), np.zeros(1), n_mc, float("inf"), _mc_seed(rng)
    )
    band = 5.0 / np.sqrt(n_mc)
    mc_prior.add(maxabs(res.mean - g_prior.mean), band)
    mc_prior.add(maxabs(res.cov.entries - g_prior.cov.entries), band * (1.0 + frob(g_prior.cov.entries)))


@_suite("regression", 100)
def check_regression(rng, trials: int, seed: int, rank_tol_scale: float, prop) -> None:
    update = prop("projector_extension_update")
    identity = prop("partial_regression_identity")
    degen = prop("degenerate_partial_regression")
    cross = prop("coefficient_cross_check")

    for k in range(trials):
        # One-dimensional growth of a projection subspace.
        dim_v = int(rng.integers(0, 5))
        basis = rng.standard_normal((6, dim_v)) if dim_v else np.zeros((6, 0))
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        delta = extended_projection_delta(basis, x, y)
        q_small = orthonormal_columns(basis)
        q_big = orthonormal_columns(np.column_stack([basis, x]) if dim_v else x.reshape(-1, 1))
        direct = (q_big @ (q_big.T @ y)) - (q_small @ (q_small.T @ y))
        update.add(maxabs(delta - direct), 1e-10)

        # Partial regression identity on 4-dim laws, full rank and rank 3.
        rank_d = 4 if k % 2 == 0 else 3
        g = random_gaussian(rng, 4, rank_d)
        y_state = sample(g, 1, _mc_seed(rng), rank_tol_scale)[0]
        res = partial_out(g, rank_tol_scale)
        lhs_scale = 1.0 + abs(res.coefficient) * (1.0 + maxabs(y_state))
        identity.add(
            partial_out_identity_check(g, y_state, rank_tol_scale), 1e-8 * lhs_scale
        )

        # Same conditional moments through the generalized-inverse route.
        z_sel = np.eye(4)[2:, :]
        zc = ginv_condition(g, z_sel, y_state[2:], rank_tol_scale).cov.entries
        tol = 1e-8 * (1.0 + frob(g.cov.entries))
        cross.add(abs(res.cond_var_x - zc[0, 0]), tol)
        cross.add(abs(res.cond_cov_xy - zc[0, 1]), tol)

    # Covariance built so the X direction of the square root already lies
    # in the span of the Z directions: the conditional variance of X
    # vanishes and the coefficient must be a hard zero.
    for _ in range(max(1, trials // 20)):
        u = np.array([1.0, 0.0, -1.0, -1.0])
        u = u / np.linalg.norm(u)
        comp = orthonormal_columns(np.eye(4) - np.outer(u, u))
        vals = rng.uniform(0.5, 2.0, comp.shape[1])
        f = (comp * vals) @ comp.T
        dd = f @ f
        g_deg = Gaussian(rng.uniform(-1.0, 1.0, 4), SymOperator(dd))
        res = partial_out(g_deg, rank_tol_scale)
        degen.add(abs(res.coefficient), 0.0)
        degen.add(0.0 if res.degenerate else 1.0, 0.0)
        y_state = sample(g_deg, 1, _mc_seed(rng), rank_tol_scale)[0]
        degen.add(partial_out_identity_check(g_deg, y_state, rank_tol_scale), 1e-8)


def run_suite(
    name: str,
    trials: int | None = None,
    seed: int = 0,
    rank_tol_scale: float | None = None,
) -> list[CheckReport]:
    """Run one named suite, or all of them; always returns a list of reports."""
    if name == "all":
        return [fn(trials, seed, rank_tol_scale) for fn in SUITES.values()]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return [SUITES[name](trials, seed, rank_tol_scale)]
