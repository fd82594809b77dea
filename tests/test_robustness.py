"""Ill-conditioned, rescaled and extreme-magnitude maps.

A singular value of S = T D^(1/2) counts as nonzero when it exceeds
rank_tol_scale * max(m, n) * max(sigma_max, ||T|| ||D^(1/2)||) * eps,
however small it is in absolute terms. So the law must be exact for every
map whose singular values clear that cut: small ones, rescaled rows, and
entries near the ends of the floating-point range; and a row of T that
leaves only rounding noise in S must count as no observation. Each test
here checks a closed form or an invariance of the law, not a second
formula. Inputs that no finite law answers (a non-finite scale, an array
argument that is not finite, is text or is ragged, a negative seed, no
trials) raise InvalidInput at the library call and exit 2 at the CLI.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscond.checks import (
    check_conditioning,
    check_oracle,
    check_regression,
    check_spectral,
    random_conditioning_instance,
    random_gaussian,
    random_graded_instance,
    random_map,
    run_suite,
)
from gausscond.cli import main
from gausscond.conditioning import (
    ConditionalLaw,
    _consistent,
    anova_check,
    condition,
    decompose,
    endomorphism_reduction,
    evaluate,
    lift_observation,
)
from gausscond.errors import DimError, InconsistentObservation, InvalidInput
from gausscond.gaussian import Gaussian, JointGaussian, char_fn, independence_test, joint, pushforward, sample
from gausscond.io import load_matrix, load_model, load_vector
from gausscond.oracle import ginv_condition, mc_conditional_moments
from gausscond.regression import extended_projection_delta, partial_out_identity_check
from gausscond.spectral import (
    LinearMap,
    Projector,
    SymOperator,
    eig_sym,
    frob,
    invertible_left_factor,
    lu_min_pivot,
    maxabs,
    orthonormal_columns,
    row_space_projector,
    sqrt_psd,
)


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


@pytest.mark.parametrize("kappa", (1e8, 1e10, 1e12))
def test_lift_is_exact_where_the_left_factor_fails(kappa):
    # At these condition numbers decompose's left factor U fails its
    # certificate on some draws; the lift reads S^+ off the whitening's SVD,
    # never U, and returns a state the law maps to itself on every draw.
    for seed in range(300):
        g, t = random_graded_instance(np.random.default_rng(seed), kappa=kappa)
        if not np.any(t):
            continue
        state = lift_observation(g, t, t @ sample(g, 1, seed)[0], strict=True)
        gap = maxabs(evaluate(condition(g, t), state).mean - state)
        assert gap <= 1e-8 * (1.0 + maxabs(state)), (kappa, seed)


@pytest.mark.parametrize("s", (1e-200, 1e-12, 1e-9, 1.0, 1e12))
def test_strict_lift_rejects_an_unattainable_observation_at_any_scale(s):
    # T Y has two equal coordinates, so s [1, -1] is never attainable.
    t = np.array([[1.0, 0.0], [1.0, 0.0]]) * s
    with pytest.raises(InconsistentObservation, match="misses the attainable set"):
        lift_observation(_law(np.zeros(2), np.eye(2)), t, np.array([1.0, -1.0]) * s, strict=True)


@pytest.mark.parametrize("s", (1e-12, 1.0, 1e12))
def test_strict_lift_accepts_an_observation_far_below_the_mean(s):
    # obs = 0 is attainable, and y* = mu + D^(1/2) S^+ (0 - T mu) is 0 up to
    # the rounding of T mu, which ||y*|| does not measure.
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        g = random_gaussian(rng, n, n)
        gs = _law(g.mean * s, g.cov.entries * s * s)
        state = lift_observation(gs, np.eye(n), np.zeros(n), strict=True)
        assert maxabs(state) <= 1e-10 * s * maxabs(g.mean), (seed, n)
    # One observed coordinate of a diagonal law, with zero mean elsewhere.
    g = _law(np.array([1.0, 0.0, 0.0]) * s, np.diag([2.0, 0.5, 3.0]) * s * s)
    lift_observation(g, np.array([[1.0, 0.0, 0.0]]), np.zeros(1), strict=True)


@pytest.mark.parametrize("s", (1e-200, 1e-9, 1.0, 1e12))
def test_support_check_does_not_depend_on_units(s):
    # The support is mu + span(e1) at every s: s [.5, 0] lies in it, and
    # s [.5, .5] leaves it by half its size.
    law = condition(_law(np.array([-1.0, 0.0]) * s, np.diag([s, 0.0])), np.zeros((0, 2)))
    evaluate(law, np.array([0.5, 0.0]) * s, check_support=True)
    with pytest.raises(InconsistentObservation, match="leaves the support"):
        evaluate(law, np.array([0.5, 0.5]) * s, check_support=True)


def test_support_check_past_the_float_limit_fails_closed(tmp_path):
    # The state leaves the support by 1, but ||y|| + ||mu|| overflows, so no
    # tolerance can be stated: the check raises rather than accepts.
    law = condition(_law([1.5e308, 0.0], np.diag([1.0, 0.0])), np.zeros((0, 2)))
    with pytest.raises(InvalidInput, match="tolerance overflows"):
        evaluate(law, [1.5e308, 1.0], check_support=True)
    # The strict lift's tolerance overflows with T mu: exit 2, not a lift. At
    # unit mean the same unattainable observation is a support violation.
    t = [[1.0, 0.0], [0.0, 2.0]]
    for mean, code in ((1e308, 2), (1.0, 4)):
        p = _files(tmp_path, model={"mean": [mean, 0.0], "cov": [[1.0, 0.0], [0.0, 0.0]]},
                   t=t, y=[mean, 5.0])
        assert main(["condition", p["model"], p["t"], p["y"], "--strict-support"]) == code, mean


@pytest.mark.parametrize("kind", ("plain", 1e8, 1e12))
def test_consistency_checks_accept_every_valid_state_at_any_scale(kind):
    # Y ~ N(j mu, j^2 D): the sampled state, its observation and the lifted
    # state are consistent at every j, and the checks must say so.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        if kind == "plain":
            g, t = random_conditioning_instance(rng)
        else:
            g, t = random_graded_instance(rng, kappa=kind)
        for j in (1e-12, 1.0, 1e12):
            gj = _law(g.mean * j, g.cov.entries * j * j)
            y = sample(gj, 1, seed)[0]
            state = lift_observation(gj, t, t @ y, strict=True)
            law = condition(gj, t)
            evaluate(law, state, check_support=True)
            evaluate(law, y, check_support=True)


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


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=60, deadline=None)
def test_repeated_rows_leave_the_law_unchanged(seed, graded):
    # [T; T] has the null space of T, and T y determines [T; T] y: observing
    # every row twice observes nothing new, for the law, the split and the lift.
    rng = np.random.default_rng(seed)
    g, t = (random_graded_instance if graded else random_conditioning_instance)(rng)
    tt = np.vstack([t, t])
    _same_law(condition(g, tt), condition(g, t), g.cov.entries, seed)
    err, bound = _rebuild_error(decompose(g, tt), tt, sample(g, 30, seed))
    assert err <= bound
    y = sample(g, 1, seed)[0]
    ref_state = lift_observation(g, t, t @ y)
    state = lift_observation(g, tt, tt @ y)
    assert maxabs(state - ref_state) <= 1e-9 * (1.0 + maxabs(ref_state))


def test_covariance_near_the_float_limit_is_rejected_cleanly(tmp_path):
    # ||D^(1/2)||_F^2 = trace D exceeds the float range, so no roundoff floor
    # can be stated for the conditional covariance: InvalidInput, CLI exit 2,
    # never a bare OverflowError. The lift and the split need no such floor.
    g = _law([0.0, 0.0], np.diag([1.7e308, 1.7e308]))
    t = np.array([[1.0, 0.0]])
    with pytest.raises(InvalidInput):
        condition(g, t)
    assert maxabs(lift_observation(g, t, [2.0]) - [2.0, 0.0]) <= 1e-12
    assert maxabs(decompose(g, t).independent_map - np.diag([0.0, 1.0])) <= 1e-12
    paths = []
    for name, obj in (("model", {"mean": [0.0, 0.0], "cov": np.diag([1.7e308] * 2).tolist()}),
                      ("t", t.tolist()), ("y", [2.0])):
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        paths.append(str(tmp_path / f"{name}.json"))
    assert main(["condition", *paths]) == 2


@pytest.mark.parametrize("strict", (False, True))
def test_lift_that_overflows_is_rejected(strict):
    # T mu = 1e320 overflows, so the computed lift is NaN though the exact one is
    # (0, 0): no mode may return it, none may warn on the way, and no NaN residual
    # may pass the strict check.
    g = _law([1e160, 0.0], np.eye(2))
    with pytest.raises(InvalidInput, match="not finite"):
        lift_observation(g, [[1e160, 0.0]], [0.0], strict=strict)
    with pytest.raises(InconsistentObservation):
        _consistent(np.array([math.nan, 0.0]), 1.0, 1.0, 2, "NaN residual")


def test_strict_lift_whose_residual_overflows_fails_closed():
    # T reads only null(D), so rank S = 0 and the lift is mu, but T mu = 1e400
    # overflows: the strict residual is not finite and the check refuses, with no
    # RuntimeWarning on the way.
    g = _law([1e200, 0.0], np.diag([0.0, 1.0]))
    with pytest.raises(InvalidInput, match="too large to check"):
        lift_observation(g, [[1e200, 0.0]], [0.0], strict=True)


@pytest.mark.parametrize("seed", (137, 205, 245))
def test_split_that_overflows_fails_closed(seed):
    # At T * 1e-300 the exact A = D^(1/2) S^+ overflows, while the law and the
    # lift stay finite: decompose raises, with no RuntimeWarning on the way.
    g, t = random_graded_instance(np.random.default_rng(seed), kappa=1e8)
    t = t * 1e-300
    assert np.isfinite(condition(g, t).gain).all()
    assert np.isfinite(lift_observation(g, t, t @ sample(g, 1, seed)[0])).all()
    with pytest.raises(InvalidInput, match="split is not finite"):
        decompose(g, t)


def test_split_whose_offset_overflows_fails_closed():
    # A finite A with an offset past the float limit: the exact offset is -6e308.
    with pytest.raises(InvalidInput, match="split is not finite"):
        decompose(_law([1e308] * 3, np.diag([1.0, 0.0, 0.0])), [[1.0, 3.0, 3.0]])


@pytest.mark.parametrize("t", (np.zeros((0, 2)), np.zeros((1, 2))), ids=("no-rows", "zero-row"))
def test_split_that_observes_nothing_and_overflows_fails_closed(t):
    # rank S = 0, so the offset is P_null(D) mu alone, whose exact second entry is -2.04e308.
    v = np.array([1.0, 0.5])
    with pytest.raises(InvalidInput, match="split is not finite"):
        decompose(_law([1.7e308, -1.7e308], np.outer(v, v)), t)


@pytest.mark.parametrize("seed", (137, 205, 245))
def test_cli_decompose_that_overflows_exits_2(tmp_path, capsys, seed):
    # Exit 2 and no output, rather than Infinity and NaN, which are not JSON.
    g, t = random_graded_instance(np.random.default_rng(seed), kappa=1e8)
    p = _files(tmp_path, model={"mean": g.mean.tolist(), "cov": g.cov.entries.tolist()},
               t=(t * 1e-300).tolist())
    assert main(["decompose", p["model"], p["t"]]) == 2
    assert capsys.readouterr().out == ""


def test_cli_lift_that_overflows_exits_2(tmp_path, capsys):
    # T mu overflows: exit 2 and no output, with no RuntimeWarning on the way,
    # which the suite's error::RuntimeWarning filter would turn into a traceback.
    p = _files(tmp_path, model={"mean": [1e160, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
               t=[[1e160, 0.0]], obs=[0.0])
    assert main(["condition", p["model"], p["t"], p["obs"]]) == 2
    assert capsys.readouterr().out == ""


BIVARIATE = {"mean": [0.0, 0.0], "cov": [[1.0, 0.5], [0.5, 1.0]]}


def _files(tmp_path, **objs):
    for name, obj in objs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    return {name: str(tmp_path / f"{name}.json") for name in objs}


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_non_finite_rank_tol_scale_is_rejected(tmp_path, bad):
    # A NaN or infinite cut would make every rank 0: a point mass at the prior mean.
    g, t = _law(BIVARIATE["mean"], BIVARIATE["cov"]), np.array([[1.0, 0.0]])
    for call in (lambda: condition(g, t, bad), lambda: sample(g, 1, 0, bad)):
        with pytest.raises(InvalidInput, match="rank_tol_scale must be positive and finite"):
            call()
    p = _files(tmp_path, model=BIVARIATE, field={**BIVARIATE, "rank_tol_scale": bad}, t=[[1.0, 0.0]], y=[2.0])
    assert main(["condition", p["model"], p["t"], p["y"], "--rank-tol-scale", str(bad)]) == 2
    assert main(["condition", p["field"], p["t"], p["y"]]) == 2


NOT_A_NUMBER = (True, "1e3", "100", [100.0])


def test_boolean_rank_tol_scale_field_is_rejected(tmp_path):
    # Only a JSON number, or null, is a scale: read as numbers, true would be 1.0
    # and the string "1e3" 1000.
    for field in NOT_A_NUMBER:
        p = _files(tmp_path, field={**BIVARIATE, "rank_tol_scale": field})
        with pytest.raises(InvalidInput, match="rank_tol_scale must be a positive finite number"):
            load_model(p["field"])


def test_boolean_rank_tol_scale_field_exits_2(tmp_path, capsys):
    for field in NOT_A_NUMBER:
        p = _files(tmp_path, field={**BIVARIATE, "rank_tol_scale": field}, t=[[1.0, 0.0]], y=[2.0])
        assert main(["condition", p["field"], p["t"], p["y"]]) == 2, field
        assert "rank_tol_scale" in capsys.readouterr().err


def test_null_or_integer_rank_tol_scale_field_is_read(tmp_path):
    p = _files(tmp_path, null={**BIVARIATE, "rank_tol_scale": None},
               int={**BIVARIATE, "rank_tol_scale": 1000}, big={**BIVARIATE, "rank_tol_scale": 10**400})
    assert load_model(p["null"])[1]["rank_tol_scale"] == 100.0
    assert load_model(p["int"])[1]["rank_tol_scale"] == 1000.0
    with pytest.raises(InvalidInput, match="rank_tol_scale"):
        load_model(p["big"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_non_finite_observation_or_state_is_rejected(tmp_path, bad):
    g, t = _law(BIVARIATE["mean"], BIVARIATE["cov"]), np.array([[1.0, 0.0]])
    for call in (lambda: lift_observation(g, t, [bad], strict=True),
                 lambda: lift_observation(g, t, [bad]),
                 lambda: ginv_condition(g, t, [bad])):
        with pytest.raises(InvalidInput, match="observation has non-finite entries"):
            call()
    with pytest.raises(InvalidInput, match="state has non-finite entries"):
        evaluate(condition(g, t), [bad, 0.0], check_support=True)
    p = _files(tmp_path, model=BIVARIATE, t=[[1.0, 0.0]], y=[bad])
    assert main(["condition", p["model"], p["t"], p["y"], "--strict-support"]) == 2


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_non_finite_map_or_operator_from_a_library_call_is_rejected(bad):
    # The CLI stops these in its loader; a library call reaches the types' own check.
    g = _law(BIVARIATE["mean"], BIVARIATE["cov"])
    for call in (lambda: condition(g, [[bad, 0.0]]), lambda: SymOperator([[bad]])):
        with pytest.raises(InvalidInput, match="non-finite entries"):
            call()


_G = _law(BIVARIATE["mean"], BIVARIATE["cov"])
_T = np.array([[1.0, 0.0]])
_LAW = condition(_G, _T)
_G3 = _law([0.0, 0.0, 0.0], np.eye(3))


def _from_file(tmp_path, loader, obj):
    path = tmp_path / "arg.json"
    path.write_text(json.dumps(obj))
    return loader(str(path))


# (entry point, a valid argument, the call with that argument replaced, and for a
# sized vector the DimError message of one entry too many).
ADMITTED = (
    ("SymOperator", [[1.0, 0.0], [0.0, 1.0]], lambda a: SymOperator(a), None),
    ("LinearMap", [[1.0, 0.0]], lambda a: LinearMap(a), None),
    ("Projector", [[1.0, 0.0], [0.0, 0.0]], lambda a: Projector(a, 1), None),
    ("Gaussian.mean", [0.0, 0.0], lambda a: Gaussian(a, SymOperator(np.eye(2))),
     "mean has dim 3 but cov has dim 2"),
    ("Gaussian.cov", [[1.0, 0.0], [0.0, 1.0]], lambda a: Gaussian([0.0, 0.0], a), None),
    ("JointGaussian.mean", [0.0, 0.0], lambda a: JointGaussian(a, SymOperator(np.eye(2)), 1),
     "mean has dim 3 but cov has dim 2"),
    ("ConditionalLaw.prior_mean", [0.0, 0.0],
     lambda a: ConditionalLaw(a, _LAW.gain, _LAW.cov, _LAW.prior_null_projector), None),
    ("ConditionalLaw.gain", [[1.0, 0.0], [0.5, 0.0]],
     lambda a: ConditionalLaw(_LAW.prior_mean, a, _LAW.cov, _LAW.prior_null_projector), None),
    ("condition", [[1.0, 0.0]], lambda a: condition(_G, a), None),
    ("decompose", [[1.0, 0.0]], lambda a: decompose(_G, a), None),
    ("pushforward", [[1.0, 0.0]], lambda a: pushforward(_G, a), None),
    ("joint", [[1.0, 0.0]], lambda a: joint(_G, a, _T), None),
    ("independence_test", [[1.0, 0.0]], lambda a: independence_test(_G, _T, a), None),
    ("lift_observation", [0.5], lambda a: lift_observation(_G, _T, a),
     "observation has dim 2 but the map outputs dim 1"),
    ("lift_observation.strict", [0.5], lambda a: lift_observation(_G, _T, a, strict=True),
     "observation has dim 2 but the map outputs dim 1"),
    ("evaluate", [0.5, 0.0], lambda a: evaluate(_LAW, a), "state has dim 3 but the law lives on R^2"),
    ("char_fn", [1.0, 0.0], lambda a: char_fn(_G, a), "argument has dim 3 but the law lives on R^2"),
    ("ginv_condition", [0.5], lambda a: ginv_condition(_G, _T, a),
     "observation has dim 2 but the map outputs dim 1"),
    ("mc_conditional_moments", [0.5], lambda a: mc_conditional_moments(_G, _T, a, 200, 10.0, 0),
     "observation has dim 2 but the map outputs dim 1"),
    ("eig_sym", [[2.0, 0.0], [0.0, 1.0]], lambda a: eig_sym(a), None),
    ("sqrt_psd", [[2.0, 0.0], [0.0, 1.0]], lambda a: sqrt_psd(a), None),
    ("row_space_projector", [[1.0, 0.0]], lambda a: row_space_projector(a), None),
    ("orthonormal_columns", [[1.0], [0.0]], lambda a: orthonormal_columns(a), None),
    ("invertible_left_factor", [[1.0, 0.0], [0.0, 1.0]], lambda a: invertible_left_factor(a), None),
    ("lu_min_pivot", [[1.0, 0.0], [0.0, 1.0]], lambda a: lu_min_pivot(a), None),
    ("extended_projection_delta.basis", [[1.0, 0.0, 0.0]],
     lambda a: extended_projection_delta(a, [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]), None),
    ("extended_projection_delta.x", [0.0, 1.0, 0.0],
     lambda a: extended_projection_delta([[1.0, 0.0, 0.0]], a, [1.0, 1.0, 1.0]),
     "x has dim 4 but y has dim 3"),
    ("extended_projection_delta.y", [1.0, 1.0, 1.0],
     lambda a: extended_projection_delta([[1.0, 0.0, 0.0]], [0.0, 1.0, 0.0], a),
     "x has dim 3 but y has dim 4"),
    ("partial_out_identity_check", [0.1, 0.2, 0.3], lambda a: partial_out_identity_check(_G3, a),
     "state has dim 4 but the law lives on R^3"),
)


@pytest.mark.parametrize("name, valid, call, size_msg", ADMITTED, ids=[row[0] for row in ADMITTED])
def test_every_array_argument_is_admitted_by_one_rule(name, valid, call, size_msg):
    # A non-finite entry, text (also text that reads as a number) and a ragged list
    # are InvalidInput at every entry point; one entry too many is a DimError.
    call(valid)
    good = np.array(valid, dtype=float)
    bad_args = [np.where(np.arange(good.size).reshape(good.shape) == 0, bad, good)
                for bad in (math.nan, math.inf, -math.inf)]
    bad_args += ["a", good.astype(str).tolist(), [[1.0], [1.0, 2.0]]]
    for bad in bad_args:
        with pytest.raises(InvalidInput):
            call(bad)
    if size_msg is not None:
        with pytest.raises(DimError, match=re.escape(size_msg)):
            call(list(valid) + [0.0])


@pytest.mark.parametrize("loader, wrap", ((load_vector, lambda row: row), (load_matrix, lambda row: [row])))
def test_loaded_arrays_are_admitted_by_the_same_rule(tmp_path, loader, wrap):
    _from_file(tmp_path, loader, wrap([0.5, 1.0]))
    for bad in ([math.nan, 1.0], [-math.inf, 1.0], ["a", 1.0], ["0.5", "1.0"], [[0.5], [0.5, 1.0]]):
        with pytest.raises(InvalidInput, match="arg.json: "):
            _from_file(tmp_path, loader, wrap(bad))


def test_products_past_the_float_limit_are_rejected_without_a_warning():
    # Each is a finite problem whose product or tolerance overflows: no raw
    # OverflowError, no wrong verdict and no RuntimeWarning before the refusal.
    tiny = _law([0.0, 0.0], np.diag([1e-300, 1.0]))
    big, unit = np.array([[1e160, 0.0]]), _law([0.0, 0.0], np.eye(2))
    for call in (lambda: pushforward(tiny, big), lambda: joint(tiny, big, [[0.0, 1.0]]),
                 lambda: independence_test(unit, big, big),
                 lambda: char_fn(_law([1e300, -1e300], np.zeros((2, 2))), [1e10, 1e10]),
                 lambda: ginv_condition(unit, [[1e200, 0.0]], [1.0]),
                 lambda: endomorphism_reduction([[1e200, 0.0]])):
        with pytest.raises(InvalidInput):
            call()


def test_char_fn_is_zero_where_only_the_quadratic_form_overflows():
    assert char_fn(_law([0.0, 0.0], np.eye(2)), [1e200, 1e200]) == 0j


def test_negative_seed_and_no_trials_are_rejected(tmp_path):
    g = _law(BIVARIATE["mean"], BIVARIATE["cov"])
    calls = [lambda: sample(g, 1, -1), lambda: run_suite("spectral", 1, -1),
             lambda: run_suite("spectral", 0), lambda: run_suite("all", -3)]
    for suite in (check_spectral, check_conditioning, check_oracle, check_regression):
        calls += [lambda f=suite: f(trials=0), lambda f=suite: f(trials=-1),
                  lambda f=suite: f(seed=-1)]
    for call in calls:
        with pytest.raises(InvalidInput):
            call()
    model = _files(tmp_path, model=BIVARIATE)["model"]
    for argv in (["sample", model, "--seed", "-1"], ["check", "spectral", "--seed", "-1"],
                 ["check", "spectral", "--trials", "0"], ["check", "spectral", "--trials", "-3"]):
        assert main(argv) == 2, argv


@pytest.mark.parametrize("k, j", ((1, 0), (0, 3), (-20, 7), (200, 100), (240, -300), (-200, 0)))
def test_power_of_two_units_rescale_every_output_exactly(k, j):
    # Y in units 2^k and T Y in units 2^(j + k): mu -> 2^k mu, D -> 4^k D,
    # T -> 2^j T. Scaling by a power of two rounds nothing, so every output
    # moves by its exact unit: K and M are unit-free, G scales by 4^k, the
    # lift and the offset by 2^k and A by 2^-j.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        g, t = random_conditioning_instance(rng) if seed % 2 == 0 else random_graded_instance(rng)
        obs = t @ sample(g, 1, seed)[0]
        gs, ts = _law(g.mean * 2.0**k, g.cov.entries * 4.0**k), t * 2.0**j
        law, law_s = condition(g, t), condition(gs, ts)
        dec, dec_s = decompose(g, t), decompose(gs, ts)
        lift, lift_s = lift_observation(g, t, obs), lift_observation(gs, ts, obs * 2.0 ** (j + k))
        assert np.array_equal(law_s.gain, law.gain), seed
        assert np.array_equal(dec_s.independent_map, dec.independent_map), seed
        assert np.array_equal(law_s.cov.entries, law.cov.entries * 4.0**k), seed
        assert np.array_equal(lift_s, lift * 2.0**k), seed
        assert np.array_equal(dec_s.affine_gain, dec.affine_gain * 2.0**-j), seed
        assert np.array_equal(dec_s.affine_offset, dec.affine_offset * 2.0**k), seed


@pytest.mark.parametrize("k", (-215, -300, -480))
def test_units_past_the_exact_window_rescale_within_rounding(k):
    # The draws above with Y in units 2^k and T unscaled. Past about 2^-200
    # the outputs are no longer exact images of the unscaled ones, but each
    # stays within rounding of its image, and nothing raises.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        g, t = random_conditioning_instance(rng) if seed % 2 == 0 else random_graded_instance(rng)
        obs = t @ sample(g, 1, seed)[0]
        gs = _law(g.mean * 2.0**k, g.cov.entries * 4.0**k)
        law, law_s = condition(g, t), condition(gs, t)
        dec, dec_s = decompose(g, t), decompose(gs, t)
        lift, lift_s = lift_observation(g, t, obs), lift_observation(gs, t, obs * 2.0**k)
        for x, x_s in ((law.gain, law_s.gain), (dec.independent_map, dec_s.independent_map),
                       (dec.affine_gain, dec_s.affine_gain)):
            assert maxabs(x_s - x) <= 1e-10 * max(1.0, maxabs(x)), seed
        d = maxabs(g.cov.entries)
        assert maxabs(law_s.cov.entries * 4.0**-k - law.cov.entries) <= 1e-10 * d, seed
        size = max(maxabs(g.mean), maxabs(lift))
        assert maxabs(lift_s * 2.0**-k - lift) <= 1e-10 * size, seed
        assert maxabs(dec_s.affine_offset * 2.0**-k - dec.affine_offset) <= 1e-6 * size, seed
