import json
import math

import numpy as np
import pytest

import gausscond.checks as checks
from gausscond.checks import (
    DEFAULT_TRIALS,
    SUITES,
    _Worst,
    check_regression,
    check_spectral,
    random_graded_instance,
    random_map,
    random_orthogonal,
    random_psd,
    run_suite,
)
from gausscond.spectral import maxabs


class TestGenerators:
    def test_random_orthogonal_is_orthogonal(self):
        rng = np.random.default_rng(0)
        q = random_orthogonal(rng, 6)
        assert maxabs(q.T @ q - np.eye(6)) <= 1e-13

    def test_random_psd_has_requested_rank(self):
        rng = np.random.default_rng(1)
        for rank in range(5):
            d = random_psd(rng, 4, rank)
            vals = np.linalg.eigvalsh(d)
            assert int(np.sum(vals > 1e-10)) == rank
            assert float(vals.min()) >= -1e-12

    def test_random_map_has_requested_rank(self):
        rng = np.random.default_rng(2)
        t = random_map(rng, 3, 5, 2)
        assert t.shape == (3, 5)
        assert np.linalg.matrix_rank(t, tol=1e-10) == 2

    def test_random_map_empty_output(self):
        assert random_map(np.random.default_rng(0), 0, 4, 0).shape == (0, 4)

    def test_graded_instance_spans_kappa(self):
        # Whenever S = T D^(1/2) has two or more nonzero singular values,
        # they run from the largest down to exactly largest / kappa.
        rng = np.random.default_rng(4)
        spans = 0
        for _ in range(100):
            g, t = random_graded_instance(rng, kappa=1e4)
            if t.shape[0] == 0:
                continue
            root = g.cov.decomposition().sqrt_matrix()
            sv = np.linalg.svd(t @ root, compute_uv=False)
            nonzero = sv[sv > 1e-10 * max(sv[0], 1e-300)]
            if nonzero.size >= 2:
                spans += 1
                assert abs(nonzero[0] / nonzero[-1] / 1e4 - 1.0) <= 1e-8
        assert spans >= 10


class TestSuites:
    def test_all_suites_pass_briefly(self):
        for report in run_suite("all", trials=10, seed=0):
            failed = [p.name for p in report.properties if not p.passed]
            assert not failed, f"{report.suite}: {failed}"

    def test_deterministic_given_seed(self):
        a = check_spectral(trials=8, seed=5)
        b = check_spectral(trials=8, seed=5)
        da, db = a.to_dict(), b.to_dict()
        da.pop("wall_time_s")
        db.pop("wall_time_s")
        assert da == db

    def test_named_suite_returns_single_report(self):
        reports = run_suite("regression", trials=5, seed=1)
        assert len(reports) == 1
        assert reports[0].suite == "regression"
        assert reports[0].trials == 5

    def test_default_trials_used_when_unspecified(self):
        report = run_suite("spectral", seed=3)[0]
        assert report.trials == DEFAULT_TRIALS["spectral"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError):
            run_suite("nonsense")

    def test_report_is_json_serializable(self):
        report = run_suite("oracle", trials=5, seed=2)[0]
        text = json.dumps(report.to_dict())
        back = json.loads(text)
        assert back["suite"] == "oracle"
        assert back["rank_tol_scale"] == 100.0
        assert {p["name"] for p in back["properties"]} == {
            p.name for p in report.properties
        }

    def test_rank_tol_scale_threaded_into_report(self):
        report = run_suite("spectral", trials=5, seed=0, rank_tol_scale=50.0)[0]
        assert report.rank_tol_scale == 50.0

    def test_default_trials_spot_check(self):
        # The documented reference invocation: 200 spectral trials, seed 7.
        report = check_spectral(trials=200, seed=7)
        assert report.all_passed

    def test_suite_registry_complete(self):
        assert set(SUITES) == {"spectral", "conditioning", "oracle", "regression"}

    def test_nan_residual_fails_its_property(self):
        # NaN compares false with every ratio, so it must count as infinitely far off.
        worst = _Worst("p")
        worst.add(0.5, 1.0)
        worst.add(math.nan, 1.0)
        worst.add(0.25, 1.0)
        result = worst.result()
        assert not result.passed
        assert math.isnan(result.residual)

    def test_nan_identity_check_fails_the_regression_suite(self, monkeypatch):
        real, calls = checks.partial_out_identity_check, []

        def second_is_nan(*args):
            calls.append(None)
            return math.nan if len(calls) == 2 else real(*args)

        monkeypatch.setattr(checks, "partial_out_identity_check", second_is_nan)
        report = check_regression(trials=4, seed=0)
        assert len(calls) > 2
        failed = [p.name for p in report.properties if not p.passed]
        assert failed == ["partial_regression_identity"]
        assert not report.all_passed
