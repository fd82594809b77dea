import json

import numpy as np
import pytest

from gausscond.cli import main


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def bivariate(tmp_path):
    model = _write(
        tmp_path / "model.json",
        {"mean": [0.0, 0.0], "cov": [[1.0, 0.5], [0.5, 1.0]]},
    )
    transform = _write(tmp_path / "t.json", [[1.0, 0.0]])
    obs = _write(tmp_path / "y.json", [2.0])
    return model, transform, obs


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCondition:
    def test_bivariate_example(self, bivariate, capsys):
        model, transform, obs = bivariate
        code, out, _ = _run(capsys, ["condition", model, transform, obs])
        assert code == 0
        data = json.loads(out)
        assert np.allclose(data["mean"], [2.0, 1.0], atol=1e-12)
        assert np.allclose(data["cov"], [[0.0, 0.0], [0.0, 0.75]], atol=1e-12)
        assert data["rank_tol_scale"] == 100.0

    def test_law_only(self, bivariate, capsys):
        model, transform, _ = bivariate
        code, out, _ = _run(capsys, ["condition", model, transform, "--law-only"])
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"mean_base", "gain", "cov", "rank_tol_scale"}
        assert np.allclose(data["gain"], [[1.0, 0.0], [0.5, 0.0]], atol=1e-12)

    def test_zero_transform_prints_prior(self, bivariate, tmp_path, capsys):
        model, _, _ = bivariate
        t0 = _write(tmp_path / "t0.json", [[0.0, 0.0]])
        obs0 = _write(tmp_path / "y0.json", [0.0])
        code, out, _ = _run(capsys, ["condition", model, t0, obs0])
        assert code == 0
        data = json.loads(out)
        assert np.allclose(data["mean"], [0.0, 0.0], atol=1e-12)
        assert np.allclose(data["cov"], [[1.0, 0.5], [0.5, 1.0]], atol=1e-12)

    def test_empty_observation_prints_prior(self, bivariate, tmp_path, capsys):
        model, _, _ = bivariate
        t0 = _write(tmp_path / "t0.json", [])
        obs0 = _write(tmp_path / "y0.json", [])
        code, out, _ = _run(capsys, ["condition", model, t0, obs0])
        assert code == 0
        data = json.loads(out)
        assert np.allclose(data["mean"], [0.0, 0.0], atol=1e-12)
        assert np.allclose(data["cov"], [[1.0, 0.5], [0.5, 1.0]], atol=1e-12)

    def test_dim_mismatch_exit_3(self, bivariate, tmp_path, capsys):
        model, _, obs = bivariate
        bad_t = _write(tmp_path / "bad_t.json", [[1.0, 0.0, 0.0]])
        code, _, err = _run(capsys, ["condition", model, bad_t, obs])
        assert code == 3
        assert "3" in err and "2" in err

    def test_missing_obs_exit_2(self, bivariate, capsys):
        model, transform, _ = bivariate
        code, _, err = _run(capsys, ["condition", model, transform])
        assert code == 2
        assert "observation" in err

    def test_invalid_json_exit_2(self, bivariate, tmp_path, capsys):
        _, transform, obs = bivariate
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        code, _, _ = _run(capsys, ["condition", str(broken), transform, obs])
        assert code == 2

    def test_non_psd_cov_exit_2(self, bivariate, tmp_path, capsys):
        _, transform, obs = bivariate
        bad = _write(
            tmp_path / "npsd.json", {"mean": [0.0, 0.0], "cov": [[1.0, 2.0], [2.0, 1.0]]}
        )
        code, _, _ = _run(capsys, ["condition", bad, transform, obs])
        assert code == 2

    def test_strict_support_violation_exit_4(self, tmp_path, capsys):
        model = _write(
            tmp_path / "deg.json", {"mean": [0.0, 0.0], "cov": [[0.0, 0.0], [0.0, 1.0]]}
        )
        transform = _write(tmp_path / "t.json", [[1.0, 0.0]])
        obs = _write(tmp_path / "y.json", [2.0])
        code, _, _ = _run(capsys, ["condition", model, transform, obs, "--strict-support"])
        assert code == 4
        code, out, _ = _run(capsys, ["condition", model, transform, obs])
        assert code == 0

    def test_rank_tol_scale_flag(self, bivariate, capsys):
        model, transform, obs = bivariate
        code, out, _ = _run(
            capsys, ["condition", model, transform, obs, "--rank-tol-scale", "10"]
        )
        assert code == 0
        assert json.loads(out)["rank_tol_scale"] == 10.0

    def test_csv_rejected(self, bivariate, capsys):
        model, transform, obs = bivariate
        code, _, _ = _run(capsys, ["condition", model, transform, obs, "--format", "csv"])
        assert code == 2

    def test_options_of_other_subcommands_rejected(self, bivariate, capsys):
        # --seed belongs to sample and check, --format to sample.
        model, transform, obs = bivariate
        for extra in (["--seed", "1"], ["--format", "json"]):
            code, _, _ = _run(capsys, ["condition", model, transform, obs, *extra])
            assert code == 2, extra
        code, _, _ = _run(capsys, ["check", "spectral", "--trials", "1", "--format", "json"])
        assert code == 2


class TestDecompose:
    def test_projection_under_identity_cov(self, tmp_path, capsys):
        n = 3
        pi = (np.ones((n, n)) / n).tolist()
        model = _write(
            tmp_path / "m.json", {"mean": [0.0] * n, "cov": np.eye(n).tolist()}
        )
        transform = _write(tmp_path / "t.json", pi)
        code, out, _ = _run(capsys, ["decompose", model, transform])
        assert code == 0
        data = json.loads(out)
        expected = np.eye(n) - np.ones((n, n)) / n
        assert np.allclose(data["independent_map"], expected, atol=1e-10)
        assert data["independence_residual"] <= 1e-10

    def test_identity_transform_full_rank(self, bivariate, tmp_path, capsys):
        model, _, _ = bivariate
        t_id = _write(tmp_path / "tid.json", np.eye(2).tolist())
        code, out, _ = _run(capsys, ["decompose", model, t_id])
        assert code == 0
        assert np.allclose(json.loads(out)["independent_map"], np.zeros((2, 2)), atol=1e-12)

    def test_zero_transform_gives_range_projector(self, bivariate, tmp_path, capsys):
        model, _, _ = bivariate
        t0 = _write(tmp_path / "t0.json", [[0.0, 0.0]])
        code, out, _ = _run(capsys, ["decompose", model, t0])
        assert code == 0
        # Full-rank covariance: the range projector is the identity.
        assert np.allclose(json.loads(out)["independent_map"], np.eye(2), atol=1e-12)


    def test_empty_transform_gives_range_projector(self, bivariate, tmp_path, capsys):
        model, _, _ = bivariate
        t0 = _write(tmp_path / "t0.json", [])
        code, out, _ = _run(capsys, ["decompose", model, t0])
        assert code == 0
        data = json.loads(out)
        assert np.allclose(data["independent_map"], np.eye(2), atol=1e-12)
        assert data["independence_residual"] == 0.0


class TestSample:
    def test_deterministic_for_seed(self, bivariate, capsys):
        model, _, _ = bivariate
        _, out1, _ = _run(capsys, ["sample", model, "--count", "5", "--seed", "9"])
        _, out2, _ = _run(capsys, ["sample", model, "--count", "5", "--seed", "9"])
        assert out1 == out2
        _, out3, _ = _run(capsys, ["sample", model, "--count", "5", "--seed", "10"])
        assert out1 != out3

    def test_zero_covariance_rows_equal_mean(self, tmp_path, capsys):
        model = _write(
            tmp_path / "point.json", {"mean": [1.5, -2.5], "cov": [[0.0, 0.0], [0.0, 0.0]]}
        )
        code, out, _ = _run(capsys, ["sample", model, "--count", "3"])
        assert code == 0
        assert json.loads(out) == [[1.5, -2.5]] * 3

    def test_csv_matches_json_rows(self, bivariate, capsys):
        model, _, _ = bivariate
        _, out_json, _ = _run(capsys, ["sample", model, "--count", "4", "--seed", "2"])
        _, out_csv, _ = _run(
            capsys, ["sample", model, "--count", "4", "--seed", "2", "--format", "csv"]
        )
        rows_json = json.loads(out_json)
        rows_csv = [[float(x) for x in line.split(",")] for line in out_csv.strip().splitlines()]
        assert rows_json == rows_csv

    def test_bad_count_exit_2(self, bivariate, capsys):
        model, _, _ = bivariate
        code, _, _ = _run(capsys, ["sample", model, "--count", "0"])
        assert code == 2

    def test_moments_of_large_sample(self, bivariate, capsys):
        model, _, _ = bivariate
        n = 100_000
        code, out, _ = _run(capsys, ["sample", model, "--count", str(n), "--seed", "4"])
        assert code == 0
        rows = np.array(json.loads(out))
        band = 5.0 / np.sqrt(n)
        assert np.max(np.abs(rows.mean(axis=0))) <= band
        emp = np.cov(rows.T)
        assert np.max(np.abs(emp - [[1.0, 0.5], [0.5, 1.0]])) <= band * 3


class TestPartialOut:
    def test_roles_follow_indices(self, tmp_path, capsys):
        # Cov [[2,1,1],[1,2,0],[1,0,1]] has coefficient 1.0 for y on x
        # given z in the default role order (x=0, y=1).
        cov = [[2.0, 1.0, 1.0], [1.0, 2.0, 0.0], [1.0, 0.0, 1.0]]
        model = _write(tmp_path / "m.json", {"mean": [0.0, 0.0, 0.0], "cov": cov})
        code, out, _ = _run(capsys, ["partial-out", model])
        assert code == 0
        data = json.loads(out)
        assert data["coefficient"] == pytest.approx(1.0, abs=1e-10)
        assert not data["degenerate"]

        swapped = _write(
            tmp_path / "m2.json",
            {"mean": [0.0, 0.0, 0.0], "cov": cov, "x_index": 1, "y_index": 0},
        )
        code, out, _ = _run(capsys, ["partial-out", swapped])
        assert code == 0
        data2 = json.loads(out)
        # With roles swapped the conditional pair covariance is [[2,1],[1,1]].
        assert data2["coefficient"] == pytest.approx(0.5, abs=1e-10)
        assert data2["x_index"] == 1 and data2["y_index"] == 0

    def test_equal_indices_exit_2(self, tmp_path, capsys):
        model = _write(
            tmp_path / "m.json",
            {"mean": [0.0] * 3, "cov": np.eye(3).tolist(), "x_index": 1, "y_index": 1},
        )
        code, _, _ = _run(capsys, ["partial-out", model])
        assert code == 2

    def test_out_of_range_index_exit_2(self, tmp_path, capsys):
        model = _write(
            tmp_path / "m.json",
            {"mean": [0.0] * 3, "cov": np.eye(3).tolist(), "x_index": 5},
        )
        code, _, _ = _run(capsys, ["partial-out", model])
        assert code == 2

    def test_too_small_model_exit_3(self, tmp_path, capsys):
        model = _write(tmp_path / "m.json", {"mean": [0.0, 0.0], "cov": np.eye(2).tolist()})
        code, _, _ = _run(capsys, ["partial-out", model])
        assert code == 3


class TestCheck:
    def test_small_suite_passes(self, capsys):
        code, out, _ = _run(capsys, ["check", "regression", "--trials", "5", "--seed", "0"])
        assert code == 0
        data = json.loads(out)
        assert data["all_passed"]
        assert data["reports"][0]["suite"] == "regression"
        assert data["reports"][0]["seed"] == 0

    def test_all_runs_every_suite(self, capsys):
        code, out, _ = _run(capsys, ["check", "all", "--trials", "5"])
        assert code == 0
        data = json.loads(out)
        assert [r["suite"] for r in data["reports"]] == [
            "spectral", "conditioning", "oracle", "regression",
        ]

    def test_unknown_suite_exit_2(self, capsys):
        code, _, _ = _run(capsys, ["check", "nonsense"])
        assert code == 2


class TestParsing:
    def test_unknown_subcommand_exit_2(self, capsys):
        assert _run(capsys, ["frobnicate"])[0] == 2

    def test_no_arguments_exit_2(self, capsys):
        assert _run(capsys, [])[0] == 2

    def test_help_exit_0(self, capsys):
        assert _run(capsys, ["--help"])[0] == 0

    def test_missing_file_exit_2(self, capsys):
        code, _, err = _run(capsys, ["decompose", "/nonexistent.json", "/also-missing.json"])
        assert code == 2

    def test_vector_mean_required(self, tmp_path, capsys):
        model = _write(tmp_path / "m.json", {"mean": [[0.0]], "cov": [[1.0]]})
        t = _write(tmp_path / "t.json", [[1.0]])
        obs = _write(tmp_path / "y.json", [0.0])
        code, _, err = _run(capsys, ["condition", model, t, obs])
        assert code == 2
        assert "mean" in err

    def test_negative_rank_tol_scale_exit_2(self, tmp_path, capsys):
        model = _write(tmp_path / "m.json", {"mean": [0.0], "cov": [[1.0]]})
        code, _, _ = _run(capsys, ["sample", model, "--rank-tol-scale", "-1"])
        assert code == 2
