"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They check the benchmark's own arithmetic and plumbing, not the library:
the percentile rule and sample counts, that the reference rejects a
perturbed law, self time on nested spans, that the span wrappers reach
names imported elsewhere and come off cleanly, and a tiny run of every
workload in both modes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(10, 0, -1))
        assert run.percentile(values, 50) == 5
        assert run.percentile(values, 90) == 9
        assert run.percentile(values, 100) == 10
        assert run.percentile(values, 0) == 1
        assert run.percentile([7.5], 90) == 7.5

    def test_no_values(self):
        with pytest.raises(ValueError):
            run.percentile([], 50)

    def test_sample_counts_and_error_rate(self):
        tally = workloads.Tally(fixed=10)
        for i in range(8):
            tally.add(workloads.Outcome(i, 0.001 * (i + 1), [], False))
        tally.add(workloads.Outcome(8, 0.5, ["conditional mean off"], False))
        tally.add(workloads.Outcome(9, 0.002, ["raised InvalidInput: x"], True))
        tally.add(workloads.Outcome(10, 0.003, ["raised InvalidInput: y"], True))
        summary = run.loop_summary(tally)
        # A wrong answer is still a timed sample; a raised operation is not.
        assert len(tally.latencies_ms) == 9 and tally.count == 11
        assert summary["p90_ms"] == 500.0
        assert len(tally.failures) == 3
        assert tally.fixed_failed == 2 and summary["error_rate"] == 0.2
        assert summary["throughput_ops_s"] == pytest.approx(8 / (0.036 + 0.5 + 0.002 + 0.003))

    def test_result_counts_and_correctness(self, capsys):
        class Args:
            workload, seed = "small_fresh", 4

        loop = workloads.Tally(fixed=2)
        loop.add(workloads.Outcome(0, 0.1, [], False))
        loop.add(workloads.Outcome(1, 0.1, ["raised InvalidInput: x"], True))
        probes = {"check all": [workloads.Outcome(0, 0.4, [], False)]}
        out = run.result(Args, [loop], probes, {})
        assert (out["correct"], out["attempted"], out["failed"]) == (True, 3, 1)
        assert "--replay 1" in capsys.readouterr().out
        probes["check all"].append(workloads.Outcome(1, 0.4, ["a property failed"], False))
        assert run.result(Args, [loop], probes, {})["correct"] is False


class TestReference:
    @pytest.mark.parametrize("make,index", [(inputs.small_instance, 3), (inputs.large_instance, 0)])
    def test_library_result_passes_and_perturbed_law_fails(self, make, index):
        inst = make(0, index)
        state, out, dec = workloads.run_fresh_chain(inst)
        assert workloads.verify_fresh_chain(inst, (state, out, dec)) == []

        ref = workloads.Reference(inst.mean, inst.factor, inst.t)
        cov = out.cov.entries.copy()
        cov[0, 0] += 1e-5
        assert any("covariance" in e for e in ref.law_errors(inst.obs, state, out.mean, cov))
        mean = out.mean + 1e-5
        assert any("mean" in e for e in ref.law_errors(inst.obs, state, mean, out.cov.entries))
        m_map = dec.independent_map * 0.0
        assert ref.decomposition_errors(m_map, dec.affine_gain, dec.affine_offset, inst.states)

    def test_instances_replay_from_seed_and_index(self):
        a, b = inputs.small_instance(5, 17), inputs.small_instance(5, 17)
        assert np.array_equal(a.cov, b.cov) and np.array_equal(a.t, b.t) and np.array_equal(a.obs, b.obs)
        assert not np.array_equal(inputs.large_instance(5, 0).cov, inputs.large_instance(5, 1).cov)

    def test_maps_beyond_kappa_max_are_drawn_again(self, monkeypatch):
        bounded = inputs.small_instance(1746794883, 2334)
        assert inputs.whitened_condition(bounded.t, bounded.factor) <= inputs.KAPPA_MAX
        monkeypatch.setattr(inputs, "KAPPA_MAX", float("inf"))
        unbounded = inputs.small_instance(1746794883, 2334)
        assert np.array_equal(unbounded.cov, bounded.cov)
        assert inputs.whitened_condition(unbounded.t, unbounded.factor) > 1e4


class TestSpans:
    def test_self_time_subtracts_union_of_children(self):
        assert spans.self_time(0.0, 10.0, []) == 10.0
        # Overlapping children count once; a child past the end is clipped.
        assert spans.self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 12.0)]) == 3.0

    def test_aggregate_nested(self):
        rec = [
            ["a", 0.0, 10.0, -1, 0, False, 0],
            ["spectral.decomposition", 1.0, 4.0, 0, 0, False, 0],
            ["spectral.eig_sym", 2.0, 3.0, 1, 0, False, 8],
            ["spectral.decomposition", 5.0, 6.0, 0, 0, False, 0],
            ["a", 20.0, 21.0, -1, 1, True, 0],
        ]
        rows = spans.aggregate(rec)
        assert rows["a"]["calls"] == 2 and rows["a"]["failed"] == 1
        assert rows["a"]["busy_s"] == 11.0
        assert rows["a"]["self_s"] == 10.0 - 3.0 - 1.0 + 1.0
        assert rows["spectral.decomposition"]["self_s"] == 2.0 + 1.0
        assert rows["spectral.decomposition"]["hits"] == 1
        assert rows["spectral.eig_sym"]["work"] == 8
        assert spans.aggregate(rec, ops={1})["a"]["calls"] == 1

    def test_install_reaches_by_name_imports_and_uninstalls(self):
        import gausscond.checks as checks
        import gausscond.conditioning as conditioning
        import gausscond.spectral as spectral

        before = (conditioning.invertible_left_factor, conditioning._psd_clamped,
                  checks.SUITES["oracle"], spectral.SymOperator.decomposition)
        recorder = spans.Recorder()
        uninstall = spans.install(recorder)
        try:
            workloads.run_fresh_chain(inputs.small_instance(0, 3))
            assert conditioning.invertible_left_factor is not before[0]
            assert checks.SUITES["oracle"] is not before[2]
        finally:
            uninstall()
        after = (conditioning.invertible_left_factor, conditioning._psd_clamped,
                 checks.SUITES["oracle"], spectral.SymOperator.decomposition)
        assert after == before
        names = {r[spans.NAME] for r in recorder.spans}
        assert {"conditioning.condition", "spectral.eig_sym", "gaussian.Gaussian",
                "spectral.decomposition", "gaussian._psd_clamped"} <= names
        parents = {r[spans.NAME]: recorder.spans[r[spans.PARENT]][spans.NAME]
                   for r in recorder.spans if r[spans.PARENT] >= 0}
        assert parents["spectral.eig_sym"] == "spectral.decomposition"


class TestContract:
    def test_names_match_benchmark_json(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
        assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [(n, u) for n, u, _ in run.PER_LAYER]

    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_build" / "perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "small_fresh", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        assert proc.returncode != 0
        assert "{" not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [(k, v["unit"]) for k, v in out["metrics"].items()] == [(m["name"], m["unit"]) for m in expected]
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())
