"""The workloads: set-up, the timed operation, and its verification.

Load is one caller in a closed loop: the next operation starts only after
the previous one has returned and been checked. Each workload object is
built by its constructor (the timed set-up), hands out the input of
operation i with instance(i), runs it with run(input) -- the only timed
call -- and checks the result with verify(input, result), which returns a
list of mismatches against the independent reference.

Two entry points are also timed in every run, whatever the workload:
one `python -m gausscond condition` process on n = 64 instances, and
`gausscond check all` run through cli.main in a worker process of its
own (CheckWorker), so that its allocations stay out of the benchmark
process's peak memory. They are built and verified like workload
operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gausscond as gc
import gausscond.cli  # noqa: F401  (binds gc.cli)

import inputs
from reference import Reference

# Trials and seed of every `check all` the benchmark runs.
CHECK_TRIALS = 10
CHECK_SEED = 0
CHECK_ARGV = ("check", "all", "--trials", str(CHECK_TRIALS), "--seed", str(CHECK_SEED))
CHECK_SUITES = ("spectral", "conditioning", "oracle", "regression")
CLI_TIMEOUT_S = 120


def run_fresh_chain(inst: inputs.Instance):
    """Gaussian -> condition -> lift_observation -> evaluate -> decompose on one instance."""
    g = gc.Gaussian(inst.mean, gc.SymOperator(inst.cov))
    law = gc.condition(g, inst.t)
    state = gc.lift_observation(g, inst.t, inst.obs)
    return state, gc.evaluate(law, state), gc.decompose(g, inst.t)


def verify_fresh_chain(inst: inputs.Instance, result) -> list[str]:
    state, out, dec = result
    ref = Reference(inst.mean, inst.factor, inst.t)
    return ref.law_errors(inst.obs, state, out.mean, out.cov.entries) + ref.decomposition_errors(
        dec.independent_map, dec.affine_gain, dec.affine_offset, inst.states
    )


class _Fresh:
    """Independent instances; the first `fixed` are generated during set-up."""

    make = None
    fixed = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.pregenerated = [self.make(seed, i) for i in range(self.fixed)]

    def instance(self, i: int) -> inputs.Instance:
        return self.pregenerated[i] if i < self.fixed else self.make(self.seed, i)

    run = staticmethod(run_fresh_chain)
    verify = staticmethod(verify_fresh_chain)


class SmallFresh(_Fresh):
    """Tiny degenerate problems: once the eigensolver is LAPACK, per-call
    fixed costs (certificates, Projector checks, wrappers) decide."""

    make = staticmethod(inputs.small_instance)
    fixed = 500


class LargeFresh(_Fresh):
    """n = 64 problems that never repeat: factorization work per request,
    and no reuse across requests can help."""

    make = staticmethod(inputs.large_instance)
    fixed = 2


WORKLOADS = {
    "small_fresh": SmallFresh,
    "large_fresh": LargeFresh,
}


@dataclass
class Outcome:
    """One operation: how long run() took, and what went wrong, if anything."""

    index: int
    seconds: float
    errors: list[str]
    raised: bool

    @property
    def ok(self) -> bool:
        return not self.errors


def run_one(workload, i: int) -> Outcome:
    inp = workload.instance(i)
    start = time.perf_counter()
    try:
        result = workload.run(inp)
    except Exception as exc:  # a failed operation is counted, not fatal
        return Outcome(i, time.perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"], True)
    seconds = time.perf_counter() - start
    return Outcome(i, seconds, workload.verify(inp, result), False)


class Tally:
    """Running totals of a closed loop of operations.

    It keeps one float per returned operation and full records only of
    failures, so its memory does not grow with the library's speed beyond
    the latency samples (which would otherwise show in peak_rss_mb).
    Operation indices below `fixed` form the fixed instance set.
    """

    def __init__(self, fixed: int = 0):
        self.fixed = fixed
        self.count = 0
        self.verified = 0
        self.busy_s = 0.0
        self.latencies_ms = array("d")
        self.failures: list[Outcome] = []

    def add(self, outcome: Outcome) -> None:
        self.count += 1
        self.busy_s += outcome.seconds
        if not outcome.raised:
            self.latencies_ms.append(outcome.seconds * 1e3)
        if outcome.ok:
            self.verified += 1
        else:
            self.failures.append(outcome)

    @property
    def fixed_failed(self) -> int:
        return sum(o.index < self.fixed for o in self.failures)


def run_loop(workload, deadline: float, tally: Tally, min_ops: int = 0, max_ops: int | None = None) -> None:
    """Operations tally.count, tally.count + 1, ... until time.perf_counter()
    reaches deadline and the tally holds at least min_ops."""
    while tally.count < min_ops or (
        time.perf_counter() < deadline and (max_ops is None or tally.count < max_ops)
    ):
        tally.add(run_one(workload, tally.count))


def run_cli(argv) -> tuple[int, str]:
    """cli.main in this process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = gc.cli.main(list(argv))
    return code, buf.getvalue()


def check_report_errors(result) -> list[str]:
    """A `check all` result is right when it exits 0 and every suite ran and passed."""
    code, text = result
    errors = [] if code == 0 else [f"check all exited with {code}"]
    try:
        reports = json.loads(text)["reports"]
    except (ValueError, KeyError, TypeError):
        return errors + ["check all printed no report"]
    if tuple(r.get("suite") for r in reports) != CHECK_SUITES:
        errors.append(f"suites {[r.get('suite') for r in reports]} ran, expected {list(CHECK_SUITES)}")
    for r in reports:
        if (r.get("trials"), r.get("seed")) != (CHECK_TRIALS, CHECK_SEED):
            errors.append(f"suite {r.get('suite')} ran trials={r.get('trials')} seed={r.get('seed')}")
        for p in r.get("properties", []):
            if not (p["passed"] and math.isfinite(p["residual"]) and p["residual"] <= p["tolerance"]):
                errors.append(f"{r.get('suite')}.{p['name']} residual {p['residual']:.3e} > {p['tolerance']:.3e}")
    return errors


class CheckAll:
    """`gausscond check all` at fixed trials and seed, in-process through cli.main.

    The only path through oracle, regression, checks and large sample
    draws. The benchmark seed does not change it.
    """

    def instance(self, i: int):
        return CHECK_ARGV

    run = staticmethod(run_cli)

    def verify(self, argv, result) -> list[str]:
        return check_report_errors(result)


class CheckWorker:
    """A long-lived `run.py --check-worker` process that runs CheckAll on request.

    Start it with `with CheckWorker(root, env) as worker:`; each
    worker.run_one(i) sends one request and returns the Outcome that the
    worker measured and verified. The worker makes one discarded call
    first, so lazy set-up is not timed. Leaving the block closes its
    input and waits until it has ended.
    """

    def __init__(self, root: Path, env: dict):
        self.args = dict(cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.proc = None

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, "perfbench/run.py", "--check-worker"], **self.args)
        return self

    def run_one(self, i: int) -> Outcome:
        self.proc.stdin.write(f"{i}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"check worker ended with {self.proc.wait(CLI_TIMEOUT_S)}")
        return Outcome(**json.loads(line))

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve_checks(stdin, stdout) -> None:
    """The worker side of CheckWorker: one CheckAll per input line, one JSON Outcome per output line."""
    check = CheckAll()
    run_one(check, -1)
    for line in stdin:
        outcome = run_one(check, int(line))
        stdout.write(json.dumps(vars(outcome)) + "\n")
        stdout.flush()


class ConditionCli:
    """`gausscond condition model.json t.json obs.json` on fresh n = 64 instances.

    Given an environment, runs `python -m gausscond` in it as a
    subprocess, so import and start-up count; without one it calls
    cli.main here instead, which is how the traced run reaches the io and
    cli layers.
    """

    def __init__(self, seed: int, root: Path, workdir: Path, env: dict | None = None):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.env = env

    def instance(self, i: int):
        inst = inputs.large_instance(self.seed, i)
        return inst, write_cli_inputs(inst, self.workdir)

    def run(self, inp):
        argv = ["condition", *inp[1]]
        if self.env is None:
            code, text = run_cli(argv)
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "gausscond", *argv],
                capture_output=True, text=True, cwd=self.root, env=self.env, timeout=CLI_TIMEOUT_S,
            )
            code, text = proc.returncode, proc.stdout
        if code != 0:
            raise RuntimeError(f"gausscond condition exited with {code}")
        return text

    def verify(self, inp, text) -> list[str]:
        return cli_law_errors(inp[0], text)


def cli_law_errors(inst: inputs.Instance, text: str) -> list[str]:
    """Mismatches of the law printed by `gausscond condition` for inst."""
    try:
        out = json.loads(text)
        mean, cov = np.asarray(out["mean"]), np.asarray(out["cov"])
    except (ValueError, KeyError, TypeError):
        return ["gausscond condition printed no law"]
    return Reference(inst.mean, inst.factor, inst.t).moment_errors(inst.obs, mean, cov)


def write_cli_inputs(inst: inputs.Instance, directory: Path) -> list[str]:
    """model.json, t.json and obs.json for `gausscond condition`; returns their paths."""
    files = {
        "model.json": {"mean": inst.mean.tolist(), "cov": inst.cov.tolist()},
        "t.json": inst.t.tolist(),
        "obs.json": inst.obs.tolist(),
    }
    paths = []
    for name, data in files.items():
        path = directory / name
        path.write_text(json.dumps(data))
        paths.append(str(path))
    return paths
