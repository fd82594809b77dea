#!/usr/bin/env python3
"""Python-level calls of the fresh chain, per chain and per stage.

A fresh chain builds a Gaussian from raw arrays, then calls condition,
lift_observation, evaluate (at the lifted state) and decompose, as the
benchmark's fresh workloads do. This script profiles 1,000 such chains on
random_conditioning_instance(rng, n_max=4, n_min=4) draws, seeds 0-999, with
cProfile, one profile per stage, and prints the mean number of calls that
each stage and the whole chain make: every call cProfile records, to Python
functions and to the builtins and numpy C functions they call, less the
profiler's own disable. It asserts no bound; it reports.

Run from the repository root:

    PYTHONPATH=src python scripts/calls.py [--chains N]
"""

import argparse
import cProfile
import pstats

import numpy as np

from gausscond.checks import random_conditioning_instance
from gausscond.conditioning import condition, decompose, evaluate, lift_observation
from gausscond.gaussian import Gaussian, sample
from gausscond.spectral import SymOperator

STAGES = ("Gaussian", "condition", "lift_observation", "evaluate", "decompose")
_DISABLE = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")


def python_calls(profile: cProfile.Profile) -> int:
    stats = pstats.Stats(profile).stats
    return sum(nc for key, (_, nc, _, _, _) in stats.items() if key != _DISABLE)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", type=int, default=1000)
    chains = parser.parse_args().chains
    # One profile per stage, enabled around that call alone.
    p = [cProfile.Profile() for _ in STAGES]
    for seed in range(chains):
        g0, t = random_conditioning_instance(np.random.default_rng(seed), n_max=4, n_min=4)
        mean, cov = np.array(g0.mean), np.array(g0.cov.entries)
        obs = t @ sample(g0, 1, seed)[0]
        p[0].enable(); g = Gaussian(mean, SymOperator(cov)); p[0].disable()
        p[1].enable(); law = condition(g, t); p[1].disable()
        p[2].enable(); state = lift_observation(g, t, obs); p[2].disable()
        p[3].enable(); evaluate(law, state); p[3].disable()
        p[4].enable(); decompose(g, t); p[4].disable()

    per_stage = {stage: python_calls(prof) / chains for stage, prof in zip(STAGES, p)}
    print(f"Python-level calls per fresh chain (n = 4, {chains} chains): {sum(per_stage.values()):.1f}")
    for stage, calls in per_stage.items():
        print(f"  {stage:<17} {calls:8.1f}")


if __name__ == "__main__":
    main()
