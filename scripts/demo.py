#!/usr/bin/env python3
"""Worked examples: a textbook bivariate case, a rank-deficient one, a full observation.

Run with no arguments. Prints each step so the output doubles as a short
tour of the library API.
"""

import numpy as np

from gausscond.conditioning import condition, decompose, evaluate, lift_observation
from gausscond.gaussian import Gaussian, sample
from gausscond.oracle import ginv_condition
from gausscond.spectral import SymOperator, maxabs


def show(title, arr):
    print(f"{title}:")
    print(np.array_str(np.asarray(arr), precision=6, suppress_small=True))
    print()


def bivariate_demo():
    print("=" * 60)
    print("1. Bivariate with correlation 0.5, observe the first coordinate")
    print("=" * 60)
    g = Gaussian(np.zeros(2), SymOperator(np.array([[1.0, 0.5], [0.5, 1.0]])))
    t = np.array([[1.0, 0.0]])

    law = condition(g, t)
    show("gain (regression of the vector on the observation)", law.gain)
    show("conditional covariance", law.cov.entries)

    out = evaluate(law, [2.0, 0.0])
    show("conditional mean given first coordinate = 2", out.mean)
    print("closed form: mean 0.5 * 2 = 1, variance 1 - 0.5^2 = 0.75")
    print()

    oracle = ginv_condition(g, t, t @ np.array([2.0, 0.0]))
    print(f"max difference vs generalized-inverse route: "
          f"{maxabs(out.mean - oracle.mean):.2e}")
    print()


def rank_deficient_demo():
    print("=" * 60)
    print("2. Rank-deficient covariance and a rank-deficient observation")
    print("=" * 60)
    # Covariance of rank 2 in dimension 3: the third coordinate is the
    # sum of the first two, deterministically.
    f = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    g = Gaussian(np.array([1.0, -1.0, 0.0]), SymOperator(f @ f.T))
    show("covariance (rank 2)", g.cov.entries)

    # Observe the sum of the first two coordinates: one row, but the
    # observed functional is exactly the deterministic third coordinate.
    t = np.array([[1.0, 1.0, 0.0]])
    law = condition(g, t)
    show("gain", law.gain)
    show("conditional covariance", law.cov.entries)

    state = lift_observation(g, t, [3.0])
    out = evaluate(law, state)
    show("conditional mean given x1 + x2 = 3", out.mean)

    split = decompose(g, t)
    show("independent complement map", split.independent_map)
    resid = maxabs(t @ g.cov.entries @ split.independent_map.T)
    print(f"cross covariance between observed and complement parts: {resid:.2e}")
    print()

    rows = sample(out, 5, seed=42)
    show("five draws from the conditional law (x1 + x2 pinned to 3)", rows)
    print("row sums of the first two coordinates:", rows[:, 0] + rows[:, 1])


def full_observation_demo():
    print()
    print("=" * 60)
    print("3. A full-rank square observation pins the vector down")
    print("=" * 60)
    d = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 1.5]])
    t = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    g = Gaussian(np.zeros(3), SymOperator(d))
    law = condition(g, t)
    # G = D^(1/2) (I - P_row(S)) D^(1/2) has rank rank D - rank S = 0, so
    # the rounding left by its products of size tr D becomes exact zeros.
    print("conditional covariance rank:", law.cov.decomposition().rank)
    out = evaluate(law, lift_observation(g, t, [1.0, 2.0, 3.0]))
    rows = sample(out, 100, seed=7)
    print("largest spread of 100 draws around the mean:", maxabs(rows - out.mean))


if __name__ == "__main__":
    bivariate_demo()
    rank_deficient_demo()
    full_observation_demo()
