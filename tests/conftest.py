import inspect

import numpy as np
import pytest

from gausscond.checks import random_conditioning_instance

# One shared pool of randomized (law, transform) instances; building it once
# keeps the oracle-agreement and variance-decomposition tests fast.
ORACLE_POOL_SEED = 20260822
ORACLE_POOL_SIZE = 500


@pytest.fixture(scope="session")
def oracle_instances():
    rng = np.random.default_rng(ORACLE_POOL_SEED)
    return [random_conditioning_instance(rng) for _ in range(ORACLE_POOL_SIZE)]


@pytest.fixture
def factorizations(monkeypatch):
    """Counts of every np.linalg.svd and np.linalg.eigh call.

    svd is also counted where numpy's own linalg module calls it, as
    np.linalg.norm(a, -2) does for the smallest singular value.
    """
    calls = {"svd": 0, "eigh": 0}
    svd, eigh = np.linalg.svd, np.linalg.eigh

    def counting_svd(a, *args, **kwargs):
        calls["svd"] += 1
        return svd(a, *args, **kwargs)

    def counting_eigh(a, *args, **kwargs):
        calls["eigh"] += 1
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls
