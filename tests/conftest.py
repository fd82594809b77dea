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


class _Factorizations(dict):
    """Calls per factorization; .shapes lists each call's (name, input shape) in order.

    The shapes are an attribute, so comparing or copying the counts reads the counts only.
    """

    def __init__(self):
        super().__init__(svd=0, eigh=0)
        self.shapes = []

    def record(self, name, a):
        self[name] += 1
        self.shapes.append((name, np.shape(a)))


@pytest.fixture
def factorizations(monkeypatch):
    """Counts, and input shapes, of every np.linalg.svd and np.linalg.eigh call.

    svd is also counted where numpy's own linalg module calls it, as
    np.linalg.norm(a, -2) does for the smallest singular value.
    """
    calls = _Factorizations()
    svd, eigh = np.linalg.svd, np.linalg.eigh

    def counting_svd(a, *args, **kwargs):
        calls.record("svd", a)
        return svd(a, *args, **kwargs)

    def counting_eigh(a, *args, **kwargs):
        calls.record("eigh", a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls
