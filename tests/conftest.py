import os

# one BLAS thread, as the benchmark runs: the L1 falsifier's many small products stall on two threads beside another busy process
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import settings

from normdisc.spaces import build_hyperbolic_cross, real_trig_system

settings.register_profile("ci", deadline=None, max_examples=25)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def cross2():
    # 1d hyperbolic cross with n=2: {-3..3}, size 7
    return build_hyperbolic_cross(2, 1)


@pytest.fixture(scope="session")
def trig7(cross2):
    return real_trig_system(cross2)
