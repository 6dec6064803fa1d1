import numpy as np
import pytest

from bwvi.checks import _random_state as random_state  # noqa: F401


def random_spd(rng, dim, jitter=0.1):
    b = rng.standard_normal((dim, dim))
    return b @ b.T + jitter * np.eye(dim)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
