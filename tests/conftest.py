import numpy as np
import pytest

from chgeom.core import SpaceConfig


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(params=[2, 3])
def space(request):
    return SpaceConfig(k=request.param)
