import numpy as np
import pytest

from c2fseg import Spacing


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


@pytest.fixture
def reference_spacing():
    return Spacing(3.0, 0.7816, 0.7816)

