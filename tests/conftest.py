import numpy as np
import pytest

import c2fseg.parallel
from c2fseg import Spacing


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


@pytest.fixture
def reference_spacing():
    return Spacing(3.0, 0.7816, 0.7816)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes ``_predict``, ``fit`` and ``read_nifti`` see n usable CPUs."""

    def set_cpus(n):
        monkeypatch.setattr(c2fseg.parallel, "usable_cpus", lambda: n)

    return set_cpus
