"""Random volume and mask data shared by the tests."""

import numpy as np


def random_volume_data(rng, dims, lo=-100.0, hi=200.0):
    return rng.uniform(lo, hi, size=dims).astype(np.float32)


def random_mask_data(rng, dims, p=0.3):
    return (rng.uniform(size=dims) < p).astype(np.uint8)
