import numpy as np
import pytest

from kpd.kernel import PointConfig


@pytest.fixture
def random_zero_sum_config():
    """A draw of uniform points on [-10, 10] with standard-normal
    coefficients projected to zero sum (the projection leaves a residual at
    float rounding level, well inside cnd_check's 1e-12 gate)."""

    def draw(rng: np.random.Generator, n: int) -> PointConfig:
        pts = rng.uniform(-10.0, 10.0, size=n)
        c = rng.standard_normal(n)
        c = c - c.mean()
        return PointConfig(tuple(float(p) for p in pts), tuple(float(v) for v in c))

    return draw
