import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

from transientscan.distributions import DistributionPair


@dataclass(frozen=True)
class TwoPointPair(DistributionPair):
    """Bernoulli-supported pair whose likelihood ratio has two atoms.

    P0(X=1) = p0, P1(X=1) = p1, so l(1) = p1/p0 and l(0) = (1-p1)/(1-p0).
    Inherits the Monte Carlo calibration fallbacks, which is the point:
    it exercises the conservative-threshold + boundary-randomization path.
    """

    p0: float
    p1: float

    kind: ClassVar[str] = "two_point"

    def log_density(self, which, x):
        p = self.p0 if which == "nominal" else self.p1
        x = np.asarray(x, dtype=float)
        out = np.where(x == 1.0, math.log(p), math.log(1.0 - p))
        return out if out.ndim else float(out)

    def sample(self, which, rng, size=None):
        p = self.p0 if which == "nominal" else self.p1
        return (rng.random(size) < p).astype(float)


@pytest.fixture
def two_point_pair():
    return TwoPointPair(p0=0.2, p1=0.6)
