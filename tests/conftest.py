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
    Its exact laws sum the masses of the atoms, each atom taken as the pair
    computes it (``l(1)`` of (0.2, 0.6) is 2.9999999999999996), so
    calibration and the detector compare the same floats.  This exercises
    the atom threshold plus boundary randomization.
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

    def atoms(self):
        """``(l(x), P0(X=x), P1(X=x))`` for x = 0, 1."""
        return [
            (float(self.likelihood_ratio(0.0)), 1.0 - self.p0, 1.0 - self.p1),
            (float(self.likelihood_ratio(1.0)), self.p0, self.p1),
        ]

    def lr_tail_prob_f0(self, alpha, *, strict=False):
        if alpha < 0.0:
            raise ValueError(f"alpha must be nonnegative, got {alpha}")
        return sum(m0 for a, m0, _ in self.atoms() if a > alpha or (a == alpha and not strict))

    def lr_quantile_f0(self, p):
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p}")
        return min(a for a, _, _ in self.atoms() if self.lr_tail_prob_f0(a, strict=True) <= p)

    def lr_tail_prob_f1(self, alpha):
        if alpha < 0.0:
            raise ValueError(f"alpha must be nonnegative, got {alpha}")
        return sum(m1 for a, _, m1 in self.atoms() if a >= alpha)


@pytest.fixture
def two_point_pair():
    return TwoPointPair(p0=0.2, p1=0.6)
