"""Distribution pairs and likelihood-ratio machinery for two-law streams.

A monitored stream alternates between a nominal law F0 and a transient law
F1.  Everything the rest of the library needs from that pair lives here:
density evaluation, sampling, the per-sample likelihood ratio
``l(x) = f1(x) / f0(x)``, and the F0 tail behaviour of ``l`` that drives
threshold calibration.

Likelihood ratios are computed in log space and exponentiated only at the
boundary, so the density quotient cannot overflow or turn into 0/0 for
extreme samples.

Every pair states the exact laws of ``l`` (its F0 tail and quantile, its F1
tail); calibration has no approximate path.  At an atom of ``l`` the
quantile returns the atom, and a detector restores the exact run length
with boundary randomization.  ``GaussianMeanShift`` states them in closed
form.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from functools import cached_property
from statistics import NormalDist
from typing import ClassVar, Literal

import numpy as np

Which = Literal["nominal", "alternative"]

_STD_NORMAL = NormalDist()
_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def norm_upper_tail(z: float) -> float:
    """P(Z >= z) for standard normal Z, accurate in both tails."""
    return 0.5 * math.erfc(z / _SQRT2)


def norm_upper_quantile(p: float) -> float:
    """z such that P(Z >= z) = p, for p in (0, 1).

    Uses the rational-approximation inverse CDF from the standard library
    (Wichura's AS 241), full double precision.  Evaluated as ``-inv_cdf(p)``
    so small p never round through ``1 - p``.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return -_STD_NORMAL.inv_cdf(p)


def _check_which(which: str) -> None:
    if which not in ("nominal", "alternative"):
        raise ValueError(f"which must be 'nominal' or 'alternative', got {which!r}")


class DistributionPair(ABC):
    """A known (F0, F1) pair with likelihood-ratio machinery.

    Subclasses provide densities, sampling and the three exact laws of
    ``l``, taking ``l`` as :meth:`likelihood_ratio` computes it, so that
    calibration and the detector's comparisons see the same floats.
    """

    kind: ClassVar[str] = "abstract"

    @abstractmethod
    def log_density(self, which: Which, x):
        """log f0(x) or log f1(x); accepts scalars or arrays."""

    @abstractmethod
    def sample(self, which: Which, rng: np.random.Generator, size=None):
        """Draw from F0 or F1 with the given generator."""

    def density(self, which: Which, x):
        """f0(x) or f1(x); strictly positive wherever the log density is finite."""
        return np.exp(self.log_density(which, x))

    def log_likelihood_ratio(self, x):
        """log(f1(x) / f0(x)), computed without forming either density."""
        return self.log_density("alternative", x) - self.log_density("nominal", x)

    def likelihood_ratio(self, x):
        """l(x) = f1(x) / f0(x); requires f0(x) > 0."""
        return np.exp(self.log_likelihood_ratio(x))

    @abstractmethod
    def lr_tail_prob_f0(self, alpha: float, *, strict: bool = False) -> float:
        """P(l(X) >= alpha) for X ~ F0 (P(l(X) > alpha) when strict)."""

    @abstractmethod
    def lr_quantile_f0(self, p: float) -> float:
        """Smallest threshold a with P(l(X) > a) <= p under F0.

        For continuous ratios this solves P(l >= a) = p; when l has atoms it
        returns the atom straddling p, so that
        ``P(l > a) <= p <= P(l >= a)`` and calibration can split the
        difference with boundary randomization.
        """

    @abstractmethod
    def lr_tail_prob_f1(self, alpha: float) -> float:
        """P(l(X) >= alpha) for X ~ F1: the per-sample detection probability."""

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianMeanShift(DistributionPair):
    """Unit-family Gaussian pair: F0 = N(mean0, sigma^2), F1 = N(mean1, sigma^2).

    The likelihood ratio is log-linear in x, so its F0 tail probability and
    quantile are exact: with d = mean1 - mean0,

        P0(l(X) >= a) = Q(|d|/(2 sigma) + sigma * ln(a) / |d|)

    where Q is the standard normal upper tail.
    """

    mean0: float
    mean1: float
    sigma: float = 1.0

    kind: ClassVar[str] = "gaussian_mean_shift"

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.mean0 == self.mean1:
            raise ValueError(
                "mean0 and mean1 must differ: with equal means the likelihood "
                "ratio is identically 1 and no test can discriminate"
            )

    @cached_property
    def _llr_constants(self) -> tuple[float, float, float]:
        """``(shift, midpoint, sigma**2)``, derived once per pair; not a field,
        so equality, hashing and :meth:`to_config` see only the three fields."""
        m0, m1, sigma = self.mean0, self.mean1, self.sigma
        return float(m1 - m0), float(0.5 * (m0 + m1)), float(sigma**2)

    def log_density(self, which: Which, x):
        _check_which(which)
        mu = self.mean0 if which == "nominal" else self.mean1
        z = (np.asarray(x, dtype=float) - mu) / self.sigma
        out = -0.5 * z * z - math.log(self.sigma) - _LOG_SQRT_2PI
        return out if out.ndim else float(out)

    def sample(self, which: Which, rng: np.random.Generator, size=None):
        _check_which(which)
        mu = self.mean0 if which == "nominal" else self.mean1
        return rng.normal(mu, self.sigma, size)

    def log_likelihood_ratio(self, x):
        # A float (np.float64 included) skips the 0-d array round trip; both
        # paths round the same IEEE operations, so they agree bit for bit; the
        # array path works in place on one fresh array, never on ``x``.
        shift, mid, s2 = self._llr_constants
        if isinstance(x, float):
            return shift * (float(x) - mid) / s2
        out = np.subtract(x, mid, dtype=float)
        out *= shift
        out /= s2
        return out if out.ndim else float(out)

    def lr_tail_prob_f0(self, alpha: float, *, strict: bool = False) -> float:
        # Continuous ratio: the strict and closed tails coincide.
        if alpha < 0.0:
            raise ValueError(f"alpha must be nonnegative, got {alpha}")
        if alpha == 0.0:
            return 1.0
        a = abs(self._llr_constants[0])
        z = a / (2.0 * self.sigma) + self.sigma * math.log(alpha) / a
        return norm_upper_tail(z)

    def lr_tail_prob_f1(self, alpha: float) -> float:
        if alpha < 0.0:
            raise ValueError(f"alpha must be nonnegative, got {alpha}")
        if alpha == 0.0:
            return 1.0
        a = abs(self._llr_constants[0])
        z = self.sigma * math.log(alpha) / a - a / (2.0 * self.sigma)
        return norm_upper_tail(z)

    def lr_quantile_f0(self, p: float) -> float:
        shift, _, s2 = self._llr_constants
        a = abs(shift)
        z = norm_upper_quantile(p)
        return math.exp(a * z / self.sigma - a * a / (2.0 * s2))

    def to_config(self) -> dict:
        cfg = asdict(self)
        cfg["kind"] = self.kind
        return cfg


PAIR_KINDS: dict[str, type] = {
    GaussianMeanShift.kind: GaussianMeanShift,
}


def pair_from_config(config: dict) -> DistributionPair:
    """Build a pair from its config mapping, e.g.

    ``{"kind": "gaussian_mean_shift", "mean0": 0.0, "mean1": 1.0, "sigma": 1.0}``
    """
    if "kind" not in config:
        raise ValueError("distribution config must carry a 'kind' field")
    kind = config["kind"]
    try:
        cls = PAIR_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown distribution kind {kind!r}; known: {sorted(PAIR_KINDS)}"
        ) from None
    kwargs = {k: v for k, v in config.items() if k != "kind"}
    return cls(**kwargs)
