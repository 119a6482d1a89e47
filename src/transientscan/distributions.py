"""Distribution pairs and likelihood-ratio machinery for two-law streams.

A monitored stream alternates between a nominal law F0 and a transient law
F1.  Everything the rest of the library needs from that pair lives here:
density evaluation, sampling, the per-sample likelihood ratio
``l(x) = f1(x) / f0(x)``, and the F0 tail behaviour of ``l`` that drives
threshold calibration.

Likelihood ratios are computed in log space and exponentiated only at the
boundary, so the density quotient cannot overflow or turn into 0/0 for
extreme samples.

``GaussianMeanShift`` (same variance, shifted mean) has exact closed forms
for the tail probability and quantile of ``l`` under F0.  Other pairs can
subclass :class:`DistributionPair` and inherit Monte Carlo fallbacks for
those two quantities; the fallback threshold is conservative for ratios
with atoms, and the achieved tail probability stays observable so a
detector can restore exact run-length calibration with boundary
randomization.
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


def _tail_fraction(lr: np.ndarray, alpha: float, strict: bool = False) -> float:
    """Fraction of the sorted sample ``lr`` at or above alpha (above, when strict)."""
    side = "right" if strict else "left"
    return float(lr.size - np.searchsorted(lr, alpha, side=side)) / lr.size


def _check_which(which: str) -> None:
    if which not in ("nominal", "alternative"):
        raise ValueError(f"which must be 'nominal' or 'alternative', got {which!r}")


class DistributionPair(ABC):
    """A known (F0, F1) pair with likelihood-ratio machinery.

    Subclasses must provide densities and sampling.  Tail probability and
    quantile of the likelihood ratio under F0 default to deterministic
    Monte Carlo estimates (``mc_calibration_samples`` draws from a fixed
    internal seed); families with closed forms should override both.
    """

    kind: ClassVar[str] = "abstract"

    #: sample count and seed for the Monte Carlo calibration fallback
    mc_calibration_samples: ClassVar[int] = 2_000_000
    mc_calibration_seed: ClassVar[int] = 0x5EED

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

    def _sorted_lr_sample(self, which: Which, seed: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        x = self.sample(which, rng, self.mc_calibration_samples)
        return np.sort(np.exp(self.log_likelihood_ratio(x)))

    @cached_property
    def _lr_calibration_sample(self) -> np.ndarray:
        """Sorted F0 likelihood ratios of the calibration sample, drawn once
        per pair, so every tail and quantile comes from one empirical measure."""
        return self._sorted_lr_sample("nominal", self.mc_calibration_seed)

    @cached_property
    def _lr_f1_sample(self) -> np.ndarray:
        """Sorted F1 likelihood ratios for the detection tail, drawn once per pair."""
        return self._sorted_lr_sample("alternative", self.mc_calibration_seed + 1)

    def __getstate__(self):
        # the cached samples are cheap to redraw and large to send to workers
        state = dict(self.__dict__)
        state.pop("_lr_calibration_sample", None)
        state.pop("_lr_f1_sample", None)
        return state

    def lr_tail_prob_f0(self, alpha: float, *, strict: bool = False) -> float:
        """P(l(X) >= alpha) for X ~ F0 (P(l(X) > alpha) when strict).

        Monte Carlo fallback; subclasses with closed forms override.
        """
        if alpha < 0.0:
            raise ValueError(f"alpha must be nonnegative, got {alpha}")
        return _tail_fraction(self._lr_calibration_sample, alpha, strict)

    def lr_quantile_f0(self, p: float) -> float:
        """Smallest threshold a with P(l(X) > a) <= p under F0.

        For continuous ratios this solves P(l >= a) = p; when l has atoms it
        returns the atom straddling p, so that
        ``P(l > a) <= p <= P(l >= a)`` and calibration can split the
        difference with boundary randomization.

        Monte Carlo fallback: the bound holds with respect to the empirical
        measure of the calibration sample, so the achieved tail is accurate
        only to sampling error, and p below ~1/mc_calibration_samples is
        effectively unresolvable.
        """
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p}")
        lr = self._lr_calibration_sample
        n = lr.size
        # Smallest sample value v with #{lr > v} <= p*n is the order
        # statistic lr[j-1], j = ceil(n - p*n).
        j = min(max(int(math.ceil(n - p * n)), 1), n)
        return float(lr[j - 1])

    def lr_tail_prob_f1(self, alpha: float) -> float:
        """P(l(X) >= alpha) for X ~ F1: the per-sample detection probability."""
        if alpha < 0.0:
            raise ValueError(f"alpha must be nonnegative, got {alpha}")
        return _tail_fraction(self._lr_f1_sample, alpha)

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

    @property
    def _shift(self) -> float:
        return self.mean1 - self.mean0

    @property
    def _midpoint(self) -> float:
        return 0.5 * (self.mean0 + self.mean1)

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
        out = self._shift * (np.asarray(x, dtype=float) - self._midpoint) / self.sigma**2
        return out if out.ndim else float(out)

    def lr_tail_prob_f0(self, alpha: float, *, strict: bool = False) -> float:
        # Continuous ratio: the strict and closed tails coincide.
        if alpha < 0.0:
            raise ValueError(f"alpha must be nonnegative, got {alpha}")
        if alpha == 0.0:
            return 1.0
        a = abs(self._shift)
        z = a / (2.0 * self.sigma) + self.sigma * math.log(alpha) / a
        return norm_upper_tail(z)

    def lr_tail_prob_f1(self, alpha: float) -> float:
        if alpha < 0.0:
            raise ValueError(f"alpha must be nonnegative, got {alpha}")
        if alpha == 0.0:
            return 1.0
        a = abs(self._shift)
        z = self.sigma * math.log(alpha) / a - a / (2.0 * self.sigma)
        return norm_upper_tail(z)

    def lr_quantile_f0(self, p: float) -> float:
        a = abs(self._shift)
        z = norm_upper_quantile(p)
        return math.exp(a * z / self.sigma - a * a / (2.0 * self.sigma**2))

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
