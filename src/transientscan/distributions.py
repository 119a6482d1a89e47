"""Distribution pairs and likelihood-ratio machinery for two-law streams.

A monitored stream alternates between a nominal law F0 and a transient law
F1.  Everything the rest of the library needs from that pair lives here:
log densities, sampling, the per-sample likelihood ratio
``l(x) = f1(x) / f0(x)``, and the F0 tail behaviour of ``l`` that drives
threshold calibration.

Likelihood ratios are computed in log space and exponentiated only at the
boundary, by ``DistributionPair.likelihood_ratio`` alone (the same bits on
every host), so the density quotient cannot overflow or turn into 0/0 for
extreme samples.  A pair whose computed log ratio is monotone in the sample
also gives the sample-space edge of a log threshold, so a detector can
decide samples without forming their ratio.

Every pair states the exact laws of ``l`` (its F0 tail and quantile, its F1
tail); calibration has no approximate path.  At an atom of ``l`` the
quantile returns the atom, and a detector restores the exact run length
with boundary randomization.  ``GaussianMeanShift`` states them in closed
form.
"""

from __future__ import annotations

import math
import struct
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from statistics import NormalDist
from typing import TYPE_CHECKING, Callable, ClassVar, Literal

if TYPE_CHECKING:  # numpy loads only in the array paths, so calibrate runs without it
    import numpy as np

Which = Literal["nominal", "alternative"]

_STD_NORMAL = NormalDist()
_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SIGN_BIT = 1 << 63


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


def _float_rank(x: float) -> int:
    """Position of ``x`` in the ordering of floats; -0.0 and 0.0 share 0."""
    (bits,) = struct.unpack("<Q", struct.pack("<d", x))
    return bits if bits < _SIGN_BIT else _SIGN_BIT - bits


def _rank_float(k: int) -> float:
    """The float at position ``k`` of :func:`_float_rank`'s ordering."""
    (x,) = struct.unpack("<d", struct.pack("<Q", k if k >= 0 else _SIGN_BIT - k))
    return x


#: one rank beyond each end of the floats: a search's bounds, known to
#: fail (below -inf) and to pass (above inf)
_RANK_BELOW, _RANK_ABOVE = _float_rank(-math.inf) - 1, _float_rank(math.inf) + 1


def _check_which(which: str) -> None:
    if which not in ("nominal", "alternative"):
        raise ValueError(f"which must be 'nominal' or 'alternative', got {which!r}")


class DistributionPair(ABC):
    """A known (F0, F1) pair with likelihood-ratio machinery.

    Subclasses provide log densities, sampling and the three exact laws of
    ``l``, taking ``l`` as :meth:`likelihood_ratio` computes it, so that
    calibration and the detector's comparisons see the same floats.

    :attr:`float_log_ratio` is the hook a detector decides one sample with:
    a function of one float giving :meth:`log_likelihood_ratio`'s value
    there, bit for bit.  The default is the bound
    :meth:`log_likelihood_ratio`; a pair may return a leaner closure
    (``GaussianMeanShift`` does), and must then drop it from its pickled
    state, as a closure does not pickle.
    """

    kind: ClassVar[str] = "abstract"

    @abstractmethod
    def log_density(self, which: Which, x):
        """log f0(x) or log f1(x); accepts scalars or arrays."""

    @abstractmethod
    def sample(self, which: Which, rng: np.random.Generator, size=None):
        """Draw from F0 or F1 with the given generator."""

    def log_likelihood_ratio(self, x):
        """log(f1(x) / f0(x)), computed without forming either density."""
        return self.log_density("alternative", x) - self.log_density("nominal", x)

    @property
    def float_log_ratio(self) -> Callable[[float], float]:
        """``log_likelihood_ratio`` for one float; see the class docstring."""
        return self.log_likelihood_ratio

    def likelihood_ratio(self, x):
        """l(x) = f1(x) / f0(x); requires f0(x) > 0.

        The library's one exponential of a log ratio: numpy's complex
        ``exp``, the C library's ``cexp``, which numpy does not dispatch by
        CPU.  Up to a log ratio of 709 it is ``math.exp`` bit for bit; above,
        ``cexp`` scales by ``exp(709)`` and may differ from it in the last
        bit, and past about 709.78 it is ``inf`` (numpy warns of overflow).
        """
        import numpy as np

        lr = np.exp(np.asarray(self.log_likelihood_ratio(x), complex)).real
        return lr if lr.ndim else float(lr)

    def log_ratio_edge(self, t: float) -> tuple[float, bool] | None:
        """The float edge of ``log_likelihood_ratio(x) >= t`` in sample space.

        Returns ``(edge, upper)`` such that, for every float ``x`` (NaN and
        the infinities included), ``log_likelihood_ratio(x) >= t`` exactly
        when ``x >= edge`` (``upper``) or ``x <= edge`` (not ``upper``), so
        a detector can decide a sample without forming its ratio.  The
        default returns None (no edge is known), and verdicts compute the
        log ratio.
        """
        return None

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


def _float_or_inf(compute: Callable[[], object], negative: bool = False) -> float:
    """``float(compute())``, or where a float's ``**`` or an int too large for
    a float raises OverflowError the infinity ``*`` would give: ``-inf`` when
    the exact value is ``negative``, else ``+inf``."""
    try:
        return float(compute())
    except OverflowError:
        return -math.inf if negative else math.inf


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
        shift, mid, s2 = self._llr_constants
        if not 0.0 < s2 < math.inf:
            # the log ratio divides by sigma**2, which must be a positive finite float
            raise ValueError(f"sigma**2 must be positive and finite, got sigma {self.sigma}")
        for name in ("mean0", "mean1"):
            value = getattr(self, name)
            if not math.isfinite(_float_or_inf(lambda: value, value < 0)):
                raise ValueError(f"{name} must be finite, got {value}")
        # the log ratio and its sample-space edge are monotone only with
        # both finite (inf * 0 is NaN)
        if not math.isfinite(shift):
            raise ValueError(f"mean1 - mean0 overflows to {shift}")
        if not math.isfinite(mid):
            raise ValueError(f"the midpoint (mean0 + mean1) / 2 overflows to {mid}")
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
        # each overflows on its own, so validation names the one that does;
        # the comparisons give the exact sign without forming the value
        return (
            _float_or_inf(lambda: m1 - m0, m1 < m0),
            _float_or_inf(lambda: 0.5 * (m0 + m1), m0 < -m1),
            _float_or_inf(lambda: sigma**2),
        )

    @cached_property
    def float_log_ratio(self) -> Callable[[float], float]:
        """The log ratio of one float, a closure over :attr:`_llr_constants`."""
        shift, mid, s2 = self._llr_constants

        def float_log_ratio(x: float) -> float:
            return shift * (float(x) - mid) / s2

        return float_log_ratio

    def __getstate__(self) -> dict:
        # a closure does not pickle: a copy builds its own
        state = dict(vars(self))
        state.pop("float_log_ratio", None)
        return state

    def log_density(self, which: Which, x):
        import numpy as np

        _check_which(which)
        mu = self.mean0 if which == "nominal" else self.mean1
        z = (np.asarray(x, dtype=float) - mu) / self.sigma
        out = -0.5 * z * z - math.log(self.sigma) - _LOG_SQRT_2PI
        return out if out.ndim else float(out)

    def sample(self, which: Which, rng: np.random.Generator, size=None):
        # rng.normal's own values, mu + sigma * z on the same standard normal
        # draws, scaled and shifted in place (and not at all for N(0, 1),
        # where only a -0.0 draw keeps the sign that 0.0 + z would clear)
        _check_which(which)
        mu = self.mean0 if which == "nominal" else self.mean1
        sigma = self.sigma
        z = rng.standard_normal(size)
        if mu == 0.0 and sigma == 1.0:
            return z
        if size is None:
            return mu + sigma * z
        if sigma != 1.0:
            z *= sigma
        z += mu
        return z

    def log_likelihood_ratio(self, x):
        # A float (np.float64 included) skips the 0-d array round trip; both
        # paths round the same IEEE operations, so they agree bit for bit; the
        # array path works in place on one fresh array, never on ``x``.
        if isinstance(x, float):
            return self.float_log_ratio(x)
        shift, mid, s2 = self._llr_constants
        import numpy as np

        out = np.subtract(x, mid, dtype=float)
        out *= shift
        out /= s2
        return out if out.ndim else float(out)

    def log_ratio_edge(self, t: float) -> tuple[float, bool] | None:
        # Each IEEE step of log_likelihood_ratio (subtract mid, multiply by
        # shift, divide by sigma**2; construction keeps all three finite) is
        # monotone in x, so the passing floats are a half-line: in u = x
        # (shift > 0) or u = -x, the upper one.  Its first float is searched
        # over the float ordering by rank.
        shift, mid, s2 = self._llr_constants
        sign = 1.0 if shift > 0.0 else -1.0

        def passes(u: float) -> bool:
            # log_likelihood_ratio's float path, step for step
            return shift * (sign * u - mid) / s2 >= t

        lo, hi = _RANK_BELOW, _RANK_ABOVE
        u = sign * (mid + t * s2 / shift)  # the closed-form guess
        if math.isfinite(u):
            # the guess or its neighbour on the edge's side settles most searches
            if passes(u):
                below = math.nextafter(u, -math.inf)
                if not passes(below):
                    return sign * u, shift > 0.0
                hi = _float_rank(below)
            else:
                above = math.nextafter(u, math.inf)
                if passes(above):
                    return sign * above, shift > 0.0
                lo = _float_rank(above)
        while hi - lo > 1:
            k = (lo + hi) // 2
            if passes(_rank_float(k)):
                hi = k
            else:
                lo = k
        if hi == _RANK_ABOVE:
            return None  # no float passes (t is NaN)
        return sign * _rank_float(hi), shift > 0.0

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
        # a * a / s2 halved, not divided by 2 * s2: the same bits, and no
        # overflow of 2 * s2 at sigma near 1e154
        return math.exp(a * z / self.sigma - a * a / s2 * 0.5)

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
    if not isinstance(config, dict) or "kind" not in config:
        raise ValueError(f"distribution config must be a mapping with a 'kind', got {config!r}")
    kind = config["kind"]
    try:
        cls = PAIR_KINDS[kind]
    except (KeyError, TypeError):  # a JSON list or object is no kind either
        raise ValueError(
            f"unknown distribution kind {kind!r}; known: {sorted(PAIR_KINDS)}"
        ) from None
    kwargs = {k: v for k, v in config.items() if k != "kind"}
    for key, value in kwargs.items():
        if key not in {f.name for f in fields(cls)}:
            raise ValueError(f"unknown {kind} config key {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):  # JSON's "0", true
            raise ValueError(f"{key} must be a number, got {value!r}")
    return cls(**kwargs)
