"""Deterministic randomness for the simulator.

Every stochastic quantity in the testbed — per-sample CPU segment
durations, PCIe link jitter, the rare multi-microsecond outliers that
show up in the paper's Figure 7 — draws from a named stream derived from
one root seed.  Subsystems never share a stream, so adding randomness to
one component cannot perturb another component's sequence: runs stay
reproducible under refactoring.

The noise *shape* is calibrated to the paper's observed injection
distribution (Figure 7: mean 282.33 ns, median 266.30 ns, min 201.30 ns,
max 34951.70 ns, σ = 58.49 ns): a right-skewed body — median below the
mean — produced by a lognormal multiplicative jitter, plus a rare
heavy Pareto tail standing in for OS noise / SMI-like events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["JitterModel", "RandomStreams"]


class RandomStreams:
    """A tree of independent, named random streams.

    Streams are derived from the root seed with
    :class:`numpy.random.SeedSequence` spawning keyed by the stream name,
    so ``streams.get("pcie.link")`` yields the same generator in every
    run with the same root seed, independent of creation order.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._generators: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for ``name``."""
        generator = self._generators.get(name)
        if generator is None:
            # Fold the name into a spawn key so the stream depends only on
            # (seed, name), never on lookup order.  Python's built-in
            # hash() is salted per process, so use a stable fold instead.
            digest = 0
            for ch in name:
                digest = (digest * 131 + ord(ch)) % (2**63)
            sequence = np.random.SeedSequence(entropy=self.seed, spawn_key=(digest,))
            generator = np.random.default_rng(sequence)
            self._generators[name] = generator
        return generator

    def child(self, prefix: str) -> "ScopedStreams":
        """A view whose stream names are automatically prefixed."""
        return ScopedStreams(self, prefix)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RandomStreams seed={self.seed} open={len(self._generators)}>"


class ScopedStreams:
    """Prefix-scoped view over a :class:`RandomStreams`."""

    def __init__(self, root: RandomStreams, prefix: str) -> None:
        self._root = root
        self._prefix = prefix

    def get(self, name: str) -> np.random.Generator:
        """The generator for ``prefix.name``."""
        return self._root.get(f"{self._prefix}.{name}")

    def child(self, prefix: str) -> "ScopedStreams":
        """A deeper scoped view."""
        return ScopedStreams(self._root, f"{self._prefix}.{prefix}")


@dataclass
class JitterModel:
    """Multiplicative noise model for component durations.

    A sample for a component with nominal mean ``m`` is drawn from a
    three-part mixture::

        body:    m * b * lognormal(mu, sigma)        (most samples)
        medium:  m * (1 + medium_scale * Exp(1))     (cache/TLB misses)
        extreme: m * (1 + outlier_scale * (1+Pareto)) (OS noise, SMIs)

    ``(mu, sigma)`` give the lognormal unit mean and coefficient of
    variation ``cv``; the body factor ``b`` is solved so the *mixture*
    mean is exactly ``m`` — noise never biases component means.  A floor
    at ``floor_fraction * m`` models the deterministic lower bound
    visible in the paper's Figure 7 (min 201.3 ns against a 282.33 ns
    mean — about 71%).

    The defaults are calibrated against Figure 7's annotations
    (mean 282.33, median < mean, σ ≈ 58.5, max ≈ 35 µs): the body gives
    the right-skewed bulk, the medium tail the bulk of the variance,
    and the extreme tail the multi-microsecond maximum.

    Parameters
    ----------
    cv:
        Coefficient of variation of the noise body.
    medium_prob / medium_scale:
        Mixture weight and exponential scale of the medium tail.
    outlier_prob / outlier_scale:
        Mixture weight and Pareto scale of the extreme tail.
    floor_fraction:
        Hard lower bound as a fraction of the nominal mean.
    """

    cv: float = 0.12
    medium_prob: float = 0.008
    medium_scale: float = 2.0
    outlier_prob: float = 1e-4
    outlier_scale: float = 15.0
    floor_fraction: float = 0.71
    _mu: float = field(init=False, repr=False)
    _sigma: float = field(init=False, repr=False)
    _body_gain: float = field(init=False, repr=False)
    _tail_cut: float = field(init=False, repr=False)

    #: Mean of ``1 + Pareto(PARETO_SHAPE)``: Pareto(a) has mean 1/(a-1).
    PARETO_SHAPE = 2.5

    def __post_init__(self) -> None:
        if self.cv < 0:
            raise ValueError(f"cv must be >= 0, got {self.cv}")
        for name in ("medium_prob", "outlier_prob"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if self.medium_prob + self.outlier_prob >= 1:
            raise ValueError("tail probabilities must sum below 1")
        if self.medium_scale < 0 or self.outlier_scale < 0:
            raise ValueError("tail scales must be >= 0")
        if not 0 <= self.floor_fraction <= 1:
            raise ValueError(
                f"floor_fraction must be in [0, 1], got {self.floor_fraction}"
            )
        # Unit-mean lognormal: E = exp(mu + sigma^2/2) = 1,
        # CV^2 = exp(sigma^2) - 1.
        self._sigma = math.sqrt(math.log(1.0 + self.cv**2)) if self.cv > 0 else 0.0
        self._mu = -0.5 * self._sigma**2
        # Solve the body gain so the mixture mean is exactly 1:
        #   b·p_body·E[body] + p_med·E[med] + p_out·E[out] = 1.
        # (The floor's truncation bias is negligible at small cv.)
        mean_medium = 1.0 + self.medium_scale
        pareto_mean = 1.0 / (self.PARETO_SHAPE - 1.0)
        mean_extreme = 1.0 + self.outlier_scale * (1.0 + pareto_mean)
        p_body = 1.0 - self.medium_prob - self.outlier_prob
        self._body_gain = (
            1.0 - self.medium_prob * mean_medium - self.outlier_prob * mean_extreme
        ) / p_body
        if self._body_gain <= 0:
            raise ValueError("tail mass too heavy: body gain would be non-positive")
        #: Rolls below this land in one of the two tails.
        self._tail_cut = self.outlier_prob + self.medium_prob

    def sample(self, mean: float, rng: np.random.Generator) -> float:
        """Draw one noisy duration around ``mean`` nanoseconds.

        The hottest function of a replayed run (one call per simulated
        CPU segment), so the common body path is kept to the two draws
        and the arithmetic.
        """
        if mean <= 0:
            if mean < 0:
                raise ValueError(f"mean duration must be >= 0, got {mean}")
            return 0.0
        roll = rng.random()
        if roll < self._tail_cut:
            if roll < self.outlier_prob:
                factor = 1.0 + self.outlier_scale * (1.0 + rng.pareto(self.PARETO_SHAPE))
                return mean * factor
            factor = 1.0 + self.medium_scale * rng.exponential()
            return mean * factor
        sigma = self._sigma
        if sigma == 0.0:
            return mean * self._body_gain
        value = mean * (self._body_gain * math.exp(rng.normal(self._mu, sigma)))
        floor = mean * self.floor_fraction
        return floor if floor > value else value

    def sample_many(self, mean: float, n: int, rng: np.random.Generator) -> np.ndarray:
        """Vectorised :meth:`sample` for ``n`` draws."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if mean == 0 or n == 0:
            return np.zeros(n)
        if self._sigma:
            body = self._body_gain * np.exp(rng.normal(self._mu, self._sigma, size=n))
        else:
            body = np.full(n, self._body_gain)
        samples = np.maximum(mean * body, mean * self.floor_fraction)
        rolls = rng.random(n)
        extreme = rolls < self.outlier_prob
        medium = (~extreme) & (rolls < self.outlier_prob + self.medium_prob)
        if extreme.any():
            count = int(extreme.sum())
            samples[extreme] = mean * (
                1.0 + self.outlier_scale * (1.0 + rng.pareto(self.PARETO_SHAPE, count))
            )
        if medium.any():
            count = int(medium.sum())
            samples[medium] = mean * (1.0 + self.medium_scale * rng.exponential(size=count))
        return samples

    @classmethod
    def deterministic(cls) -> "JitterModel":
        """A model that returns the mean exactly (for unit testing)."""
        return cls(cv=0.0, medium_prob=0.0, outlier_prob=0.0, floor_fraction=0.0)
