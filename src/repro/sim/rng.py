"""Deterministic random-number streams.

Every stochastic element of the simulation (service times, think times,
workload choices, network jitter) draws from a *named* stream derived from a
single experiment seed.  This gives two properties the benchmark harness
relies on:

* **Reproducibility** — the same seed replays the same experiment exactly.
* **Stream independence** — adding draws to one component (say, the network)
  does not perturb another component's sequence, so configurations remain
  comparable.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Sequence, TypeVar

__all__ = ["RngRegistry", "Rng"]

T = TypeVar("T")


class Rng:
    """A single named random stream with the distributions the models need."""

    def __init__(self, seed: int, name: str):
        self.name = name
        self._random = random.Random(seed)
        # (mean, cv) -> (mu, sigma): the log/sqrt transform is pure, so
        # caching it changes nothing about the drawn sequence.
        self._lognormal_params: dict[tuple[float, float], tuple[float, float]] = {}

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high)``."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive: ``random.Random.randint``
        written out, the same draws (``tests/sim/test_rng.py`` pins them)."""
        width = high - low + 1
        if width.__class__ is not int:  # a float, Decimal or Fraction bound
            raise TypeError(f"randint needs integer bounds, got ({low!r}, {high!r})")
        if width <= 0:
            raise ValueError(f"empty range for randint({low}, {high})")
        return low + self._random._randbelow(width)

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean (used for think times)."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        return self._random.expovariate(1.0 / mean)

    def lognormal_service(self, mean: float, cv: float = 0.25) -> float:
        """Service-time variate: lognormal with given mean and coefficient of
        variation.

        Lognormal keeps service times strictly positive with a realistic
        right tail, which is what produces the slowest-replica penalty the
        eager approach pays.

        The draw is ``random.Random.lognormvariate(mu, sigma)`` written out
        (CPython's Kinderman–Monahan loop over the same generator, minus two
        frames per draw): same uniforms in the same order, bit-identical
        variates — ``tests/sim/test_rng.py`` pins that draw for draw.
        """
        params = self._lognormal_params.get((mean, cv))
        if params is None:
            if mean <= 0:
                raise ValueError(f"service mean must be positive, got {mean}")
            sigma2 = math.log(1.0 + cv * cv)
            mu = math.log(mean) - sigma2 / 2.0
            params = (mu, math.sqrt(sigma2))
            self._lognormal_params[(mean, cv)] = params
        mu, sigma = params
        uniform = self._random.random
        while True:
            u1 = uniform()
            u2 = 1.0 - uniform()
            z = random.NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -math.log(u2):
                return math.exp(mu + z * sigma)

    def choice(self, seq: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(seq)

    def weighted_choice(self, seq: Sequence[T], weights: Sequence[float]) -> T:
        """Weighted choice from a non-empty sequence."""
        return self._random.choices(seq, weights=weights, k=1)[0]

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self._random.shuffle(seq)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._random.random()

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        """k distinct elements chosen without replacement."""
        return self._random.sample(seq, k)


class RngRegistry:
    """Factory for named, independent :class:`Rng` streams.

    Stream seeds are derived by hashing ``(experiment_seed, stream_name)``,
    so streams are stable across runs and independent of creation order.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, Rng] = {}

    def stream(self, name: str) -> Rng:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            stream_seed = int.from_bytes(digest[:8], "big")
            self._streams[name] = Rng(stream_seed, name)
        return self._streams[name]

    def __contains__(self, name: str) -> bool:
        return name in self._streams
