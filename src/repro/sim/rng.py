"""Deterministic per-subsystem random number streams.

Each subsystem (harvester jitter, RF channel corruption, sensor noise,
ADC quantisation noise, ...) asks the hub for a *named* stream.  The
stream's seed is derived from the master seed and the name, so:

- the same master seed reproduces every experiment exactly, and
- adding a new consumer of randomness does not perturb the draws seen
  by existing consumers (streams are independent, not interleaved).
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(root: int, *parts: object) -> int:
    """A child seed deterministically derived from ``root`` and ``parts``.

    The derivation is the same hash construction the hub uses for its
    streams, so children are statistically independent of each other and
    of every named stream.  This is the one sanctioned way to seed a
    subordinate simulation (a campaign run, a worker process): never use
    the global ``random`` module — an unseeded draw anywhere breaks
    replay-by-seed for the whole experiment.
    """
    label = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(f"{root}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngHub:
    """Factory of named, independently seeded ``random.Random`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: dict[str, random.Random] = {}
        # Sticky: snapshot restore replaces ``_streams`` wholesale, which
        # can forget a stream created after the capture, but never this.
        self._touched = False

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._touched = True
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]

    def reseed(self, seed: int) -> None:
        """Start over as a fresh hub seeded with ``seed``, in place.

        Consumers hold the hub itself (harvesters, the ADC), so a reused
        simulation is reseeded rather than handed a new hub.
        """
        self.seed = seed
        self._streams = {}
        self._touched = False

    def gauss(self, name: str, mu: float, sigma: float) -> float:
        """One Gaussian draw from the named stream.

        The ADC noise draw of every energy sample and control tick comes
        through here, so a live stream costs one dict lookup.  The
        stream is looked up on every call, never held: ``reseed`` and
        snapshot restores replace ``_streams`` wholesale.
        """
        try:
            stream = self._streams[name]
        except KeyError:
            stream = self.stream(name)
        return stream.gauss(mu, sigma)

    def uniform(self, name: str, lo: float, hi: float) -> float:
        """One uniform draw from the named stream."""
        return self.stream(name).uniform(lo, hi)

    def chance(self, name: str, probability: float) -> bool:
        """Bernoulli draw: ``True`` with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range: {probability}")
        return self.stream(name).random() < probability

    @property
    def untouched(self) -> bool:
        """True while no consumer has ever requested a stream.

        Streams are created lazily on first draw, so an untouched hub
        proves the simulation consumed zero randomness — which makes its
        trajectory independent of the master seed.  The snapshot/fork
        execution paths use this as their honesty check before reusing
        one seeded simulation on behalf of differently seeded runs.
        The answer survives snapshot restores: a draw followed by a
        restore to a stream-free snapshot still reads touched.
        """
        return not (self._touched or self._streams)

    def derive(self, *parts: object) -> int:
        """A child seed derived from this hub's seed and ``parts``."""
        return derive_seed(self.seed, *parts)

    def fork(self, *parts: object) -> "RngHub":
        """An independent hub seeded from this one (see :func:`derive_seed`)."""
        return RngHub(self.derive(*parts))
