"""Seeded randomness for verification trials.

One documented generator: SplitMix64 mixes a scenario seed with a trial index
into an independent 64-bit stream seed, and each trial runs its own
``random.Random``.  Trials are therefore order-independent and can run
concurrently without sharing state.
"""

from __future__ import annotations

import random

_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One SplitMix64 step: deterministic 64-bit avalanche of ``state``."""
    z = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_seed(seed: int, trial: int) -> int:
    """64-bit stream seed for trial ``trial`` of a scenario seeded ``seed``."""
    return splitmix64(splitmix64(seed & _MASK64) ^ (trial & _MASK64))


def trial_rng(seed: int, trial: int) -> random.Random:
    """Independent generator for one trial; splittable by trial index."""
    return random.Random(trial_seed(seed, trial))


def resample(attempt, rejects, retries: int):
    """Call ``attempt()`` until it raises none of ``rejects``, at most
    ``retries + 1`` times.

    Returns ``(value, rejected)``: the first accepted value and the number of
    draws rejected before it, or ``(None, retries + 1)`` when every draw was
    rejected.
    """
    for rejected in range(retries + 1):
        try:
            return attempt(), rejected
        except rejects:
            pass
    return None, retries + 1
