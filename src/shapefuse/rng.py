"""Deterministic named random substreams.

All randomness in the toolkit flows from a single integer seed. Independent
components (per-sample generation, per-epoch shuffling, reparameterization
noise, ...) derive their own generator from (seed, *names) so that parallel
and serial execution, or re-running a single step in isolation, produce
identical streams.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .scalars import check_int, is_int


def _key_to_int(key) -> int:
    if is_int(key):
        return int(key) & 0xFFFFFFFFFFFFFFFF
    if isinstance(key, str):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise ValueError(f"rng substream keys must be int or str, got {key!r}")


def named_rng(seed: int, *keys) -> np.random.Generator:
    """Generator for the substream identified by (seed, *keys).

    Key hashing uses sha256, so streams are stable across processes and
    platforms (no dependence on PYTHONHASHSEED). ValueError unless the seed
    is an int and each key an int or a str, by `scalars.is_int`.
    """
    check_int("rng seed", seed)
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_key_to_int(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))
