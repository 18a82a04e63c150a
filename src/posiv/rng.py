"""Counter-based deterministic randomness.

Every random quantity in the simulator is a pure function of
(seed, purpose tag, entity ids, counter), evaluated through the SplitMix64
output function. Nothing carries mutable generator state, so draws are
independent of iteration order and safe to produce in parallel or in chunks.

All helpers are vectorized over uint64 numpy arrays.
"""

from __future__ import annotations

import numpy as np

MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# FNV-1a 64-bit offset basis and prime (Fowler, Noll & Vo).
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

# Purpose tags keep the per-entity streams disjoint across uses of one seed.
TAG_ARM = 0x01
TAG_SLOPE = 0x02
TAG_DIRECTION = 0x03
TAG_RELEVANCE = 0x04
TAG_REASON = 0x05
TAG_SELECT = 0x06
TAG_SCORE_NOISE = 0x07
TAG_OBS_NOISE = 0x08
TAG_OUTCOME = 0x09
TAG_SAMPLE = 0x0A


def _u64(x) -> np.ndarray:
    return np.asarray(x).astype(np.uint64, copy=False)


def mix64(x) -> np.ndarray:
    """SplitMix64 output function (Steele, Lea & Flood 2014): a 64-bit bijection."""
    return _mix_in_place(np.asarray(x).astype(np.uint64))


def _mix_in_place(z: np.ndarray) -> np.ndarray:
    """mix64 of the uint64 array z, computed in z with one shift buffer."""
    t = np.empty_like(z)
    with np.errstate(over="ignore"):
        np.right_shift(z, np.uint64(30), out=t)
        z ^= t
        z *= _MIX1
        np.right_shift(z, np.uint64(27), out=t)
        z ^= t
        z *= _MIX2
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
    return z


def stream_key(seed: int, tag: int, *ids) -> np.ndarray:
    """Derive the stream key for (seed, tag, ids).

    ids may be scalars or equally-shaped arrays; the result broadcasts.
    """
    with np.errstate(over="ignore"):
        key = mix64(np.uint64(seed % (1 << 64)) ^ mix64(np.uint64(tag)))
        for part in ids:
            key = _mix_in_place(np.asarray(key ^ _u64(part)))
    return key


def raw64(key, counter=0) -> np.ndarray:
    """The counter-th output of the stream: mix(key + (counter+1)*GOLDEN)."""
    with np.errstate(over="ignore"):
        c = (_u64(counter) + np.uint64(1)) * GOLDEN
        return _mix_in_place(np.asarray(_u64(key) + c))


def uniform(key, counter=0) -> np.ndarray:
    """Uniform draw in [0, 1) with 53-bit resolution."""
    return (raw64(key, counter) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def normal(key, counter=0) -> np.ndarray:
    """Standard normal via Box-Muller; consumes counters (2c, 2c+1)."""
    c = _u64(counter)
    with np.errstate(over="ignore"):
        u1 = (raw64(key, c * np.uint64(2)) >> np.uint64(11)).astype(np.float64)
        u2 = uniform(key, c * np.uint64(2) + np.uint64(1))
    # shift into (0, 1] so the log never sees zero
    u1 = (u1 + 1.0) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of the UTF-8 encoding; used for non-numeric ids."""
    h = FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h
