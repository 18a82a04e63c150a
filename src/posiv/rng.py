"""Counter-based deterministic randomness.

Every random quantity in the simulator is a pure function of
(seed, purpose tag, entity ids, counter), evaluated through the SplitMix64
output function. Nothing carries mutable generator state, so draws are
independent of iteration order and safe to produce in parallel or in chunks.

All helpers are vectorized over uint64 numpy arrays.
"""

from __future__ import annotations

import numpy as np

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
    """mix64 of the uint64 array z, computed in z with one shift buffer. Array
    arithmetic wraps silently, as only numpy scalar arithmetic warns."""
    t = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def stream_key(seed: int, tag: int, *ids, out=None) -> np.ndarray:
    """Derive the stream key for (seed, tag, ids).

    ids may be scalars or equally-shaped arrays; the result broadcasts. out,
    a uint64 array of the result's shape, receives the key if given.
    """
    key = mix64(np.uint64(seed % (1 << 64)) ^ mix64(np.uint64(tag)))
    for n, part in enumerate(ids, 1):
        last = out if n == len(ids) else None
        key = _mix_in_place(np.asarray(np.bitwise_xor(key, _u64(part), out=last)))
    return key


def raw64(key, counter=0, out=None) -> np.ndarray:
    """The counter-th output of the stream: mix(key + (counter+1)*GOLDEN),
    into the uint64 array out (key itself, say) if given."""
    c = np.asarray(np.add(_u64(counter), np.uint64(1)))
    c *= GOLDEN
    return _mix_in_place(np.asarray(np.add(_u64(key), c, out=out)))


def uniform(key, counter=0, out=None) -> np.ndarray:
    """Uniform draw in [0, 1) with 53-bit resolution, into the float64 array
    out if given (its bytes hold the raw draws on the way)."""
    bits = raw64(key, counter, out=None if out is None else out.view(np.uint64))
    bits >>= np.uint64(11)
    return np.multiply(bits, 2.0**-53, out=bits.view(np.float64))


def normal(key, counter=0, out=None) -> np.ndarray:
    """Standard normal via Box-Muller; consumes counters (2c, 2c+1). out, a
    float64 array, receives the draws if given."""
    c = np.multiply(_u64(counter), np.uint64(2))
    angle = uniform(key, np.add(c, np.uint64(1)))
    angle *= 2.0 * np.pi
    np.cos(angle, out=angle)
    u1 = uniform(key, c, out)
    u1 += 2.0**-53  # exact: shifts into (0, 1], so the log never sees zero
    np.log(u1, out=u1)
    u1 *= -2.0
    return np.multiply(np.sqrt(u1, out=u1), angle, out=u1)


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of the UTF-8 encoding; used for non-numeric ids."""
    h = FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h
