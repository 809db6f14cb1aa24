"""Deterministic random streams for reproducible simulations.

Every stochastic component (arrival process, network jitter, quality noise,
classifier noise, ...) draws from its own named stream so that changing how
one component consumes randomness does not perturb the others.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator, Sequence

import numpy as np


def stable_hash(text: str, *, bits: int = 64) -> int:
    """Return a platform-stable integer hash of ``text``.

    Python's built-in ``hash`` is salted per process, which would break
    reproducibility across runs; this helper uses blake2b instead.
    """
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()
    value = int.from_bytes(digest, "big")
    return value % (1 << bits)


_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
#: SeedSequence's mixing constants (numpy/random/bit_generator.pyx).
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
#: PCG64's 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) pair of each of ``count`` successive hashmix
    steps: SeedSequence advances its hash constant by ``mult`` before each
    multiply, whatever the value being hashed."""
    pairs, constant = [], init
    for _ in range(count):
        advanced = (constant * mult) & _MASK32
        pairs.append((constant, advanced))
        constant = advanced
    return pairs


#: A one-word SeedSequence hashes 16 values into its pool of four words
#: (INIT_A/MULT_A), then 8 more as PCG64 draws its 4-word seed (INIT_B/MULT_B).
_POOL_HASHES = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASHES = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(words: np.ndarray, xor: int, mult: int) -> np.ndarray:
    words = (words ^ xor) * mult
    return words ^ (words >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def seeded_generators(keys: Sequence[int]) -> Iterator[np.random.Generator]:
    """For each key in [0, 2**32), a generator in the state that
    ``np.random.default_rng(key)`` starts in.

    The same Generator is re-seeded and yielded for every key, so draw from
    it before taking the next.  ``default_rng`` builds a SeedSequence, a
    PCG64 and a Generator per key; here SeedSequence's hash mixing runs once
    for the whole batch on uint32 arrays and PCG64's two-step seeding on
    Python ints, which leaves one state assignment per key.
    """
    if len(keys) and not (min(keys) >= 0 and max(keys) <= _MASK32):
        raise ValueError("keys must lie in [0, 2**32)")
    entropy = np.array(keys, dtype=np.uint32)
    zero = np.zeros_like(entropy)
    hashes = iter(_POOL_HASHES)
    pool = [_hashmix(word, *next(hashes)) for word in (entropy, zero, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(hashes)))
    # generate_state(4, np.uint64): eight words cycled from the pool, paired
    # little-endian into (seed high, seed low, inc high, inc low).
    words = [_hashmix(pool[i % 4], *_STATE_HASHES[i]).astype(np.uint64) for i in range(8)]
    halves = [(words[i] | (words[i + 1] << np.uint64(32))).tolist() for i in range(0, 8, 2)]
    return _reseeded(zip(*halves))


def _reseeded(seeds: Iterator[tuple[int, int, int, int]]) -> Iterator[np.random.Generator]:
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for seed_hi, seed_lo, seq_hi, seq_lo in seeds:
        # pcg64_srandom_r: inc = seq << 1 | 1, then two LCG steps from 0 with
        # the seed added in between.
        inc = ((((seq_hi << 64) | seq_lo) << 1) | 1) & _MASK128
        state = ((((seed_hi << 64) | seed_lo) + inc) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


class RandomStreams:
    """A registry of named, independently seeded numpy generators."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """Base seed from which every named stream is derived."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        if name not in self._streams:
            derived = (self._seed * 0x9E3779B97F4A7C15 + stable_hash(name)) % (1 << 63)
            self._streams[name] = np.random.default_rng(derived)
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Derive an independent child registry, e.g. per simulation run."""
        derived = (self._seed * 0x9E3779B97F4A7C15 + stable_hash(name)) % (1 << 63)
        return RandomStreams(seed=derived)

    def reset(self) -> None:
        """Drop all streams so they are re-created from the base seed."""
        self._streams.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed}, streams={sorted(self._streams)})"
