"""Deterministic random streams for reproducible simulations.

Every stochastic component (arrival process, network jitter, quality noise,
classifier noise, ...) draws from its own named stream so that changing how
one component consumes randomness does not perturb the others.

Hot loops need not call a ``Generator`` for every draw.  numpy's
``random()``, ``integers()`` and ``normal()`` are functions of PCG64's raw
64-bit outputs, which this module decodes exactly: :class:`FirstDraws` for
the first draw of each of many fresh ``np.random.default_rng(key)``
streams, seeded in one vectorised pass, and :class:`DecodedStream` for a
running generator's draws, read from blocks of ``random_raw`` output.
Whatever they do not decode (the ziggurat's slow path, ranges wider than 32
bits) numpy draws from the exact state.  Both defer to numpy entirely
unless :func:`decoder_active`'s self-check passes.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager

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
_MASK52 = (1 << 52) - 1
_MASK128 = (1 << 128) - 1
#: SeedSequence's mixing constants (numpy/random/bit_generator.pyx).
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
#: PCG64's 128-bit LCG multiplier, and its inverse modulo 2**128.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_MULT_INV = pow(_PCG64_MULT, -1, 1 << 128)
#: numpy's next_double scales an output's top 53 bits by this.
_DOUBLE_UNIT = 1.0 / 9007199254740992.0
#: Fewer keys than this are seeded one ``default_rng`` at a time: a
#: vectorised pass costs about as much as two dozen of those, whatever its
#: size.
FIRST_DRAWS_CROSSOVER = 24
#: Streams seeded in one vectorised pass at most: enough to spread the
#: fixed cost of a pass's array operations, few enough to keep its
#: temporaries small.
_SEEDS_PER_BATCH = 1024


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


def _hashmix(words, xor, mult):
    words = (words ^ xor) * mult
    return words ^ (words >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


#: A one-word SeedSequence hashes 16 values into its pool of four words
#: (INIT_A/MULT_A), then 8 more as PCG64 draws its 4-word seed (INIT_B/MULT_B).
_POOL_HASHES = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASHES = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
#: Pool words 1-3 hash a zero word, the same for every key.
_ZERO_POOL = np.concatenate(
    [_hashmix(np.zeros(1, dtype=np.uint32), *pair) for pair in _POOL_HASHES[1:4]]
)[:, None]
#: The mixing pass: each source word is hashed into the other three, which
#: do not depend on one another, so each step updates three rows at once.
_MIX_STEPS = [
    (
        src,
        [dst for dst in range(4) if dst != src],
        _column([xor for xor, _ in _POOL_HASHES[4 + 3 * src : 7 + 3 * src]]),
        _column([mult for _, mult in _POOL_HASHES[4 + 3 * src : 7 + 3 * src]]),
    )
    for src in range(4)
]
#: generate_state(4, np.uint64) hashes eight words cycled from the pool.
_STATE_ROWS = [i % 4 for i in range(8)]
_STATE_XOR = _column([x for x, _ in _STATE_HASHES])
_STATE_MULT = _column([m for _, m in _STATE_HASHES])
#: PCG64's multiplier as four little-endian 32-bit limbs.
_MULT_LIMBS = [np.uint64((_PCG64_MULT >> (32 * k)) & _MASK32) for k in range(4)]
_M32 = np.uint64(_MASK32)


def _carry(columns: list) -> list:
    """Little-endian column sums (each well below 2**64) as the 32-bit
    limbs of their total modulo 2**128."""
    limbs, carry = [], 0
    for column in columns:
        total = column + carry
        limbs.append(total & _M32)
        carry = total >> 32
    return limbs


def _step(state: list, inc: list) -> list:
    """One PCG64 LCG step, state * multiplier + inc, on 32-bit limbs.

    Only the products that reach the low 128 bits are formed; each fits a
    uint64, and each column sums at most seven 32-bit halves."""
    columns = [inc[0], inc[1], inc[2], inc[3]]
    for i in range(4):
        for j in range(4 - i):
            product = state[i] * _MULT_LIMBS[j]
            columns[i + j] = columns[i + j] + (product & _M32)
            if i + j < 3:
                columns[i + j + 1] = columns[i + j + 1] + (product >> 32)
    return _carry(columns)


def _seeded_states(keys: Sequence[int]) -> np.ndarray:
    """For each key in [0, 2**32), the PCG64 state that
    ``np.random.default_rng(key)`` starts in: rows 0-3 hold its 128-bit
    state and rows 4-7 its increment, as little-endian 32-bit limbs.

    SeedSequence's hash mixing runs on uint32 arrays, PCG64's seeding on
    uint64 arrays of 32-bit limbs."""
    entropy = np.asarray(keys, dtype=np.uint32)
    pool = np.empty((4, len(entropy)), dtype=np.uint32)
    pool[0] = _hashmix(entropy, *_POOL_HASHES[0])
    pool[1:] = _ZERO_POOL
    for src, others, xor, mult in _MIX_STEPS:
        pool[others] = _mix(pool[others], _hashmix(pool[src], xor, mult))
    # Paired little-endian into (seed high, seed low, seq high, seq low).
    words = _hashmix(pool[_STATE_ROWS], _STATE_XOR, _STATE_MULT).astype(np.uint64)
    seed = [words[2], words[3], words[0], words[1]]
    seq = [words[6], words[7], words[4], words[5]]
    # pcg64_srandom_r: inc = seq << 1 | 1, then two LCG steps from 0 with
    # the seed added in between.
    inc = [(seq[0] << 1 | 1) & _M32] + [(seq[k] << 1 | seq[k - 1] >> 31) & _M32 for k in (1, 2, 3)]
    state = _step(_carry([s + i for s, i in zip(seed, inc)]), inc)
    return np.stack(state + inc)


def _xsl_rr(state: list) -> np.ndarray:
    """PCG64's output for each 128-bit state: the xor of its halves,
    rotated right by its top six bits."""
    folded = ((state[3] ^ state[1]) << 32) | (state[2] ^ state[0])
    rotation = state[3] >> 26
    return (folded >> rotation) | (folded << ((64 - rotation) & 63))


def _pcg64_state(state: int, inc: int, has_uint32: int = 0, uinteger: int = 0) -> dict:
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }


# ---------------------------------------------------------------------- #
# The ziggurat's fast path, with tables read back from numpy
# ---------------------------------------------------------------------- #
#: numpy's ziggurat tables for standard_normal, filled by _probe_tables:
#: layer i accepts a 52-bit magnitude below _KI[i], scaled by _WI[i].
_KI: list[int] = []
_WI: list[float] = []


def _standard_normal(output: int) -> float | None:
    """The standard normal numpy draws from ``output`` when its ziggurat
    takes the fast path (None when it takes the slow path, which draws
    more): layer from the low 8 bits, sign from bit 8, magnitude from the
    52 bits above."""
    layer = output & 0xFF
    magnitude = (output >> 9) & _MASK52
    if magnitude < _KI[layer]:
        x = magnitude * _WI[layer]
        return -x if output & 0x100 else x
    return None


def _least(rejects: Callable[[int], bool], guess: int, top: int) -> int:
    """The least r in [0, top] that ``rejects`` (monotone: false, then
    true; ``top`` counts as rejected), searched outward from ``guess``."""
    def test(r: int) -> bool:
        return r >= top or rejects(r)

    guess = min(max(guess, 0), top)
    step = 1
    if test(guess):
        hi, lo = guess, guess - 1
        while lo >= 0 and test(lo):
            hi, step = lo, step * 2
            lo = hi - step
        lo = max(lo + 1, 0)
    else:
        lo, hi = guess + 1, min(guess + 1, top)
        while not test(hi):
            lo, step = hi + 1, step * 2
            hi = min(hi + step, top)
    while lo < hi:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _probe_tables() -> tuple[list[int], list[float]]:
    """numpy's ziggurat tables, read back through ``standard_normal()``
    from states crafted to output a chosen word.

    The fast path consumes one output and returns magnitude * wi, so a
    magnitude of 1 reads wi where it is accepted; ki, the first magnitude a
    layer sends to the slow path, is searched for from near
    ``2**52 * wi[i-1] / wi[i]``, where numpy's tables put it."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)

    def fast(layer: int, magnitude: int) -> float | None:
        word = magnitude << 9 | layer
        # After its step this state has high half 0, so no rotation, and
        # low half the word.
        bit_generator.state = _pcg64_state((word - 1) * _PCG64_MULT_INV & _MASK128, 1)
        value = rng.standard_normal()
        return value if bit_generator.state["state"]["state"] == word else None

    wi = [fast(layer, 1) or 0.0 for layer in range(256)]
    ki = []
    for layer in range(256):
        guess = int(wi[layer - 1] / wi[layer] * 2.0**52) if wi[layer] else 0
        ki.append(_least(lambda m, layer=layer: fast(layer, m) is None, guess, 1 << 52))
    return ki, wi


def _load_tables() -> None:
    if not _KI:
        _KI[:], _WI[:] = _probe_tables()


_decoder: bool | None = None


def decoder_active() -> bool:
    """Whether draws are decoded rather than made by numpy.

    The first call probes the ziggurat tables from the installed numpy and
    compares a few hundred decoded draws with numpy's own; any mismatch (a
    numpy whose ``normal`` fuses ``loc + scale * z`` into one multiply-add,
    say, which Python cannot reproduce) leaves every draw to numpy."""
    global _decoder
    if _decoder is None:
        try:
            _load_tables()
            _decoder = _self_check()
        except (KeyError, TypeError, ValueError):  # a PCG64 state this module does not know
            _decoder = False
    return _decoder


#: (loc, scale) pairs the self-check draws normals at; those with loc != 0
#: catch a fused multiply-add.
_CHECK_NORMALS = ((21.5, 0.9), (0.0, 0.35), (0.0, 0.01), (-3.0, 2.5))


def _self_check() -> bool:
    """Whether decoded first draws and a decoded stream's mixed draws, and
    its final state, equal numpy's."""
    keys = list(range(320)) + [2**31, _MASK32]
    draws = FirstDraws(keys, decode=True)
    for key in keys:
        expected = np.random.default_rng(key)
        if key % 5 == 4:
            same = draws.random().hex() == expected.random().hex()
        else:
            loc, scale = _CHECK_NORMALS[key % 5]
            same = draws.normal(loc, scale).hex() == expected.normal(loc, scale).hex()
        if not same:
            return False
    decoded, expected = DecodedStream(np.random.default_rng(1)), np.random.default_rng(1)
    for i in range(300):
        if i % 4 == 0:
            loc, scale = _CHECK_NORMALS[i % 3]
            same = decoded.normal(loc, scale).hex() == expected.normal(loc, scale).hex()
        elif i % 4 == 1:
            same = decoded.random().hex() == expected.random().hex()
        else:
            # Small, rejection-heavy, full 32-bit, empty and wider ranges.
            low, high = ((0, 3), (0, 2**31 + 1), (-5, 2**32 - 5), (7, 8), (0, 2**40))[i % 5]
            same = decoded.integers(low, high) == int(expected.integers(low, high))
        if not same:
            return False
    decoded.sync()
    return decoded._rng.bit_generator.state == expected.bit_generator.state


# ---------------------------------------------------------------------- #
# Draw sources
# ---------------------------------------------------------------------- #
class FirstDraws:
    """The first draw of each of a batch of fresh streams: each
    :meth:`random` or :meth:`normal` call returns what that call would on
    ``np.random.default_rng(key)`` for the next of ``keys`` in order.

    From :data:`FIRST_DRAWS_CROSSOVER` keys up, while the decoder is
    active, the streams are seeded up to ``_SEEDS_PER_BATCH`` keys at a
    time in one vectorised pass, and their first outputs decoded; a
    slow-path normal is drawn by numpy from the stream's seeded state.
    Otherwise each stream is a ``default_rng(key)``.  ``decode`` overrides that choice; the
    self-check decodes whatever its outcome so far.
    """

    def __init__(self, keys: Sequence[int], decode: bool | None = None) -> None:
        if len(keys) and not (min(keys) >= 0 and max(keys) <= _MASK32):
            raise ValueError("keys must lie in [0, 2**32)")
        self._keys = keys
        self._next = 0
        self._outputs: list[int] | None = None
        if decode is None:
            decode = len(keys) >= FIRST_DRAWS_CROSSOVER and decoder_active()
        if decode:
            _load_tables()
            starts = range(0, len(keys), _SEEDS_PER_BATCH)
            states = [_seeded_states(keys[start : start + _SEEDS_PER_BATCH]) for start in starts]
            self._states = np.concatenate(states, axis=1) if states else np.empty((8, 0), np.uint64)
            self._outputs = _xsl_rr(_step(self._states[:4], self._states[4:])).tolist()
            self._numpy = np.random.Generator(np.random.PCG64(0))

    def _take(self) -> int:
        index = self._next
        self._next = index + 1
        return index

    def _stream(self, index: int) -> np.random.Generator:
        """A generator in the state the stream at ``index`` starts in."""
        if self._outputs is None:
            return np.random.default_rng(self._keys[index])
        limbs = self._states[:, index].tolist()
        state = limbs[0] | limbs[1] << 32 | limbs[2] << 64 | limbs[3] << 96
        inc = limbs[4] | limbs[5] << 32 | limbs[6] << 64 | limbs[7] << 96
        self._numpy.bit_generator.state = _pcg64_state(state, inc)
        return self._numpy

    def random(self) -> float:
        index = self._take()
        if self._outputs is None:
            return self._stream(index).random()
        return (self._outputs[index] >> 11) * _DOUBLE_UNIT

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        index = self._take()
        if self._outputs is not None and scale > 0.0:
            x = _standard_normal(self._outputs[index])
            if x is not None:
                return loc + scale * x
        return self._stream(index).normal(loc, scale)


class DecodedStream:
    """``random()``, ``integers(low, high)`` and ``normal(loc, scale)``
    drawn as a PCG64 ``Generator`` draws them, from blocks of its raw
    output.

    The generator runs ahead by up to a block while draws are decoded;
    :meth:`sync` puts it exactly where the same calls made on it would
    have, 32-bit carry included.  numpy draws what is not decoded, from
    that exact state.
    """

    #: Outputs read at once: a prompt takes about ten.
    BLOCK = 256

    def __init__(self, rng: np.random.Generator) -> None:
        _load_tables()
        self._rng = rng
        self._bit_generator = rng.bit_generator
        self._restart()

    def _restart(self) -> None:
        """Decode onwards from wherever the generator stands."""
        state = self._bit_generator.state
        self._start = state["state"]
        self._has_uint32 = state["has_uint32"]
        self._uinteger = state["uinteger"]
        #: Outputs taken since _start, before the current block.
        self._consumed = 0
        self._raw: list[int] = []
        self._pos = 0

    def sync(self) -> None:
        """Leave the generator where the draws decoded so far would."""
        consumed = self._consumed + self._pos
        bit_generator = self._bit_generator
        start = self._start
        bit_generator.state = _pcg64_state(
            start["state"], start["inc"], self._has_uint32, self._uinteger
        )
        if consumed:
            bit_generator.random_raw(consumed, output=False)
        self._consumed, self._raw, self._pos = consumed, [], 0

    def _by_numpy(self, draw: Callable[[np.random.Generator], object]):
        self.sync()
        value = draw(self._rng)
        self._restart()
        return value

    def _next64(self) -> int:
        pos = self._pos
        if pos == len(self._raw):
            self._consumed += pos
            self._raw = self._bit_generator.random_raw(self.BLOCK).tolist()
            pos = 0
        self._pos = pos + 1
        return self._raw[pos]

    def _next32(self) -> int:
        """numpy's next_uint32: the low half of an output, then its high
        half at the next call."""
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        output = self._next64()
        self._has_uint32 = 1
        self._uinteger = output >> 32
        return output & _MASK32

    def random(self) -> float:
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def integers(self, low: int, high: int) -> int:
        """``integers(low, high)``: Lemire's method on 32-bit draws for a
        range of up to 2**32 values; numpy draws any other."""
        span = high - low - 1
        if span == 0:
            return low
        if not 0 < span <= _MASK32:
            return int(self._by_numpy(lambda rng: rng.integers(low, high)))
        if span == _MASK32:
            return low + self._next32()
        bound = span + 1
        product = self._next32() * bound
        if product & _MASK32 < bound:
            threshold = (_MASK32 - span) % bound
            while product & _MASK32 < threshold:
                product = self._next32() * bound
        return low + (product >> 32)

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        if scale > 0.0:  # numpy checks the rest
            x = _standard_normal(self._next64())
            if x is not None:
                return loc + scale * x
            self._pos -= 1  # numpy redraws from that output on
        return self._by_numpy(lambda rng: rng.normal(loc, scale))


@contextmanager
def decoded(rng: np.random.Generator) -> Iterator[DecodedStream | np.random.Generator]:
    """A :class:`DecodedStream` over ``rng`` while the decoder is active,
    else ``rng`` itself; either way ``rng`` ends where the draws made
    through what this yields leave it."""
    if not (decoder_active() and isinstance(rng.bit_generator, np.random.PCG64)):
        yield rng
        return
    stream = DecodedStream(rng)
    try:
        yield stream
    finally:
        stream.sync()


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
