"""Tests for the discrete-event simulation engine, clock and random streams."""

from __future__ import annotations

import platform
import sys

import numpy as np
import pytest

from repro.simulation import Clock, RandomStreams, SimulationEngine, randomness, stable_hash
from repro.simulation.randomness import DecodedStream, FirstDraws, decoded


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now() == 0.0

    def test_custom_start(self):
        assert Clock(start=5.0).now() == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Clock(start=-1.0)

    def test_advance(self):
        clock = Clock()
        clock.advance_to(10.0)
        assert clock.now() == 10.0
        assert clock.now_minutes() == pytest.approx(10.0 / 60.0)

    def test_cannot_go_backwards(self):
        clock = Clock(start=10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)

    def test_reset(self):
        clock = Clock(start=10.0)
        clock.reset()
        assert clock.now() == 0.0


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("hello") == stable_hash("hello")

    def test_different_inputs_differ(self):
        assert stable_hash("hello") != stable_hash("world")

    def test_respects_bit_width(self):
        assert stable_hash("abc", bits=16) < (1 << 16)


class TestRandomStreams:
    def test_same_name_same_stream(self):
        streams = RandomStreams(seed=1)
        a = streams.stream("arrivals")
        b = streams.stream("arrivals")
        assert a is b

    def test_streams_are_independent(self):
        streams = RandomStreams(seed=1)
        first = streams.stream("a").random(5).tolist()
        # Consuming stream "b" must not perturb stream "a"'s future draws.
        streams2 = RandomStreams(seed=1)
        streams2.stream("b").random(100)
        second = streams2.stream("a").random(5).tolist()
        assert first == second

    def test_seed_changes_values(self):
        a = RandomStreams(seed=1).stream("x").random(5).tolist()
        b = RandomStreams(seed=2).stream("x").random(5).tolist()
        assert a != b

    def test_spawn_is_deterministic(self):
        a = RandomStreams(seed=1).spawn("child").stream("x").random(3).tolist()
        b = RandomStreams(seed=1).spawn("child").stream("x").random(3).tolist()
        assert a == b


#: The (loc, scale) pairs the PickScore oracle draws first normals at:
#: best score, AC/SM tolerance noise, and past-tolerance jitter.
_ORACLE_NORMALS = ((21.5, 0.9), (0.0, 0.35), (0.0, 0.01))


def _numpy_first_draws(key: int) -> list:
    """The PCG64 state ``np.random.default_rng(key)`` starts in, then
    ``random()`` and each oracle normal drawn first from it, as hex."""
    rng = np.random.default_rng(key)
    start = rng.bit_generator.state
    row = [start["state"], rng.random().hex()]
    for loc, scale in _ORACLE_NORMALS:
        rng.bit_generator.state = start
        row.append(rng.normal(loc, scale).hex())
    return row


def _decoded_first_draws(keys, decode=True) -> list:
    """:func:`_numpy_first_draws` for each key, through :class:`FirstDraws`
    and the batch seeding it decodes from."""
    draws = [FirstDraws(keys, decode=decode) for _ in range(1 + len(_ORACLE_NORMALS))]
    rows = []
    for limbs in randomness._seeded_states(keys).T.tolist():
        state, inc = (sum(limb << (32 * k) for k, limb in enumerate(limbs[h:][:4])) for h in (0, 4))
        row = [{"state": state, "inc": inc}, draws[0].random().hex()]
        normals = zip(draws[1:], _ORACLE_NORMALS)
        rows.append(row + [draw.normal(loc, scale).hex() for draw, (loc, scale) in normals])
    return rows


def _first_outputs(keys) -> list[int]:
    states = randomness._seeded_states(keys)
    return randomness._xsl_rr(randomness._step(states[:4], states[4:])).tolist()


def _output_state(word: int) -> int:
    """A PCG64 state whose next output, with increment 1, is ``word``."""
    return (word - 1) * randomness._PCG64_MULT_INV % 2**128


class TestSeededGenerators:
    """Streams seeded in batches (:class:`FirstDraws`): each starts in the
    state ``default_rng(key)`` starts in, and its decoded first draw is the
    one that generator makes."""

    @staticmethod
    def _assert_matches_default_rng(keys):
        assert _decoded_first_draws(keys) == [_numpy_first_draws(key) for key in keys]

    def test_edge_keys(self):
        self._assert_matches_default_rng([0, 1, 2**31, 2**32 - 1])

    def test_random_keys(self):
        keys = np.random.default_rng(11).integers(0, 2**32, size=100_000).tolist()
        self._assert_matches_default_rng(keys)

    def test_repeated_keys_and_empty_batch(self):
        self._assert_matches_default_rng([7, 7, 3, 7])
        assert FirstDraws([], decode=True)._outputs == []
        assert randomness._seeded_states([]).shape == (8, 0)

    @pytest.mark.parametrize("keys", [[-1], [2**32], [5, 2**40], [2**64]])
    def test_keys_outside_32_bits_rejected(self, keys):
        with pytest.raises(ValueError):
            FirstDraws(keys)
        with pytest.raises(ValueError):
            FirstDraws(keys * randomness.FIRST_DRAWS_CROSSOVER)

    def test_slow_path_normals_are_drawn_from_the_seeded_state(self):
        """Keys whose first output takes the ziggurat's slow path: the tail
        layer 0, and layer 1, whose fast path accepts nothing."""
        randomness._load_tables()
        keys = list(range(60_000))
        tail, layer_one = [], []
        for key, output in zip(keys, _first_outputs(keys)):
            layer, magnitude = output & 0xFF, (output >> 9) & (2**52 - 1)
            if layer == 0 and magnitude >= randomness._KI[0]:
                tail.append(key)
            elif layer == 1:
                layer_one.append(key)
        assert tail and layer_one and randomness._KI[1] == 0
        slow = tail + layer_one
        assert _decoded_first_draws(slow) == [_numpy_first_draws(key) for key in slow]

    def test_below_the_crossover_each_stream_is_seeded_alone(self):
        keys = list(range(randomness.FIRST_DRAWS_CROSSOVER - 1))
        assert FirstDraws(keys)._outputs is None
        assert _decoded_first_draws(keys, decode=None) == [_numpy_first_draws(k) for k in keys]


class TestDecodedStream:
    """A stream decoded from raw output draws what the Generator draws and
    leaves it in the same state."""

    @staticmethod
    def _draw(source, op: int):
        if op == 0:
            return source.random().hex()
        if op == 1:
            return source.normal(21.5, 0.9).hex()
        if op == 2:
            return source.normal(0.0, 0.05).hex()
        low, high = ((0, 2**31 + 1), (0, 3), (-7, 2**32 - 7), (4, 5), (0, 35), (0, 6))[op - 3]
        return int(source.integers(low, high))

    def test_a_million_mixed_draws(self):
        """Rejection-heavy, full-width and empty integer ranges, uniforms
        and normals (slow paths included) interleave, so a buffered 32-bit
        half crosses ``random`` and ``normal`` calls."""
        ops = np.random.default_rng(5).integers(0, 9, size=1_000_000).tolist()
        rng, reference = np.random.default_rng(123), np.random.default_rng(123)
        stream = DecodedStream(rng)
        decoded = [self._draw(stream, op) for op in ops]
        assert decoded == [self._draw(reference, op) for op in ops]
        stream.sync()
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_ranges_past_32_bits_are_drawn_by_numpy(self):
        rng, reference = np.random.default_rng(8), np.random.default_rng(8)
        stream = DecodedStream(rng)
        for high in (2**32 + 1, 2**40, 2**62):
            assert stream.integers(0, 3) == reference.integers(0, 3)
            assert stream.integers(0, high) == reference.integers(0, high)
            assert stream.random() == reference.random()
        with pytest.raises(ValueError):
            stream.integers(5, 5)
        stream.sync()
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("has_uint32", [0, 1])
    def test_crafted_states_at_each_layers_bound(self, has_uint32):
        """For every layer, the largest magnitude its fast path accepts and
        the smallest it rejects, and the tail layer's largest magnitude;
        a buffered 32-bit half must survive numpy's slow-path draws."""
        randomness._load_tables()
        words = [(2**52 - 1) << 9]
        for layer, bound in enumerate(randomness._KI):
            words += [m << 9 | 0x100 * (m & 1) | layer for m in (bound - 1, bound) if m >= 0]
        for word in words:
            state = randomness._pcg64_state(_output_state(word), 1, has_uint32, 0xDEADBEEF)
            rng, reference = np.random.default_rng(), np.random.default_rng()
            rng.bit_generator.state = reference.bit_generator.state = state
            stream = DecodedStream(rng)
            draws = [stream.normal(-1.5, 2.0).hex(), stream.integers(0, 1000)]
            assert draws == [reference.normal(-1.5, 2.0).hex(), reference.integers(0, 1000)]
            stream.sync()
            assert rng.bit_generator.state == reference.bit_generator.state, hex(word)

    def test_sync_mid_block_then_continue(self):
        rng, reference = np.random.default_rng(3), np.random.default_rng(3)
        stream = DecodedStream(rng)
        for i in range(2_000):
            assert self._draw(stream, i % 9) == self._draw(reference, i % 9)
            if i % 97 == 0:
                stream.sync()
                assert rng.bit_generator.state == reference.bit_generator.state

    def test_decoded_yields_the_generator_when_the_decoder_is_off(self, decoder_off):
        rng = np.random.default_rng(4)
        with decoded(rng) as source:
            assert source is rng
        assert FirstDraws(list(range(100)))._outputs is None


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and platform.machine() == "x86_64"),
    reason="the self-check is known to pass on linux x86-64",
)
def test_decoder_is_active_on_linux_x86_64():
    """A silent fallback to numpy would keep every result and lose the
    speed-up; on this platform the self-check passes."""
    assert randomness.decoder_active()
    assert len(randomness._KI) == len(randomness._WI) == 256


class TestSimulationEngine:
    def test_events_run_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_at(5.0, lambda e: order.append("late"))
        engine.schedule_at(1.0, lambda e: order.append("early"))
        engine.schedule_at(3.0, lambda e: order.append("middle"))
        engine.run()
        assert order == ["early", "middle", "late"]

    def test_ties_broken_by_insertion_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_at(1.0, lambda e: order.append("first"))
        engine.schedule_at(1.0, lambda e: order.append("second"))
        engine.run()
        assert order == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule_at(7.5, lambda e: seen.append(e.now))
        engine.run()
        assert seen == [7.5]
        assert engine.now == 7.5

    def test_cannot_schedule_in_past(self):
        engine = SimulationEngine()
        engine.schedule_at(10.0, lambda e: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule_at(5.0, lambda e: None)

    def test_schedule_in_relative_delay(self):
        engine = SimulationEngine()
        times = []
        engine.schedule_in(2.0, lambda e: times.append(e.now))
        engine.run()
        assert times == [2.0]

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule_in(-1.0, lambda e: None)

    def test_callbacks_can_schedule_more_events(self):
        engine = SimulationEngine()
        times = []

        def chain(e):
            times.append(e.now)
            if len(times) < 3:
                e.schedule_in(1.0, chain)

        engine.schedule_at(0.0, chain)
        engine.run()
        assert times == [0.0, 1.0, 2.0]

    def test_run_until_stops_before_future_events(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(100.0, lambda e: fired.append(True))
        engine.run(until=50.0)
        assert fired == []
        assert engine.now == 50.0
        engine.run(until=150.0)
        assert fired == [True]

    def test_cancelled_events_do_not_fire(self):
        engine = SimulationEngine()
        fired = []
        event = engine.schedule_at(1.0, lambda e: fired.append(True))
        event.cancel()
        engine.run()
        assert fired == []

    def test_periodic_scheduling(self):
        engine = SimulationEngine()
        ticks = []
        engine.schedule_every(10.0, lambda e: ticks.append(e.now))
        engine.run(until=35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_periodic_with_start_delay(self):
        engine = SimulationEngine()
        ticks = []
        engine.schedule_every(10.0, lambda e: ticks.append(e.now), start_delay=0.0)
        engine.run(until=25.0)
        assert ticks == [0.0, 10.0, 20.0]

    def test_max_events_bound(self):
        engine = SimulationEngine()
        engine.schedule_every(1.0, lambda e: None)
        processed = engine.run(until=1000.0, max_events=5)
        assert processed == 5

    def test_halt_stops_run(self):
        engine = SimulationEngine()
        seen = []

        def stop(e):
            seen.append(e.now)
            e.halt()

        engine.schedule_at(1.0, stop)
        engine.schedule_at(2.0, lambda e: seen.append(e.now))
        engine.run()
        assert seen == [1.0]

    def test_pending_and_processed_counters(self):
        engine = SimulationEngine()
        engine.schedule_at(1.0, lambda e: None)
        engine.schedule_at(2.0, lambda e: None)
        assert engine.pending_events == 2
        engine.run()
        assert engine.pending_events == 0
        assert engine.events_processed == 2

    def test_rng_access(self):
        engine = SimulationEngine(seed=3)
        values = engine.rng("test").random(3)
        assert len(values) == 3
