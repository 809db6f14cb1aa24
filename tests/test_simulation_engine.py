"""Tests for the discrete-event simulation engine, clock and random streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation import Clock, RandomStreams, SimulationEngine, stable_hash
from repro.simulation.randomness import seeded_generators


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


class TestSeededGenerators:
    """Batch seeding puts a generator exactly where ``default_rng`` starts."""

    @staticmethod
    def _assert_matches_default_rng(keys):
        for key, rng in zip(keys, seeded_generators(keys), strict=True):
            reference = np.random.default_rng(key)
            assert rng.bit_generator.state == reference.bit_generator.state, key
            assert rng.normal().hex() == reference.normal().hex(), key
            assert rng.random().hex() == reference.random().hex(), key

    def test_edge_keys(self):
        self._assert_matches_default_rng([0, 1, 2**31, 2**32 - 1])

    def test_random_keys(self):
        keys = np.random.default_rng(11).integers(0, 2**32, size=10_000).tolist()
        self._assert_matches_default_rng(keys)

    def test_repeated_keys_and_empty_batch(self):
        self._assert_matches_default_rng([7, 7, 3, 7])
        assert list(seeded_generators([])) == []

    @pytest.mark.parametrize("keys", [[-1], [2**32], [5, 2**40], [2**64]])
    def test_keys_outside_32_bits_rejected(self, keys):
        with pytest.raises(ValueError):
            seeded_generators(keys)


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
