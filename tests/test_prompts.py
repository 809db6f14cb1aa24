"""Tests for the prompt generator, dataset, embeddings and features."""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.prompts import memo
from repro.prompts.dataset import PromptDataset
from repro.prompts.embedding import PromptEmbedder
from repro.prompts.features import PromptFeaturizer
from repro.prompts.generator import Prompt, PromptGenerator
from repro.prompts.memo import PromptMemo, WordTable, tokenize


#: First 16 hex digits of the sha256 over ``PromptGenerator(seed, num_topics,
#: complexity_bias).generate(2000)`` of each prompt's ``repr((text,
#: complexity.hex(), topic, num_entities, num_attributes, num_style_tags,
#: has_action, has_scene))``.  A change to how the generator draws moves them.
GENERATOR_DIGESTS = [
    ((1, 24, 0.0), "c55d6b1bf38b7bcc"),
    ((101, 8, 2.0), "f5291a4d37a704a6"),
    ((7, 1, -2.0), "45832f6305841c26"),
]


class TestPromptGenerator:
    def test_generates_requested_count(self):
        assert len(PromptGenerator(seed=0).generate(50)) == 50

    def test_reproducible_with_same_seed(self):
        a = [p.text for p in PromptGenerator(seed=7).generate(20)]
        b = [p.text for p in PromptGenerator(seed=7).generate(20)]
        assert a == b

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "5a1b4e1ccb3a941bc07a388a19bc049f321b7d6945eed465fec5a842de2d820e"),
            (5, "d394255f58fa10c0d07a848f7c0fcb8941ab7de063051b2288778379d75582ca"),
        ],
    )
    def test_prompt_stream_is_pinned(self, seed, digest):
        # Every seeded experiment starts from this stream, so a faster
        # generator must produce exactly the same prompts.
        prompts = PromptGenerator(seed=seed).generate(500)
        payload = json.dumps([[p.text, p.complexity, p.topic] for p in prompts])
        assert hashlib.sha256(payload.encode()).hexdigest() == digest

    @pytest.mark.parametrize("decoder", ["decoded", "numpy"])
    @pytest.mark.parametrize(
        "options, digest", GENERATOR_DIGESTS, ids=["plain", "hard", "one-topic"]
    )
    def test_generator_output_is_pinned(self, request, decoder, options, digest):
        """Every field the generator draws, over 2,000 prompts, whether its
        draws are decoded or made by numpy."""
        if decoder == "numpy":
            request.getfixturevalue("decoder_off")
        seed, num_topics, complexity_bias = options
        generator = PromptGenerator(
            seed=seed, num_topics=num_topics, complexity_bias=complexity_bias
        )
        rows = hashlib.sha256()
        for p in generator.generate(2000):
            row = (
                p.text,
                p.complexity.hex(),
                p.topic,
                p.num_entities,
                p.num_attributes,
                p.num_style_tags,
                p.has_action,
                p.has_scene,
            )
            rows.update(repr(row).encode())
        assert rows.hexdigest()[:16] == digest

    def test_generate_continues_the_stream_generate_one_draws(self):
        generator, reference = PromptGenerator(seed=12), PromptGenerator(seed=12)
        prompts = generator.generate(7) + [generator.generate_one()] + generator.generate(30)
        assert prompts == [reference.generate_one() for _ in range(38)]
        assert generator._rng.bit_generator.state == reference._rng.bit_generator.state

    def test_tenant_tag_draws_nothing(self):
        plain = PromptGenerator(seed=3).generate(40)
        tagged = PromptGenerator(seed=3, tenant="gold").generate(40)
        assert tagged == [replace(prompt, tenant="gold") for prompt in plain]
        assert [p.content_hash() for p in tagged] == [p.content_hash() for p in plain]

    def test_different_seed_differs(self):
        a = [p.text for p in PromptGenerator(seed=1).generate(20)]
        b = [p.text for p in PromptGenerator(seed=2).generate(20)]
        assert a != b

    def test_prompt_ids_are_sequential(self):
        prompts = PromptGenerator(seed=0).generate(10)
        assert [p.prompt_id for p in prompts] == list(range(10))

    def test_complexity_in_unit_interval(self):
        for prompt in PromptGenerator(seed=0).generate(300):
            assert 0.0 <= prompt.complexity <= 1.0

    def test_complexity_increases_with_entities(self):
        prompts = PromptGenerator(seed=0).generate(2000)
        single = np.mean([p.complexity for p in prompts if p.num_entities == 1])
        multi = np.mean([p.complexity for p in prompts if p.num_entities >= 3])
        assert multi > single + 0.2

    def test_complexity_bias_shifts_distribution(self):
        base = np.mean([p.complexity for p in PromptGenerator(seed=0).generate(500)])
        shifted = np.mean(
            [p.complexity for p in PromptGenerator(seed=0, complexity_bias=0.3).generate(500)]
        )
        assert shifted > base + 0.15

    def test_topics_within_range(self):
        generator = PromptGenerator(seed=0, num_topics=8)
        for prompt in generator.generate(100):
            assert 0 <= prompt.topic < 8

    def test_text_nonempty_and_tokenizable(self):
        for prompt in PromptGenerator(seed=0).generate(50):
            assert prompt.num_tokens >= 2
            assert prompt.content_hash() == prompt.content_hash()


class TestPromptDataset:
    def test_synthetic_size(self):
        assert len(PromptDataset.synthetic(count=123, seed=0)) == 123

    def test_indexing_and_iteration(self):
        ds = PromptDataset.synthetic(count=10, seed=0)
        assert isinstance(ds[0], Prompt)
        assert len(list(iter(ds))) == 10

    def test_split_preserves_order_and_size(self):
        ds = PromptDataset.synthetic(count=100, seed=0)
        train, test = ds.split(train_fraction=0.8)
        assert len(train) == 80 and len(test) == 20
        assert train[0].prompt_id == ds[0].prompt_id
        assert test[0].prompt_id == ds[80].prompt_id

    def test_split_invalid_fraction(self):
        with pytest.raises(ValueError):
            PromptDataset.synthetic(count=10, seed=0).split(train_fraction=1.5)

    def test_sample_without_replacement(self):
        ds = PromptDataset.synthetic(count=50, seed=0)
        sample = ds.sample(20, seed=1)
        ids = [p.prompt_id for p in sample]
        assert len(set(ids)) == 20

    def test_sample_too_large_raises(self):
        with pytest.raises(ValueError):
            PromptDataset.synthetic(count=5, seed=0).sample(10)

    def test_window(self):
        ds = PromptDataset.synthetic(count=30, seed=0)
        window = ds.window(5, 10)
        assert len(window) == 10
        assert window[0].prompt_id == ds[5].prompt_id

    def test_cycle_wraps_around(self):
        ds = PromptDataset.synthetic(count=3, seed=0)
        cycled = list(ds.cycle(7))
        assert len(cycled) == 7
        assert cycled[3].prompt_id == cycled[0].prompt_id

    def test_complexity_summary_keys(self):
        summary = PromptDataset.synthetic(count=100, seed=0).complexity_summary()
        assert set(summary) == {"mean", "std", "p10", "p50", "p90"}
        assert 0.0 <= summary["mean"] <= 1.0


class TestPromptEmbedder:
    def test_embedding_is_unit_norm(self, prompts_small):
        embedder = PromptEmbedder(dim=64)
        for prompt in prompts_small[:20]:
            assert np.linalg.norm(embedder.embed(prompt)) == pytest.approx(1.0)

    def test_embedding_deterministic(self, prompts_small):
        embedder = PromptEmbedder(dim=64)
        a = embedder.embed(prompts_small[0])
        b = PromptEmbedder(dim=64).embed(prompts_small[0])
        np.testing.assert_allclose(a, b)

    def test_same_topic_more_similar_than_cross_topic(self, prompts_medium):
        embedder = PromptEmbedder(dim=64)
        by_topic: dict[int, list] = {}
        for prompt in prompts_medium:
            by_topic.setdefault(prompt.topic, []).append(prompt)
        topics = [t for t, ps in by_topic.items() if len(ps) >= 2][:5]
        same, cross = [], []
        for i, topic in enumerate(topics):
            a, b = by_topic[topic][0], by_topic[topic][1]
            same.append(embedder.cosine_similarity(embedder.embed(a), embedder.embed(b)))
            other = by_topic[topics[(i + 1) % len(topics)]][0]
            cross.append(embedder.cosine_similarity(embedder.embed(a), embedder.embed(other)))
        assert np.mean(same) > np.mean(cross) + 0.2

    def test_batch_shape(self, prompts_small):
        embedder = PromptEmbedder(dim=32)
        matrix = embedder.embed_batch(prompts_small[:7])
        assert matrix.shape == (7, 32)

    def test_empty_batch(self):
        assert PromptEmbedder(dim=16).embed_batch([]).shape == (0, 16)

    def test_dim_too_small_rejected(self):
        with pytest.raises(ValueError):
            PromptEmbedder(dim=4)

    def test_cosine_similarity_bounds(self, prompts_small):
        embedder = PromptEmbedder(dim=64)
        a = embedder.embed(prompts_small[0])
        b = embedder.embed(prompts_small[1])
        assert -1.0 - 1e-9 <= embedder.cosine_similarity(a, b) <= 1.0 + 1e-9


class TestPromptFeaturizer:
    def test_dimension(self):
        featurizer = PromptFeaturizer(hashed_dim=48)
        assert featurizer.dim == len(PromptFeaturizer.STRUCTURAL_FEATURES) + 48

    def test_featurize_shape(self, prompts_small):
        featurizer = PromptFeaturizer()
        assert featurizer.featurize(prompts_small[0]).shape == (featurizer.dim,)

    def test_batch_shape(self, prompts_small):
        featurizer = PromptFeaturizer()
        matrix = featurizer.featurize_batch(prompts_small[:9])
        assert matrix.shape == (9, featurizer.dim)

    def test_accepts_raw_text(self):
        featurizer = PromptFeaturizer()
        vector = featurizer.featurize("a red apple on a wooden table, 8k")
        assert vector.shape == (featurizer.dim,)

    def test_deterministic(self, prompts_small):
        featurizer = PromptFeaturizer()
        np.testing.assert_allclose(
            featurizer.featurize(prompts_small[0]), featurizer.featurize(prompts_small[0])
        )

    def test_features_correlate_with_complexity(self, prompts_medium):
        # The "and" count feature tracks entity count, which drives complexity.
        featurizer = PromptFeaturizer(hashed_dim=0)
        and_index = list(PromptFeaturizer.STRUCTURAL_FEATURES).index("num_and")
        values = featurizer.featurize_batch(list(prompts_medium))[:, and_index]
        complexities = np.array([p.complexity for p in prompts_medium])
        correlation = np.corrcoef(values, complexities)[0, 1]
        assert correlation > 0.3

    def test_zero_hashed_dim_allowed(self):
        featurizer = PromptFeaturizer(hashed_dim=0)
        assert featurizer.dim == len(PromptFeaturizer.STRUCTURAL_FEATURES)

    def test_negative_hashed_dim_rejected(self):
        with pytest.raises(ValueError):
            PromptFeaturizer(hashed_dim=-1)

    def test_empty_batch(self):
        featurizer = PromptFeaturizer()
        assert featurizer.featurize_batch([]).shape == (0, featurizer.dim)


class TestTokensAndMemos:
    def test_tokenize_lowercases_and_strips_commas_and_periods(self):
        words = tokenize("A Red fox, jumping. ,. over...the  LAZY dog,")
        assert words == ["a", "red", "fox", "jumping", "over...the", "lazy", "dog"]
        assert tokenize("") == [] and tokenize(" ,. .. ") == []

    def test_prompt_memo_empties_when_full(self, monkeypatch):
        monkeypatch.setattr(memo, "MAX_ENTRIES", 3)
        table = PromptMemo()
        for key in range(5):
            assert table.remember(key, key * 10) == key * 10
            assert len(table) <= 3
        assert table == {3: 30, 4: 40}

    def test_word_table_derives_each_word_once_up_to_the_bound(self, monkeypatch):
        monkeypatch.setattr(memo, "MAX_ENTRIES", 2)
        derived = []
        table = WordTable(lambda word: derived.append(word) or len(word))
        assert [table[w] for w in ("ab", "ab", "abc", "abcd", "abcd")] == [2, 2, 3, 4, 4]
        assert derived == ["ab", "abc", "abcd", "abcd"]
        assert dict(table) == {"ab": 2, "abc": 3}

    def test_deep_copies_use_their_own_word_tables(self, prompts_small):
        embedder, featurizer = PromptEmbedder(dim=16), PromptFeaturizer()
        text = prompts_small[0].text
        embedder.embed_text(text)
        featurizer.featurize(text)
        embedder_copy, featurizer_copy = copy.deepcopy((embedder, featurizer))
        assert embedder_copy._words.derive.__self__ is embedder_copy
        assert featurizer_copy._words.derive.__self__ is featurizer_copy
        other = prompts_small[1].text
        assert embedder_copy.embed_text(other).tobytes() == embedder.embed_text(other).tobytes()
        assert featurizer_copy.featurize(other).tobytes() == featurizer.featurize(other).tobytes()
