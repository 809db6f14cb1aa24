"""Tests for the softmax classifier, training pipeline and drift detector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.classifier.drift import DriftDetector
from repro.classifier.model import SoftmaxClassifier
from repro.classifier.trainer import ClassifierTrainer
from repro.models.zoo import Strategy
from repro.prompts.dataset import PromptDataset
from repro.quality.optimal import OptimalModelSelector
from repro.quality.pickscore import PickScoreModel


def _separable_data(n=400, num_features=4, num_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 3.0, size=(num_classes, num_features))
    labels = rng.integers(0, num_classes, size=n)
    features = centers[labels] + rng.normal(0.0, 0.4, size=(n, num_features))
    return features, labels


class TestSoftmaxClassifier:
    def test_learns_separable_data(self):
        features, labels = _separable_data()
        model = SoftmaxClassifier(num_features=4, num_classes=3, seed=0)
        model.fit(features, labels, epochs=40)
        assert model.accuracy(features, labels) > 0.95

    def test_loss_decreases(self):
        features, labels = _separable_data()
        model = SoftmaxClassifier(num_features=4, num_classes=3, seed=0)
        history = model.fit(features, labels, epochs=20)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_probabilities_sum_to_one(self):
        features, labels = _separable_data(n=50)
        model = SoftmaxClassifier(num_features=4, num_classes=3)
        proba = model.predict_proba(features)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_predict_one(self):
        features, labels = _separable_data(n=100)
        model = SoftmaxClassifier(num_features=4, num_classes=3, seed=0)
        model.fit(features, labels, epochs=30)
        assert 0 <= model.predict_one(features[0]) < 3

    @pytest.mark.parametrize("seed", range(20))
    def test_predict_one_matches_predict(self, seed):
        rng = np.random.default_rng(seed)
        model = SoftmaxClassifier(num_features=8, num_classes=6, seed=seed)
        model.weights = rng.normal(0.0, rng.choice([1e-12, 1e-3, 1.0, 1e3]), size=(8, 6))
        model.bias = rng.normal(0.0, 1.0, size=6)
        for features in rng.normal(0.0, 1.0, size=(50, 8)):
            assert model.predict_one(features) == model.predict(features)[0]

    def test_predict_one_near_ties_follow_the_softmax(self):
        model = SoftmaxClassifier(num_features=3, num_classes=4)
        model.weights = np.zeros((3, 4))
        features = np.ones(3)
        # Equal top logits: the softmax ties them and argmax takes the first.
        model.bias = np.array([0.1, 0.5, 0.5, 0.2])
        assert model.predict_one(features) == model.predict(features)[0] == 1
        # One ulp apart near 0.1: exp() of the gap rounds to 1.0, so the
        # softmax ties them as well, unlike the logits.
        model.bias = np.array([0.0, 0.1, np.nextafter(0.1, 1.0), 0.05])
        assert model.predict_proba(features)[0, 1] == model.predict_proba(features)[0, 2]
        assert model.predict_one(features) == model.predict(features)[0] == 1
        # Just outside the near-tie band the larger logit wins on both paths.
        model.bias = np.array([0.0, 0.1, 0.1 + 1e-6, 0.05])
        assert model.predict_one(features) == model.predict(features)[0] == 2

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_predict_one_non_finite_weights_follow_the_softmax(self, bad):
        model = SoftmaxClassifier(num_features=3, num_classes=4, seed=1)
        model.weights[1, 2] = bad
        features = np.array([0.5, 1.0, -0.25])
        with np.errstate(invalid="ignore", over="ignore"):
            assert model.predict_one(features) == model.predict(features)[0]

    def test_validation_history_recorded(self):
        features, labels = _separable_data(n=200)
        model = SoftmaxClassifier(num_features=4, num_classes=3, seed=0)
        model.fit(features[:150], labels[:150], epochs=5, validation=(features[150:], labels[150:]))
        assert len(model.history.validation_accuracy) == 5

    def test_state_dict_roundtrip(self):
        features, labels = _separable_data(n=100)
        model = SoftmaxClassifier(num_features=4, num_classes=3, seed=0)
        model.fit(features, labels, epochs=10)
        clone = SoftmaxClassifier(num_features=4, num_classes=3, seed=99)
        clone.load_state_dict(model.state_dict())
        np.testing.assert_allclose(model.predict(features), clone.predict(features))

    def test_state_dict_shape_mismatch(self):
        model = SoftmaxClassifier(num_features=4, num_classes=3)
        other = SoftmaxClassifier(num_features=5, num_classes=3)
        with pytest.raises(ValueError):
            model.load_state_dict(other.state_dict())

    def test_empty_training_rejected(self):
        model = SoftmaxClassifier(num_features=4, num_classes=3)
        with pytest.raises(ValueError):
            model.fit(np.zeros((0, 4)), np.zeros(0, dtype=int))

    def test_mismatched_lengths_rejected(self):
        model = SoftmaxClassifier(num_features=4, num_classes=3)
        with pytest.raises(ValueError):
            model.fit(np.zeros((10, 4)), np.zeros(5, dtype=int))

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            SoftmaxClassifier(num_features=0, num_classes=3)
        with pytest.raises(ValueError):
            SoftmaxClassifier(num_features=4, num_classes=1)


class TestClassifierTrainer:
    @pytest.fixture(scope="class")
    def trained(self):
        pickscore = PickScoreModel(seed=0)
        dataset = PromptDataset.synthetic(count=1200, seed=11)
        trainer = ClassifierTrainer(pickscore)
        predictor = trainer.train(dataset.prompts, Strategy.AC, epochs=30, seed=0)
        return pickscore, dataset, trainer, predictor

    def test_labels_match_selector(self, trained):
        pickscore, dataset, trainer, _ = trained
        labeled = trainer.build_labels(dataset.prompts[:100], Strategy.AC)
        selector = OptimalModelSelector(pickscore)
        expected = [selector.optimal_rank(p, Strategy.AC) for p in dataset.prompts[:100]]
        assert labeled.labels.tolist() == expected

    def test_accuracy_beats_chance_by_wide_margin(self, trained):
        _, dataset, trainer, predictor = trained
        labeled = trainer.build_labels(dataset.prompts, Strategy.AC)
        accuracy = predictor.accuracy_against(labeled)
        assert accuracy > 0.45  # 6 classes -> chance is ~0.17.

    def test_predictions_mostly_within_one_rank(self, trained):
        pickscore, dataset, _, predictor = trained
        selector = OptimalModelSelector(pickscore)
        ranks = predictor.predict_ranks(dataset.prompts[:400])
        truth = [selector.optimal_rank(p, Strategy.AC) for p in dataset.prompts[:400]]
        within_one = np.mean([abs(r - t) <= 1 for r, t in zip(ranks, truth)])
        assert within_one > 0.85

    def test_classifier_routing_beats_random(self, trained):
        # §5.5: classifier-driven variant selection produces higher PickScore
        # than random variant selection.
        pickscore, dataset, _, predictor = trained
        prompts = dataset.prompts[800:1200]
        rng = np.random.default_rng(0)
        classifier_scores = [
            pickscore.score(p, Strategy.AC, predictor.predict_rank(p)) for p in prompts
        ]
        random_scores = [
            pickscore.score(p, Strategy.AC, int(rng.integers(0, 6))) for p in prompts
        ]
        assert np.mean(classifier_scores) > np.mean(random_scores) + 0.8

    def test_predict_rank_range(self, trained):
        _, dataset, _, predictor = trained
        for prompt in dataset.prompts[:50]:
            assert 0 <= predictor.predict_rank(prompt) <= 5

    def test_train_requires_enough_prompts(self):
        trainer = ClassifierTrainer(PickScoreModel(seed=0))
        with pytest.raises(ValueError):
            trainer.train(PromptDataset.synthetic(count=5, seed=0).prompts, Strategy.AC)

    def test_both_strategies_trained(self):
        trainer = ClassifierTrainer(PickScoreModel(seed=0))
        prompts = PromptDataset.synthetic(count=300, seed=2).prompts
        predictors = trainer.train_both_strategies(prompts, epochs=5)
        assert set(predictors) == {Strategy.AC, Strategy.SM}

    def test_loss_vs_pickscore_curve_improves(self):
        # Fig. 19: more training -> lower loss -> higher achieved PickScore.
        pickscore = PickScoreModel(seed=0)
        trainer = ClassifierTrainer(pickscore)
        prompts = PromptDataset.synthetic(count=800, seed=3).prompts
        curve = trainer.loss_vs_pickscore_curve(
            prompts, Strategy.AC, epoch_checkpoints=(1, 8, 24), seed=0
        )
        assert curve[-1]["train_loss"] < curve[0]["train_loss"]
        assert curve[-1]["mean_pickscore"] >= curve[0]["mean_pickscore"] - 0.05


class TestDriftDetector:
    def test_no_drift_on_stable_quality(self):
        detector = DriftDetector(window_size=50, warmup_windows=1)
        events = detector.observe_many([20.0] * 500)
        assert events == []

    def test_drift_fires_on_quality_drop(self):
        detector = DriftDetector(window_size=50, warmup_windows=1, tolerance=0.03)
        detector.observe_many([20.0] * 150)
        events = detector.observe_many([16.0] * 50)
        assert len(events) == 1
        assert events[0].deficit > 0

    def test_warmup_prevents_early_firing(self):
        detector = DriftDetector(window_size=20, warmup_windows=3, tolerance=0.0)
        events = detector.observe_many([20.0] * 20 + [10.0] * 20)
        assert events == []

    def test_reset_clears_history(self):
        detector = DriftDetector(window_size=20, warmup_windows=1)
        detector.observe_many([20.0] * 100)
        detector.reset()
        events = detector.observe_many([12.0] * 40)
        assert events == []  # history was cleared, so no baseline to compare.

    def test_windows_counted(self):
        detector = DriftDetector(window_size=10)
        detector.observe_many([20.0] * 35)
        assert detector.windows_seen == 3

    def test_until_window_closes_counts_down_to_the_closing_observation(self):
        detector = DriftDetector(window_size=4)
        seen = []
        for _ in range(9):
            seen.append(detector.until_window_closes)
            detector.observe(20.0)
        assert seen == [4, 3, 2, 1, 4, 3, 2, 1, 4]
        assert detector.windows_seen == 2
        detector.reset()
        assert detector.until_window_closes == 4

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DriftDetector(window_size=0)
        with pytest.raises(ValueError):
            DriftDetector(tolerance=1.5)

    def test_multiple_drops_fire_multiple_events(self):
        detector = DriftDetector(window_size=20, warmup_windows=1, tolerance=0.02)
        detector.observe_many([20.0] * 60)
        detector.observe_many([15.0] * 20)
        detector.observe_many([20.0] * 40)
        detector.observe_many([14.0] * 20)
        assert detector.num_drift_events >= 2
