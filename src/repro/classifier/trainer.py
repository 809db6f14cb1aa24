"""Training pipeline for the approximation-level predictor.

Labels come from the quality substrate: for each training prompt we compute
PickScores at every level and label the prompt with its optimal level (§4.1).
The trainer builds a :class:`TrainedPredictor` which the Argus scheduler uses
at serving time, and exposes the loss→PickScore relationship benchmarked in
Fig. 19.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.classifier.model import SoftmaxClassifier, TrainingHistory
from repro.models.zoo import Strategy
from repro.prompts.features import PromptFeaturizer
from repro.prompts.generator import Prompt
from repro.prompts.memo import PromptMemo
from repro.quality.optimal import OptimalModelSelector
from repro.quality.pickscore import PickScoreModel


@dataclass(frozen=True)
class LabeledPrompts:
    """Featurised prompts with their optimal-level labels."""

    strategy: Strategy
    prompts: tuple[Prompt, ...]
    features: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.prompts)


@dataclass
class TrainedPredictor:
    """A trained classifier bound to its featurizer and strategy."""

    strategy: Strategy
    classifier: SoftmaxClassifier
    featurizer: PromptFeaturizer
    history: TrainingHistory
    #: Rank memo keyed by prompt content hash.  The prediction is a pure
    #: function of the prompt text and the (frozen-after-fit) weights, so
    #: repeated prompts — dataset cycling dominates long traces — skip the
    #: featurize + matmul entirely.  Retraining builds a fresh predictor,
    #: which empties the memo automatically.
    _rank_memo: PromptMemo = field(default_factory=PromptMemo, repr=False, compare=False)

    def predict_rank(self, prompt: Prompt | str) -> int:
        """Predicted optimal approximation rank for one prompt."""
        if isinstance(prompt, Prompt):
            key = prompt.content_hash()
            rank = self._rank_memo.get(key)
            if rank is None:
                rank = self.classifier.predict_one(self.featurizer.featurize(prompt))
                self._rank_memo.remember(key, rank)
            return rank
        features = self.featurizer.featurize(prompt)
        return self.classifier.predict_one(features)

    def predict_ranks(self, prompts: list[Prompt | str]) -> list[int]:
        """:meth:`predict_rank` of each prompt, from one feature matrix and
        one batched product (the rank memo is neither read nor filled)."""
        if not prompts:
            return []
        return self.classifier.predict_rows(self.featurizer.featurize_batch(list(prompts)))

    def remember_ranks(self, prompts: list[Prompt]) -> None:
        """Fill the rank memo as :meth:`predict_rank` on each prompt in
        order would, predicting every miss in one :meth:`predict_ranks`."""
        self._rank_memo.remember_many(
            [prompt.content_hash() for prompt in prompts],
            lambda missed: self.predict_ranks([prompts[i] for i in missed]),
        )

    def accuracy_against(self, labeled: LabeledPrompts) -> float:
        """Accuracy against ground-truth optimal levels."""
        return self.classifier.accuracy(labeled.features, labeled.labels)


class ClassifierTrainer:
    """Builds labels from the quality model and trains per-strategy predictors."""

    def __init__(
        self,
        pickscore: PickScoreModel,
        featurizer: PromptFeaturizer | None = None,
        selector: OptimalModelSelector | None = None,
    ) -> None:
        self.pickscore = pickscore
        self.featurizer = featurizer or PromptFeaturizer()
        self.selector = selector or OptimalModelSelector(pickscore)

    # ------------------------------------------------------------------ #
    # Label construction
    # ------------------------------------------------------------------ #
    def build_labels(self, prompts: list[Prompt], strategy: Strategy | str) -> LabeledPrompts:
        """Compute optimal-level labels for a prompt sample."""
        strategy = Strategy(strategy)
        features = self.featurizer.featurize_batch(list(prompts))
        labels = np.array(self.selector.optimal_ranks(prompts, strategy), dtype=np.int64)
        return LabeledPrompts(
            strategy=strategy, prompts=tuple(prompts), features=features, labels=labels
        )

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def train(
        self,
        prompts: list[Prompt],
        strategy: Strategy | str,
        epochs: int = 30,
        validation_fraction: float = 0.2,
        seed: int = 0,
    ) -> TrainedPredictor:
        """Train a predictor for ``strategy`` on ``prompts``."""
        strategy = Strategy(strategy)
        labeled = self.build_labels(prompts, strategy)
        n = len(labeled)
        if n < 10:
            raise ValueError("need at least 10 prompts to train the classifier")
        cut = int(round(n * (1.0 - validation_fraction)))
        cut = max(1, min(n - 1, cut))
        train_x, val_x = labeled.features[:cut], labeled.features[cut:]
        train_y, val_y = labeled.labels[:cut], labeled.labels[cut:]

        classifier = SoftmaxClassifier(
            num_features=self.featurizer.dim,
            num_classes=self.pickscore.num_levels,
            seed=seed,
        )
        history = classifier.fit(
            train_x, train_y, epochs=epochs, validation=(val_x, val_y), seed=seed
        )
        return TrainedPredictor(
            strategy=strategy,
            classifier=classifier,
            featurizer=self.featurizer,
            history=history,
        )

    def train_both_strategies(
        self, prompts: list[Prompt], epochs: int = 30, seed: int = 0
    ) -> dict[Strategy, TrainedPredictor]:
        """Train the AC and SM predictors on the same prompt sample."""
        return {
            strategy: self.train(prompts, strategy, epochs=epochs, seed=seed)
            for strategy in (Strategy.AC, Strategy.SM)
        }

    # ------------------------------------------------------------------ #
    # Fig. 19: loss vs. achieved PickScore
    # ------------------------------------------------------------------ #
    def loss_vs_pickscore_curve(
        self,
        prompts: list[Prompt],
        strategy: Strategy | str,
        epoch_checkpoints: tuple[int, ...] = (1, 3, 6, 12, 24),
        eval_prompts: list[Prompt] | None = None,
        seed: int = 0,
    ) -> list[dict[str, float]]:
        """Train with increasing epoch budgets and measure achieved quality.

        For each checkpoint the classifier routes ``eval_prompts`` to its
        predicted level and the mean PickScore of those assignments is
        recorded, reproducing the loss-down / PickScore-up trend of Fig. 19.
        """
        strategy = Strategy(strategy)
        eval_prompts = eval_prompts or prompts
        curve = []
        for epochs in epoch_checkpoints:
            predictor = self.train(prompts, strategy, epochs=epochs, seed=seed)
            ranks = predictor.predict_ranks(eval_prompts)
            scores = [
                self.pickscore.score(p, strategy, rank)
                for p, rank in zip(eval_prompts, ranks)
            ]
            curve.append(
                {
                    "epochs": float(epochs),
                    "train_loss": predictor.history.final_train_loss,
                    "validation_accuracy": predictor.history.final_validation_accuracy,
                    "mean_pickscore": float(np.mean(scores)),
                }
            )
        return curve
