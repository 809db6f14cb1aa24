"""Multinomial logistic-regression classifier trained with mini-batch SGD."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Logits closer than this to the largest one make :meth:`SoftmaxClassifier.
#: predict_one` defer to the softmax, whose rounding may tie them.
_NEAR_TIE = 1e-9


@dataclass
class TrainingHistory:
    """Per-epoch loss and accuracy curves recorded during training."""

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    validation_loss: list[float] = field(default_factory=list)
    validation_accuracy: list[float] = field(default_factory=list)

    @property
    def final_train_loss(self) -> float:
        """Loss after the last epoch (inf when never trained)."""
        return self.train_loss[-1] if self.train_loss else float("inf")

    @property
    def final_validation_accuracy(self) -> float:
        """Validation accuracy after the last epoch (0 when never trained)."""
        return self.validation_accuracy[-1] if self.validation_accuracy else 0.0


class SoftmaxClassifier:
    """Softmax regression with L2 regularisation."""

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        learning_rate: float = 0.25,
        l2: float = 1e-4,
        seed: int = 0,
    ) -> None:
        if num_features <= 0 or num_classes <= 1:
            raise ValueError("need at least one feature and two classes")
        self.num_features = int(num_features)
        self.num_classes = int(num_classes)
        self.learning_rate = float(learning_rate)
        self.l2 = float(l2)
        rng = np.random.default_rng(seed)
        self.weights = rng.normal(0.0, 0.01, size=(num_features, num_classes))
        self.bias = np.zeros(num_classes)
        self.history = TrainingHistory()

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def logits(self, features: np.ndarray) -> np.ndarray:
        """Raw class scores for a feature matrix of shape (n, d)."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        return features @ self.weights + self.bias

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities via a numerically stable softmax."""
        scores = self.logits(features)
        scores -= scores.max(axis=1, keepdims=True)
        exp = np.exp(scores)
        return exp / exp.sum(axis=1, keepdims=True)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Most likely class for each row."""
        return np.argmax(self.predict_proba(features), axis=1)

    def predict_one(self, features: np.ndarray) -> int:
        """Most likely class for a single feature vector.

        The softmax keeps the logits' order, so the largest logit names the
        class; only near-ties (which the softmax's rounding may merge, and
        ``argmax`` then breaks towards the lower class) and non-finite
        logits go through :meth:`predict`.
        """
        logits = self.logits(features)[0].tolist()
        top = max(logits)
        if math.isfinite(sum(logits)) and sorted(logits)[-2] < top - _NEAR_TIE:
            return logits.index(top)
        return int(self.predict(np.atleast_2d(features))[0])

    def predict_rows(self, features: np.ndarray) -> list[int]:
        """:meth:`predict_one` of each row of a feature matrix, from one
        batched product.

        The batched logits may round apart from a 1-row product in the last
        bits, so a row takes its argmax only when its top two logits are
        further apart than the near-tie guard plus what rounding can move
        them; any other row, or one with a non-finite logit, goes through
        :meth:`predict_one`.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        with np.errstate(invalid="ignore", over="ignore"):
            logits = self.logits(features)
            top_two = np.partition(logits, -2, axis=1)[:, -2:]
            # Twice as far as any logit of the row can round from its exact
            # value, whatever the order of the product's sums.
            scale = np.abs(features) @ np.abs(self.weights) + np.abs(self.bias)
            bound = (features.shape[1] + 2) * np.finfo(np.float64).eps * scale.max(axis=1)
            gap = top_two[:, 1] - top_two[:, 0]
            sure = np.isfinite(logits).all(axis=1) & (gap > _NEAR_TIE + 4.0 * bound)
        ranks = np.argmax(logits, axis=1).tolist()
        for row in np.flatnonzero(~sure).tolist():
            ranks[row] = self.predict_one(features[row])
        return ranks

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Fraction of rows classified correctly."""
        return self.evaluate(features, labels)[1]

    def evaluate(self, features: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
        """Mean cross-entropy loss plus the L2 penalty, and the fraction of
        rows classified correctly, from one softmax pass."""
        labels = np.asarray(labels, dtype=np.int64)
        n = len(labels)
        if n == 0:
            return 0.0, 0.0
        probabilities = self.predict_proba(features)
        picked = probabilities[np.arange(n), labels]
        nll = -np.log(np.clip(picked, 1e-12, None)).mean()
        loss = float(nll + 0.5 * self.l2 * np.sum(self.weights ** 2))
        return loss, float((np.argmax(probabilities, axis=1) == labels).mean())

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int = 30,
        batch_size: int = 64,
        validation: tuple[np.ndarray, np.ndarray] | None = None,
        seed: int = 0,
    ) -> TrainingHistory:
        """Train with mini-batch SGD, recording loss/accuracy per epoch."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.shape[0] != labels.shape[0]:
            raise ValueError("features and labels must have the same length")
        if features.shape[0] == 0:
            raise ValueError("cannot train on an empty dataset")
        rng = np.random.default_rng(seed)
        n = features.shape[0]

        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                batch = order[start : start + batch_size]
                self._sgd_step(features[batch], labels[batch])
            loss, accuracy = self.evaluate(features, labels)
            self.history.train_loss.append(loss)
            self.history.train_accuracy.append(accuracy)
            if validation is not None:
                loss, accuracy = self.evaluate(*validation)
                self.history.validation_loss.append(loss)
                self.history.validation_accuracy.append(accuracy)
        return self.history

    def _sgd_step(self, features: np.ndarray, labels: np.ndarray) -> None:
        n = features.shape[0]
        probabilities = self.predict_proba(features)
        one_hot = np.zeros_like(probabilities)
        one_hot[np.arange(n), labels] = 1.0
        error = probabilities - one_hot
        grad_w = features.T @ error / n + self.l2 * self.weights
        grad_b = error.mean(axis=0)
        self.weights -= self.learning_rate * grad_w
        self.bias -= self.learning_rate * grad_b

    # ------------------------------------------------------------------ #
    # Persistence helpers
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Serializable snapshot of the model parameters."""
        return {
            "weights": self.weights.copy(),
            "bias": self.bias.copy(),
            "num_features": self.num_features,
            "num_classes": self.num_classes,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore parameters from :meth:`state_dict` output."""
        weights = np.asarray(state["weights"], dtype=np.float64)
        bias = np.asarray(state["bias"], dtype=np.float64)
        if weights.shape != (self.num_features, self.num_classes):
            raise ValueError("weight shape mismatch")
        if bias.shape != (self.num_classes,):
            raise ValueError("bias shape mismatch")
        self.weights = weights.copy()
        self.bias = bias.copy()
