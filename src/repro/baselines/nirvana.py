"""NIRVANA baseline: per-prompt approximate caching without load adaptation.

NIRVANA picks the reuse level K per prompt (prompt-aware, like Argus's AC
classifier) but the original system is a single-instance design; the paper
extends it to the cluster by replicating it on every worker and spreading
load uniformly.  Crucially it never trades quality for throughput under
load, so queues grow and SLO violations spike at high load.
"""

from __future__ import annotations

import numpy as np

from repro.classifier.trainer import ClassifierTrainer
from repro.core.base import BaseServingSystem, Route
from repro.core.config import ArgusConfig
from repro.models.zoo import ApproximationLevel, Strategy
from repro.prompts.dataset import PromptDataset
from repro.prompts.generator import Prompt


class NirvanaSystem(BaseServingSystem):
    """Cluster-replicated NIRVANA with uniform load spreading."""

    name = "NIRVANA"

    def __init__(
        self,
        config: ArgusConfig | None = None,
        training_dataset: PromptDataset | None = None,
        **kwargs,
    ) -> None:
        config = config or ArgusConfig()
        config.default_strategy = Strategy.AC
        super().__init__(config=config, use_cache=True, **kwargs)
        dataset = training_dataset or PromptDataset.synthetic(
            count=self.config.classifier_training_prompts, seed=self.config.seed + 101
        )
        trainer = ClassifierTrainer(self.pickscore)
        self.predictor = trainer.train(
            dataset.prompts, Strategy.AC, epochs=self.config.classifier_epochs,
            seed=self.config.seed,
        )
        self._rng = np.random.default_rng(self.config.seed + 13)
        for worker in self.cluster.workers:
            worker.honor_request_rank = True
        if self.cache is not None and self.config.cache_warm_prompts > 0:
            self.cache.warm(dataset.prompts[: self.config.cache_warm_prompts])

    def default_initial_level(self) -> ApproximationLevel:
        """Every worker keeps the SD-XL base loaded (AC operates on it)."""
        return self.zoo.exact_level(Strategy.AC)

    def route(self, prompt: Prompt) -> Route | None:
        """Per-prompt K from the classifier, uniform worker selection."""
        healthy = self.cluster.healthy_workers
        if not healthy:
            return None
        predicted = int(
            np.clip(self.predictor.predict_rank(prompt), 0, self.zoo.num_levels(Strategy.AC) - 1)
        )
        worker = healthy[int(self._rng.integers(0, len(healthy)))]
        return Route(
            worker_id=worker.worker_id,
            predicted_rank=predicted,
            assigned_rank=predicted,
            strategy=Strategy.AC,
        )
