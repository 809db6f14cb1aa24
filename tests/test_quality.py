"""Tests for the PickScore model, optimal-model selection, degradation
profiles, per-level quality profiles and the user-study simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.zoo import Strategy
from repro.quality.degradation import profile_degradation
from repro.quality.optimal import OPTIMALITY_THRESHOLD, OptimalModelSelector
from repro.quality.profiles import QualityProfiler, pareto_frontier
from repro.quality.user_study import UserStudySimulator


class TestPickScoreModel:
    def test_scores_are_deterministic(self, pickscore, prompts_small):
        prompt = prompts_small[0]
        assert pickscore.score(prompt, Strategy.AC, 3) == pickscore.score(prompt, Strategy.AC, 3)

    def test_best_score_in_plausible_range(self, pickscore, prompts_small):
        for prompt in prompts_small[:50]:
            assert 18.0 <= pickscore.best_score(prompt) <= 25.0

    def test_scores_never_exceed_best(self, pickscore, prompts_small):
        for prompt in prompts_small[:50]:
            best = pickscore.best_score(prompt)
            for rank in range(6):
                assert pickscore.score(prompt, Strategy.AC, rank) <= best + 1e-9

    def test_rank_zero_is_always_optimal_quality(self, pickscore, prompts_small):
        for prompt in prompts_small[:50]:
            score = pickscore.score(prompt, Strategy.AC, 0)
            assert score >= OPTIMALITY_THRESHOLD * pickscore.best_score(prompt)

    def test_scores_within_tolerance_stay_high(self, pickscore, prompts_small):
        for prompt in prompts_small[:50]:
            tolerance = pickscore.tolerance_rank(prompt, Strategy.AC)
            best = pickscore.best_score(prompt)
            for rank in range(tolerance + 1):
                assert pickscore.score(prompt, Strategy.AC, rank) >= 0.95 * best

    def test_scores_degrade_beyond_tolerance(self, pickscore, prompts_small):
        degraded = 0
        for prompt in prompts_small:
            tolerance = pickscore.tolerance_rank(prompt, Strategy.AC)
            if tolerance < 5:
                best = pickscore.best_score(prompt)
                assert pickscore.score(prompt, Strategy.AC, 5) < 0.92 * best
                degraded += 1
        assert degraded > 0

    def test_degradation_monotone_in_gap(self, pickscore, prompts_small):
        for prompt in prompts_small[:50]:
            tolerance = pickscore.tolerance_rank(prompt, Strategy.AC)
            scores = [pickscore.score(prompt, Strategy.AC, r) for r in range(tolerance, 6)]
            # Allow tiny jitter but require an overall downward trend.
            for earlier, later in zip(scores, scores[2:]):
                assert later <= earlier + 0.3

    def test_tolerance_tracks_complexity(self, pickscore, prompts_medium):
        simple = [p for p in prompts_medium if p.complexity < 0.2]
        complex_ = [p for p in prompts_medium if p.complexity > 0.7]
        mean_simple = np.mean([pickscore.tolerance_rank(p, Strategy.AC) for p in simple])
        mean_complex = np.mean([pickscore.tolerance_rank(p, Strategy.AC) for p in complex_])
        assert mean_simple > mean_complex + 1.5

    def test_ac_more_permissive_than_sm(self, pickscore, prompts_medium):
        ac = np.mean([pickscore.tolerance_rank(p, Strategy.AC) for p in prompts_medium])
        sm = np.mean([pickscore.tolerance_rank(p, Strategy.SM) for p in prompts_medium])
        assert ac >= sm

    def test_invalid_rank_rejected(self, pickscore, prompts_small):
        with pytest.raises(ValueError):
            pickscore.score(prompts_small[0], Strategy.AC, 6)

    def test_sample_relative_quality(self, pickscore, prompts_small):
        sample = pickscore.sample(prompts_small[0], Strategy.AC, 0)
        assert 0.9 <= sample.relative_quality <= 1.0

    def test_mean_score_decreases_with_rank(self, pickscore, prompts_medium):
        means = [
            pickscore.mean_score(list(prompts_medium), Strategy.SM, rank) for rank in range(6)
        ]
        assert means[0] > means[5]
        assert means == sorted(means, reverse=True)


class TestOptimalModelSelector:
    def test_optimal_rank_is_fastest_acceptable(self, pickscore, prompts_small):
        selector = OptimalModelSelector(pickscore)
        for prompt in prompts_small[:50]:
            choice = selector.optimal_choice(prompt, Strategy.AC)
            cutoff = OPTIMALITY_THRESHOLD * choice.best_score
            assert choice.scores[choice.optimal_rank] >= cutoff
            for faster in range(choice.optimal_rank + 1, 6):
                assert choice.scores[faster] < cutoff

    def test_optimal_matches_tolerance_model(self, pickscore, prompts_small):
        # The generative model guarantees levels within tolerance clear the
        # 0.9 threshold, so the optimal rank is at least the tolerance rank.
        selector = OptimalModelSelector(pickscore)
        for prompt in prompts_small[:50]:
            tolerance = pickscore.tolerance_rank(prompt, Strategy.AC)
            assert selector.optimal_rank(prompt, Strategy.AC) >= tolerance

    def test_affinity_distribution_sums_to_one(self, pickscore, prompts_medium):
        selector = OptimalModelSelector(pickscore)
        dist = selector.affinity_distribution(list(prompts_medium), Strategy.AC)
        assert dist.sum() == pytest.approx(1.0)
        assert len(dist) == 6

    def test_substantial_fraction_tolerates_approximation(self, pickscore, prompts_medium):
        # Observation 1 / Fig. 8: a substantial fraction of prompts is
        # optimally served by an approximated level.
        selector = OptimalModelSelector(pickscore)
        dist = selector.affinity_distribution(list(prompts_medium), Strategy.AC)
        assert dist[0] < 0.5
        assert dist[3:].sum() > 0.3

    def test_excluding_ranks_moves_mass(self, pickscore, prompts_medium):
        selector = OptimalModelSelector(pickscore)
        prompts = list(prompts_medium)[:400]
        full = selector.affinity_distribution(prompts, Strategy.SM)
        without_m1 = selector.affinity_distribution_excluding(prompts, Strategy.SM, {0})
        assert without_m1[0] == 0.0
        assert without_m1.sum() == pytest.approx(1.0)
        assert without_m1[1] >= full[1]

    def test_cannot_exclude_everything(self, pickscore, prompts_small):
        selector = OptimalModelSelector(pickscore)
        with pytest.raises(ValueError):
            selector.affinity_distribution_excluding(
                list(prompts_small), Strategy.SM, set(range(6))
            )

    def test_invalid_threshold(self, pickscore):
        with pytest.raises(ValueError):
            OptimalModelSelector(pickscore, threshold=0.0)


class TestDegradationProfile:
    def test_shape_and_nonnegative(self, pickscore, prompts_medium):
        profile = profile_degradation(list(prompts_medium)[:500], pickscore, Strategy.AC)
        assert profile.matrix.shape == (6, 6)
        assert np.all(profile.matrix >= 0)

    def test_no_loss_when_shifting_to_slower(self, pickscore, prompts_medium):
        profile = profile_degradation(list(prompts_medium)[:500], pickscore, Strategy.AC)
        for affinity in range(6):
            for target in range(affinity + 1):
                assert profile.loss(target, affinity) == pytest.approx(0.0)

    def test_loss_grows_with_gap(self, pickscore, prompts_medium):
        profile = profile_degradation(list(prompts_medium)[:800], pickscore, Strategy.AC)
        for affinity in range(4):
            losses = [profile.loss(t, affinity) for t in range(affinity, 6)]
            assert losses == sorted(losses)

    def test_superlinearity_check(self, pickscore, prompts_medium):
        profile = profile_degradation(list(prompts_medium)[:800], pickscore, Strategy.AC)
        assert profile.is_superlinear()


class TestQualityProfiler:
    def test_quality_vector_monotone(self, zoo, pickscore, prompts_medium):
        profiler = QualityProfiler(zoo, pickscore)
        quality = profiler.quality_vector(Strategy.AC, list(prompts_medium)[:400])
        assert len(quality) == 6
        assert quality[0] > quality[5]

    def test_throughput_vector_monotone(self, zoo, pickscore):
        profiler = QualityProfiler(zoo, pickscore)
        throughput = profiler.throughput_vector(Strategy.AC)
        assert list(throughput) == sorted(throughput)

    def test_pickscore_per_latency_favors_faster_levels(self, zoo, pickscore, prompts_medium):
        profiler = QualityProfiler(zoo, pickscore)
        profiles = profiler.profile_strategy(Strategy.AC, list(prompts_medium)[:300])
        assert profiles[-1].pickscore_per_latency > profiles[0].pickscore_per_latency

    def test_pareto_scatter_has_ac_sm_and_quantized(self, zoo, pickscore, prompts_medium):
        profiler = QualityProfiler(zoo, pickscore)
        points = profiler.pareto_scatter(list(prompts_medium)[:300])
        families = {p.family for p in points}
        assert families == {"AC", "SM", "quantized"}
        assert len(points) == 18

    def test_ac_levels_dominate_pareto_frontier(self, zoo, pickscore, prompts_medium):
        # Fig. 13: AC variants frequently lie on the Pareto frontier.
        profiler = QualityProfiler(zoo, pickscore)
        points = profiler.pareto_scatter(list(prompts_medium)[:400])
        frontier = pareto_frontier(points)
        ac_on_frontier = sum(1 for p in frontier if p.family == "AC")
        assert ac_on_frontier >= len(frontier) / 2

    def test_frontier_is_subset_and_sorted(self, zoo, pickscore, prompts_medium):
        profiler = QualityProfiler(zoo, pickscore)
        points = profiler.pareto_scatter(list(prompts_medium)[:200])
        frontier = pareto_frontier(points)
        assert set(p.name for p in frontier) <= set(p.name for p in points)
        throughputs = [p.throughput_ipm for p in frontier]
        assert throughputs == sorted(throughputs)


class TestUserStudySimulator:
    def test_better_quality_gets_more_votes(self):
        study = UserStudySimulator(num_participants=60, seed=0)
        good = study.run("good", [0.97] * 50)
        bad = study.run("bad", [0.75] * 50)
        assert good.prompt_relevance_rate > bad.prompt_relevance_rate
        assert good.overall_quality_rate > bad.overall_quality_rate

    def test_compare_sorts_best_first(self):
        study = UserStudySimulator(num_participants=40, seed=1)
        results = study.compare({"a": [0.95] * 30, "b": [0.7] * 30, "c": [0.85] * 30})
        rates = [r.prompt_relevance_rate for r in results]
        assert rates == sorted(rates, reverse=True)
        assert results[0].system == "a"

    def test_rates_are_probabilities(self):
        study = UserStudySimulator(num_participants=30, seed=2)
        result = study.run("x", [0.9, 0.8, 0.95])
        assert 0.0 <= result.prompt_relevance_rate <= 1.0
        assert 0.0 <= result.overall_quality_rate <= 1.0

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            UserStudySimulator().run("x", [])

    def test_invalid_participants(self):
        with pytest.raises(ValueError):
            UserStudySimulator(num_participants=0)
