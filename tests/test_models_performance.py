"""Tests for the latency, batching and roofline models, and the model zoo."""

from __future__ import annotations

import pytest

from repro.models.batching import BATCHING_PROFILES, BatchingModel, batching_speedup_curve
from repro.models.latency import LatencyModel
from repro.models.roofline import RooflineModel
from repro.models.variants import AC_LEVELS, SM_VARIANTS
from repro.models.zoo import Strategy


class TestLatencyModel:
    def test_a100_matches_table2(self):
        model = LatencyModel("A100")
        assert model.variant_latency(SM_VARIANTS[0]) == pytest.approx(4.2)
        assert model.variant_latency(SM_VARIANTS[-1]) == pytest.approx(2.18)

    def test_older_gpus_are_slower(self):
        a100 = LatencyModel("A100")
        a10g = LatencyModel("A10G")
        v100 = LatencyModel("V100")
        for variant in SM_VARIANTS:
            assert a10g.variant_latency(variant) > a100.variant_latency(variant)
            assert v100.variant_latency(variant) > a100.variant_latency(variant)

    def test_sdxl_on_a10g_near_ten_seconds(self):
        # §1: SD-XL can take up to ~10 s on an A10G.
        latency = LatencyModel("A10G").variant_latency(SM_VARIANTS[0])
        assert 8.0 < latency < 12.0

    def test_batch_latency_grows_nearly_linearly(self):
        model = LatencyModel("A100")
        single = model.variant_latency(SM_VARIANTS[0], batch_size=1)
        batch4 = model.variant_latency(SM_VARIANTS[0], batch_size=4)
        assert batch4 > 3.0 * single

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            LatencyModel("A100").variant_latency(SM_VARIANTS[0], batch_size=0)

    def test_breakdown_sums_to_total(self):
        model = LatencyModel("A100")
        breakdown = model.variant_breakdown(SM_VARIANTS[0])
        assert breakdown.total_s == pytest.approx(model.variant_latency(SM_VARIANTS[0]))

    def test_unet_dominates_breakdown(self):
        breakdown = LatencyModel("A100").variant_breakdown(SM_VARIANTS[0])
        assert breakdown.unet_s > 0.85 * breakdown.total_s

    def test_ac_latency_decreases_with_skip(self):
        model = LatencyModel("A100")
        base = SM_VARIANTS[0]
        latencies = [model.ac_latency(level, base) for level in AC_LEVELS]
        assert latencies == sorted(latencies, reverse=True)

    def test_ac_k0_equals_full_generation(self):
        model = LatencyModel("A100")
        assert model.ac_latency(AC_LEVELS[0], SM_VARIANTS[0]) == pytest.approx(
            model.variant_latency(SM_VARIANTS[0])
        )

    def test_ac_retrieval_latency_added(self):
        model = LatencyModel("A100")
        without = model.ac_latency(AC_LEVELS[3], SM_VARIANTS[0], retrieval_latency_s=0.0)
        with_net = model.ac_latency(AC_LEVELS[3], SM_VARIANTS[0], retrieval_latency_s=0.5)
        assert with_net == pytest.approx(without + 0.5)

    def test_latency_matrix_covers_all_gpus(self):
        matrix = LatencyModel("A100").latency_matrix(list(SM_VARIANTS))
        assert set(matrix) == {"A100", "A10G", "V100"}
        for per_gpu in matrix.values():
            assert len(per_gpu) == len(SM_VARIANTS)


class TestBatchingModel:
    def test_speedup_is_one_at_batch_one(self):
        for profile in BATCHING_PROFILES:
            assert batching_speedup_curve(profile, [1]) == [1.0]

    def test_speedup_monotone_in_batch(self):
        model = BatchingModel()
        for name in model.model_names:
            curve = [model.speedup(name, b) for b in (1, 2, 4, 8, 16)]
            assert curve == sorted(curve)

    def test_speedup_never_exceeds_batch_size(self):
        model = BatchingModel()
        for name in model.model_names:
            for batch in (1, 2, 4, 8):
                assert model.speedup(name, batch) <= batch + 1e-9

    def test_diffusion_models_plateau(self):
        model = BatchingModel()
        # Observation 5: non-DM models keep scaling, DMs plateau quickly.
        assert model.speedup("YOLOv5n", 16) > 5.0
        assert model.speedup("SD-XL", 16) < 1.5

    def test_gap_between_families(self):
        assert BatchingModel().diffusion_vs_traditional_gap(batch_size=8) > 3.0

    def test_effective_batch_limit_smaller_for_dms(self):
        model = BatchingModel()
        assert model.effective_batch_limit("SD-XL") < model.effective_batch_limit("YOLOv5n")

    def test_invalid_batch_raises(self):
        with pytest.raises(ValueError):
            BatchingModel().speedup("SD-XL", 0)

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            BatchingModel().speedup("BERT", 2)


class TestRooflineModel:
    def test_diffusion_models_are_compute_bound(self):
        roofline = RooflineModel("A100")
        for model in ("Tiny-SD", "Small-SD", "SD-2.0", "SD-XL"):
            assert roofline.place_diffusion_model(model).compute_bound

    def test_traditional_models_are_memory_bound(self):
        roofline = RooflineModel("A100")
        assert not roofline.place("ResNet50", 55.0).compute_bound
        assert not roofline.place("YOLOv5n", 28.0).compute_bound

    def test_attainable_capped_at_peak(self):
        roofline = RooflineModel("A100")
        assert roofline.attainable_tflops(1e6) == pytest.approx(roofline.gpu.peak_fp16_tflops)

    def test_attainable_scales_below_ridge(self):
        roofline = RooflineModel("A100")
        low = roofline.attainable_tflops(10.0)
        high = roofline.attainable_tflops(100.0)
        assert high > low

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            RooflineModel("A100").attainable_tflops(-1.0)

    def test_full_plot_has_all_models(self):
        points = RooflineModel("A100").full_plot()
        names = {p.name for p in points}
        assert {"SD-XL", "Tiny-SD", "YOLOv5n", "GPT-8B"} <= names


class TestModelZoo:
    def test_level_counts(self, zoo):
        assert zoo.num_levels(Strategy.AC) == 6
        assert zoo.num_levels(Strategy.SM) == 6

    def test_levels_ordered_by_rank(self, zoo):
        for strategy in (Strategy.AC, Strategy.SM):
            ranks = [level.rank for level in zoo.levels(strategy)]
            assert ranks == list(range(6))

    def test_latency_decreases_with_rank(self, zoo):
        for strategy in (Strategy.AC, Strategy.SM):
            latencies = [level.latency_s for level in zoo.levels(strategy)]
            assert latencies == sorted(latencies, reverse=True)

    def test_ac_levels_have_zero_switch_cost(self, zoo):
        assert all(level.switch_cost_s == 0.0 for level in zoo.levels(Strategy.AC))

    def test_sm_levels_have_load_cost(self, zoo):
        assert all(level.switch_cost_s > 0 for level in zoo.levels(Strategy.SM))

    def test_exact_and_fastest(self, zoo):
        assert zoo.exact_level(Strategy.AC).rank == 0
        assert zoo.fastest_level(Strategy.AC).rank == 5
        assert zoo.exact_level(Strategy.AC).is_exact

    def test_level_lookup_by_name(self, zoo):
        assert zoo.level_by_name(Strategy.SM, "tiny-sd").rank == 5
        assert zoo.level_by_name(Strategy.AC, "K=25").rank == 5

    def test_level_out_of_range(self, zoo):
        with pytest.raises(IndexError):
            zoo.level(Strategy.AC, 6)

    def test_cluster_throughput_bound(self, zoo):
        bound = zoo.max_cluster_throughput_qpm(Strategy.AC, 8)
        assert bound == pytest.approx(8 * zoo.fastest_level(Strategy.AC).peak_throughput_qpm)

    def test_strategy_accepts_strings(self, zoo):
        assert zoo.levels("AC") == zoo.levels(Strategy.AC)
