"""The shipped scenario catalog.

Every entry composes the spec layer into a named, reproducible experiment
with a ``small`` preset (seconds, runs in the CI scenario matrix) and a
``full`` preset (the real experiment).  Adding a scenario is a registry
entry — no new wiring code.
"""

from __future__ import annotations

from repro.scenarios.contracts import validate_contracts
from repro.scenarios.spec import (
    CacheEvent,
    DriftPhase,
    FaultEvent,
    NetworkWindow,
    Preset,
    Scenario,
    TraceSpec,
)

_REGISTRY: dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add a scenario to the catalog (name must be unique).

    Every catalog entry must certify at least one invariant: a scenario
    with an empty or misspelled ``contracts`` tuple is rejected here, so
    ``python -m repro run --check-contracts`` has something to verify for
    every name ``list`` prints.
    """
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    if not scenario.contracts:
        raise ValueError(
            f"scenario {scenario.name!r} declares no contracts; every registered "
            "scenario must certify at least one invariant "
            "(see repro.scenarios.contracts)"
        )
    validate_contracts(scenario.contracts)
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def list_scenarios() -> list[Scenario]:
    """All registered scenarios, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def scenario_names() -> list[str]:
    """Names of all registered scenarios, sorted."""
    return sorted(_REGISTRY)


#: ArgusConfig overrides shared by every ``small`` preset: a half-size
#: fleet and a lighter offline phase keep each CI run in the seconds range
#: while exercising the same control loops as the full experiment.
SMALL_FLEET = {
    "num_workers": 4,
    "classifier_training_prompts": 400,
    "profiling_prompts": 200,
    "classifier_epochs": 8,
}


register(
    Scenario(
        name="steady-baseline",
        description=(
            "Flat offered load comfortably inside the fleet ceiling: the "
            "calibration baseline every other scenario is compared against."
        ),
        exercises=("routing", "solver", "approximate cache"),
        contracts=("conservation",),
        trace=TraceSpec(source="library", name="constant", params={"qpm": 90.0}),
        presets={
            "small": Preset(
                dataset_size=600,
                trace_params={"duration_minutes": 15, "qpm": 45.0},
                config=SMALL_FLEET,
            ),
            "full": Preset(dataset_size=3000, trace_params={"duration_minutes": 120}),
        },
    )
)

register(
    Scenario(
        name="flash-crowd",
        description=(
            "A sudden 3x spike on a steady baseline: stresses backlog-"
            "triggered out-of-band recalibration and queueing headroom."
        ),
        exercises=("backlog recalibration", "load estimation", "tail latency"),
        contracts=("conservation",),
        trace=TraceSpec(source="shape", name="flash-crowd"),
        presets={
            "small": Preset(
                dataset_size=700,
                trace_params={
                    "duration_minutes": 24,
                    "base_qpm": 35.0,
                    "spike_start_minute": 8,
                    "spike_minutes": 5,
                    "spike_multiplier": 2.6,
                    "decay_minutes": 3,
                },
                config=SMALL_FLEET,
            ),
            "full": Preset(
                dataset_size=3000,
                trace_params={
                    "duration_minutes": 90,
                    "base_qpm": 70.0,
                    "spike_start_minute": 30,
                    "spike_minutes": 12,
                    "spike_multiplier": 3.0,
                },
            ),
        },
    )
)

register(
    Scenario(
        name="diurnal-24h",
        description=(
            "A full day/night cycle: load swings from trough to peak and "
            "back, exercising sustained re-allocation across load levels."
        ),
        exercises=("re-allocation cadence", "diurnal load", "quality adaptation"),
        contracts=("conservation",),
        trace=TraceSpec(source="shape", name="diurnal"),
        presets={
            "small": Preset(
                dataset_size=700,
                trace_params={
                    "duration_minutes": 30,
                    "period_minutes": 30,
                    "base_qpm": 25.0,
                    "peak_qpm": 85.0,
                },
                config=SMALL_FLEET,
            ),
            "full": Preset(
                dataset_size=5000,
                trace_params={"duration_minutes": 1440, "base_qpm": 50.0, "peak_qpm": 160.0},
            ),
        },
    )
)

register(
    Scenario(
        name="autoscale-updown",
        description=(
            "The Fig. 17 up-down ramp with the closed-loop autoscaler: load "
            "outgrows the fixed fleet, workers provision through the peak "
            "and drain back out with hysteresis."
        ),
        exercises=("autoscaler", "saturation signal", "elastic fleet", "cost accounting"),
        contracts=("conservation", "fleet-budget"),
        trace=TraceSpec(source="shape", name="updown"),
        config={
            "autoscale_enabled": True,
            "provision_delay_s": 90.0,
        },
        presets={
            "small": Preset(
                dataset_size=800,
                trace_params={
                    "ramp_minutes": 27,
                    "descent_minutes": 9,
                    "start_qpm": 25.0,
                    "peak_qpm": 130.0,
                },
                config={**SMALL_FLEET, "max_workers": 8, "provision_delay_s": 45.0},
            ),
            "full": Preset(
                dataset_size=1500,
                trace_params={
                    "ramp_minutes": 90,
                    "descent_minutes": 30,
                    "start_qpm": 40.0,
                    "peak_qpm": 240.0,
                },
                config={"max_workers": 16},
            ),
        },
    )
)

register(
    Scenario(
        name="fault-storm",
        description=(
            "Staggered worker failures under load (Fig. 20a scaled up): half "
            "the fleet drops in two waves and recovers; the allocator trades "
            "quality for throughput and back."
        ),
        exercises=("failure injection", "requeueing", "degraded re-allocation"),
        contracts=("conservation",),
        trace=TraceSpec(source="library", name="constant", params={"qpm": 85.0}),
        faults=(
            FaultEvent(fail_at_minute=15.0, recover_at_minute=35.0, fleet_fraction=0.25),
            FaultEvent(fail_at_minute=20.0, recover_at_minute=40.0, worker_id=7),
            FaultEvent(fail_at_minute=22.0, recover_at_minute=40.0, worker_id=6),
        ),
        presets={
            "small": Preset(
                dataset_size=700,
                trace_params={"duration_minutes": 20, "qpm": 42.0},
                config=SMALL_FLEET,
                faults=(
                    FaultEvent(fail_at_minute=5.0, recover_at_minute=12.0, fleet_fraction=0.25),
                    FaultEvent(fail_at_minute=7.0, recover_at_minute=14.0, worker_id=3),
                ),
            ),
            "full": Preset(dataset_size=3000, trace_params={"duration_minutes": 55}),
        },
    )
)

register(
    Scenario(
        name="drift-recalibration",
        description=(
            "The prompt mix shifts to harder prompts mid-run (Fig. 18): the "
            "drift detector notices the PickScore shift and retrains the "
            "affinity classifiers on recent traffic."
        ),
        exercises=("classifier drift", "retraining", "prompt distribution shift"),
        contracts=("conservation",),
        trace=TraceSpec(source="library", name="constant", params={"qpm": 90.0}),
        drift=(
            DriftPhase(start_minute=0.0, complexity_bias=0.0),
            DriftPhase(start_minute=30.0, complexity_bias=0.45),
        ),
        presets={
            # The drift point sits past two full 400-sample detector windows
            # so the baseline moving average is established before the shift.
            "small": Preset(
                dataset_size=700,
                trace_params={"duration_minutes": 30, "qpm": 60.0},
                config=SMALL_FLEET,
                drift=(
                    DriftPhase(start_minute=0.0, complexity_bias=0.0),
                    DriftPhase(start_minute=15.0, complexity_bias=0.55),
                ),
            ),
            "full": Preset(dataset_size=4000, trace_params={"duration_minutes": 70}),
        },
    )
)

register(
    Scenario(
        name="degraded-network",
        description=(
            "The cache network congests, then blacks out (Fig. 20b): "
            "retrieval monitoring abandons approximate caching for smaller "
            "models and probes its way back after recovery."
        ),
        exercises=("strategy switching", "network probes", "retrieval monitoring"),
        contracts=("conservation",),
        trace=TraceSpec(source="library", name="constant", params={"qpm": 110.0}),
        config={"retrieval_violations_to_switch": 10},
        network=(
            NetworkWindow(start_minute=12.0, end_minute=20.0, condition="congested"),
            NetworkWindow(start_minute=20.0, end_minute=32.0, condition="outage"),
        ),
        presets={
            "small": Preset(
                dataset_size=700,
                trace_params={"duration_minutes": 24, "qpm": 55.0},
                config={**SMALL_FLEET, "retrieval_violations_to_switch": 6},
                network=(
                    NetworkWindow(start_minute=6.0, end_minute=10.0, condition="congested"),
                    NetworkWindow(start_minute=10.0, end_minute=16.0, condition="outage"),
                ),
            ),
            "full": Preset(dataset_size=3000, trace_params={"duration_minutes": 45}),
        },
    )
)

register(
    Scenario(
        name="cache-cold-start",
        description=(
            "Approximate caching from an empty cache: no warm-up prompts, so "
            "early AC traffic misses while the vector database fills from "
            "live traffic — the hit rate ramps from zero."
        ),
        exercises=("cache warm-up", "hit-rate ramp", "retrieval path"),
        contracts=("conservation",),
        trace=TraceSpec(source="library", name="twitter"),
        config={"cache_warm_prompts": 0},
        presets={
            # The dataset outsizes the request count so prompts do not
            # recycle: every retrieval is a first encounter and the hit rate
            # genuinely ramps with vector-index coverage.
            "small": Preset(
                dataset_size=2000,
                trace_params={"duration_minutes": 20, "base_qpm": 25.0, "peak_qpm": 60.0},
                config=SMALL_FLEET,
            ),
            "full": Preset(dataset_size=5000, trace_params={"duration_minutes": 240}),
        },
    )
)

# --------------------------------------------------------------------- #
# Multi-tenant scenarios.  Tenant contracts are written as plain dicts (not
# TenantSpec instances) so the scenario's dict/JSON round-trip is exact;
# ArgusConfig coerces them on construction.
# --------------------------------------------------------------------- #
register(
    Scenario(
        name="tenant-fair-share",
        description=(
            "Two equal-weight tenants split a steady load: the weighted "
            "fair-share admission and per-tenant accounting should serve "
            "them near-identically (Jain index ~1)."
        ),
        exercises=("multi-tenancy", "fair-share admission", "per-tenant accounting"),
        contracts=("conservation", "fairness:0.95", "cache-quota"),
        trace=TraceSpec(source="library", name="constant", params={"qpm": 90.0}),
        config={
            "tenants": [
                {"name": "alpha", "weight": 1.0, "traffic_share": 0.5},
                {"name": "beta", "weight": 1.0, "traffic_share": 0.5},
            ],
        },
        presets={
            "small": Preset(
                dataset_size=600,
                trace_params={"duration_minutes": 14, "qpm": 56.0},
                config=SMALL_FLEET,
            ),
            "full": Preset(dataset_size=3000, trace_params={"duration_minutes": 120}),
        },
    )
)

register(
    Scenario(
        name="tenant-noisy-neighbor",
        description=(
            "A flash-crowd tenant floods the fleet while a quiet tenant "
            "keeps its steady trickle: fair-share admission confines the "
            "overload to the noisy tenant's own queue, so the quiet "
            "tenant's SLO survives the crowd."
        ),
        exercises=("multi-tenancy", "noisy neighbor", "tenant isolation", "token buckets"),
        # The crowd is deliberately lopsided, so the fairness floor is loose:
        # the contract certifies the quiet tenant is not starved outright,
        # not that the storm is served evenly.
        contracts=("conservation", "fairness:0.5", "cache-quota"),
        trace=TraceSpec(source="library", name="constant", params={"qpm": 60.0}),
        # Full-rate admission: deadline-ordered per-tenant worker queues
        # (weighted DRR + EDF) keep the quiet tenant ahead of crowd spillover
        # at the workers themselves, so admission no longer needs the 0.65
        # under-admit margin that previously absorbed cache-miss churn.
        config={"admission_rate_factor": 1.0, "tenant_priority_queues": True},
        presets={
            "small": Preset(
                dataset_size=600,
                trace_params={"duration_minutes": 18, "qpm": 48.0},
                config={
                    **SMALL_FLEET,
                    "tenants": [
                        {"name": "quiet", "weight": 1.0, "traffic_share": 0.25},
                        {
                            "name": "noisy",
                            "weight": 1.0,
                            "traffic_share": 0.75,
                            "extra_qpm": [0.0] * 6 + [130.0] * 5 + [0.0] * 7,
                        },
                    ],
                },
            ),
            "full": Preset(
                dataset_size=3000,
                trace_params={"duration_minutes": 70, "qpm": 120.0},
                config={
                    "tenants": [
                        {"name": "quiet", "weight": 1.0, "traffic_share": 0.25},
                        {
                            "name": "noisy",
                            "weight": 1.0,
                            "traffic_share": 0.75,
                            "extra_qpm": [0.0] * 25 + [360.0] * 15 + [0.0] * 30,
                        },
                    ],
                },
            ),
        },
    )
)

register(
    Scenario(
        name="tenant-tiered-slo",
        description=(
            "Gold / standard / best-effort tenants compete at high load: "
            "SLO-class-aware routing meets the gold tenant's tighter budget "
            "and its quality floor while best-effort absorbs the slack."
        ),
        exercises=("multi-tenancy", "SLO classes", "quality floors", "weighted shares"),
        contracts=("conservation", "fairness:0.7", "slo-ordering", "cache-quota"),
        trace=TraceSpec(source="library", name="constant", params={"qpm": 230.0}),
        config={
            "tenants": [
                {
                    "name": "gold",
                    "weight": 3.0,
                    "traffic_share": 0.3,
                    "slo_class": "gold",
                    "quality_floor_rank": 2,
                    "quality_floor": 0.65,
                },
                {"name": "standard", "weight": 2.0, "traffic_share": 0.4},
                {
                    "name": "best-effort",
                    "weight": 1.0,
                    "traffic_share": 0.3,
                    "slo_class": "best-effort",
                },
            ],
        },
        presets={
            "small": Preset(
                dataset_size=600,
                trace_params={"duration_minutes": 16, "qpm": 112.0},
                config=SMALL_FLEET,
            ),
            "full": Preset(dataset_size=3000, trace_params={"duration_minutes": 90}),
        },
    )
)

register(
    Scenario(
        name="bursty-load-switch",
        description=(
            "Bursty load whose high phase presses against the AC throughput "
            "ceiling: the load-driven AC→SM switch fires during bursts and "
            "switches back in the quiet phases."
        ),
        exercises=("load-driven strategy switch", "hysteresis", "bursty traffic"),
        contracts=("conservation",),
        trace=TraceSpec(source="library", name="bursty"),
        presets={
            "small": Preset(
                dataset_size=700,
                trace_params={
                    "duration_minutes": 30,
                    "low_qpm": 45.0,
                    "high_qpm": 104.0,
                    "mean_burst_minutes": 9.0,
                },
                config=SMALL_FLEET,
            ),
            "full": Preset(
                dataset_size=3000,
                trace_params={
                    "duration_minutes": 200,
                    "low_qpm": 90.0,
                    "high_qpm": 208.0,
                    "mean_burst_minutes": 35.0,
                },
            ),
        },
    )
)

register(
    Scenario(
        name="sharded-autoscale",
        description=(
            "The Fig. 17-style elastic fleet run in sharded mode: each shard "
            "runs its own autoscaler over its fleet partition, inside a "
            "static share of the global min/max worker budget fixed when the "
            "run is planned.  Sequential (shards=1) runs exercise the same "
            "scenario on one global autoscaler; `--shards 4` splits the "
            "budget four ways."
        ),
        exercises=("sharded execution", "autoscaler", "shard budgets", "elastic fleet"),
        contracts=("conservation", "fleet-budget"),
        trace=TraceSpec(source="library", name="twitter"),
        config={
            "autoscale_enabled": True,
            "provision_delay_s": 30.0,
        },
        presets={
            "small": Preset(
                dataset_size=600,
                trace_params={
                    "duration_minutes": 8,
                    "base_qpm": 60.0,
                    "peak_qpm": 240.0,
                },
                config={**SMALL_FLEET, "min_workers": 2, "max_workers": 10},
            ),
            "full": Preset(
                dataset_size=3000,
                trace_params={
                    "duration_minutes": 120,
                    "base_qpm": 240.0,
                    "peak_qpm": 960.0,
                },
                config={"num_workers": 16, "min_workers": 8, "max_workers": 40},
            ),
        },
    )
)

register(
    Scenario(
        name="fig16-xl",
        description=(
            "The Fig. 16 twitter-trace experiment scaled out to a ten-"
            "million-request day on a large fleet: the workload the sharded "
            "execution mode exists for.  Sequential runs take on the order "
            "of an hour; `--shards 8` partitions it across shard processes, "
            "each simulating an isolated sub-fleet."
        ),
        exercises=("sharded execution", "scale-out", "long traces", "cache locality"),
        contracts=("conservation",),
        trace=TraceSpec(source="library", name="twitter"),
        config={"num_workers": 288},
        presets={
            "small": Preset(
                dataset_size=800,
                trace_params={
                    "duration_minutes": 16,
                    "base_qpm": 40.0,
                    "peak_qpm": 66.0,
                },
                config=SMALL_FLEET,
            ),
            # 2270 minutes x ~4411 qpm (diurnal mean of the base/peak range,
            # bursts included) ~= 10.1M requests.  288 workers hold the fleet
            # at ~0.80 utilization with zero SLO violations through the worst
            # sustained burst (~7.9k qpm), validated at 1/8 scale over the
            # full trace.
            "full": Preset(
                dataset_size=4000,
                trace_params={
                    "duration_minutes": 2270,
                    "base_qpm": 3300.0,
                    "peak_qpm": 5400.0,
                },
            ),
        },
    )
)

# --------------------------------------------------------------------- #
# Chaos family.  Each scenario composes one failure archetype with
# tenancy and is certified by the contract layer — the safety net that
# lets the catalog keep growing hostile workloads without bespoke
# verification code per scenario.
# --------------------------------------------------------------------- #
register(
    Scenario(
        name="chaos-gray-failure",
        description=(
            "Gray failures under tenancy: half the fleet degrades to a "
            "fraction of its speed mid-run (slow-not-dead, no crash signal) "
            "and later restores.  Stresses service-time-based control loops "
            "that only ever saw healthy-or-failed workers."
        ),
        exercises=("gray failures", "degraded workers", "multi-tenancy"),
        contracts=("conservation", "fairness:0.8", "cache-quota"),
        trace=TraceSpec(source="library", name="constant", params={"qpm": 90.0}),
        config={
            "tenants": [
                {"name": "alpha", "weight": 2.0, "traffic_share": 0.5},
                {"name": "beta", "weight": 1.0, "traffic_share": 0.5},
            ],
        },
        faults=(
            FaultEvent(
                fail_at_minute=12.0,
                recover_at_minute=30.0,
                fleet_fraction=0.5,
                degrade_factor=0.4,
            ),
        ),
        presets={
            "small": Preset(
                dataset_size=600,
                trace_params={"duration_minutes": 16, "qpm": 48.0},
                config=SMALL_FLEET,
                faults=(
                    FaultEvent(
                        fail_at_minute=4.0,
                        recover_at_minute=11.0,
                        fleet_fraction=0.5,
                        degrade_factor=0.4,
                    ),
                ),
            ),
            "full": Preset(dataset_size=3000, trace_params={"duration_minutes": 50}),
        },
    )
)

register(
    Scenario(
        name="chaos-correlated-failure",
        description=(
            "An AZ-style correlated outage: half the fleet crashes at the "
            "same instant (no staggering to hide behind) while a surviving "
            "worker gray-degrades, then everything recovers at once.  The "
            "requeue cascade and re-allocation absorb a step loss of "
            "capacity instead of fault-storm's gentle waves."
        ),
        exercises=("correlated failures", "simultaneous crash", "multi-tenancy"),
        contracts=("conservation", "fairness:0.85", "cache-quota"),
        trace=TraceSpec(source="library", name="constant", params={"qpm": 80.0}),
        config={
            "tenants": [
                {"name": "alpha", "weight": 1.0, "traffic_share": 0.5},
                {"name": "beta", "weight": 1.0, "traffic_share": 0.5},
            ],
        },
        faults=(
            FaultEvent(fail_at_minute=14.0, recover_at_minute=26.0, fleet_fraction=0.5),
            FaultEvent(
                fail_at_minute=14.0,
                recover_at_minute=26.0,
                worker_id=7,
                degrade_factor=0.5,
            ),
        ),
        presets={
            "small": Preset(
                dataset_size=600,
                trace_params={"duration_minutes": 16, "qpm": 40.0},
                config=SMALL_FLEET,
                faults=(
                    FaultEvent(
                        fail_at_minute=5.0, recover_at_minute=11.0, fleet_fraction=0.5
                    ),
                    FaultEvent(
                        fail_at_minute=5.0,
                        recover_at_minute=11.0,
                        worker_id=3,
                        degrade_factor=0.5,
                    ),
                ),
            ),
            "full": Preset(dataset_size=3000, trace_params={"duration_minutes": 50}),
        },
    )
)

register(
    Scenario(
        name="chaos-cache-partition",
        description=(
            "A flapping cache-network partition between quota-bounded "
            "tenants: congestion, a full partition, a brief heal, then a "
            "second partition.  Retrieval monitoring must abandon the cache "
            "twice and re-probe its way back without double-counting any "
            "tenant's quota."
        ),
        exercises=("cache partition", "strategy switching", "multi-tenancy", "quotas"),
        contracts=("conservation", "cache-quota", "fairness:0.9"),
        trace=TraceSpec(source="library", name="constant", params={"qpm": 110.0}),
        config={
            "retrieval_violations_to_switch": 10,
            "tenants": [
                {"name": "alpha", "weight": 1.0, "traffic_share": 0.5, "cache_quota": 400},
                {"name": "beta", "weight": 1.0, "traffic_share": 0.5, "cache_quota": 200},
            ],
        },
        network=(
            NetworkWindow(start_minute=10.0, end_minute=16.0, condition="congested"),
            NetworkWindow(start_minute=16.0, end_minute=24.0, condition="outage"),
            NetworkWindow(start_minute=28.0, end_minute=34.0, condition="outage"),
        ),
        presets={
            "small": Preset(
                dataset_size=700,
                trace_params={"duration_minutes": 22, "qpm": 55.0},
                config={**SMALL_FLEET, "retrieval_violations_to_switch": 6},
                network=(
                    NetworkWindow(start_minute=5.0, end_minute=8.0, condition="congested"),
                    NetworkWindow(start_minute=8.0, end_minute=12.0, condition="outage"),
                    NetworkWindow(start_minute=14.0, end_minute=18.0, condition="outage"),
                ),
            ),
            "full": Preset(dataset_size=3000, trace_params={"duration_minutes": 45}),
        },
    )
)

register(
    Scenario(
        name="chaos-admission-storm",
        description=(
            "A flash crowd lands on top of a noisy tenant's own burst: the "
            "storm tenant floods admission exactly while global load spikes, "
            "with gold and standard tenants sharing the fleet.  Full-rate "
            "admission plus per-tenant worker queues must keep the SLO-class "
            "ordering intact through the worst minutes."
        ),
        exercises=("admission storm", "flash crowd", "noisy tenant", "SLO classes"),
        contracts=("conservation", "slo-ordering", "cache-quota"),
        trace=TraceSpec(source="shape", name="flash-crowd"),
        config={
            "admission_rate_factor": 1.0,
            "tenant_priority_queues": True,
            "tenants": [
                {
                    "name": "gold",
                    "weight": 3.0,
                    "traffic_share": 0.3,
                    "slo_class": "gold",
                },
                {"name": "standard", "weight": 2.0, "traffic_share": 0.3},
                {
                    "name": "storm",
                    "weight": 1.0,
                    "traffic_share": 0.4,
                    "slo_class": "best-effort",
                    "extra_qpm": [0.0] * 20 + [260.0] * 10 + [0.0] * 30,
                },
            ],
        },
        presets={
            "small": Preset(
                dataset_size=600,
                trace_params={
                    "duration_minutes": 18,
                    "base_qpm": 30.0,
                    "spike_start_minute": 6,
                    "spike_minutes": 4,
                    "spike_multiplier": 2.0,
                    "decay_minutes": 2,
                },
                config={
                    **SMALL_FLEET,
                    "tenants": [
                        {
                            "name": "gold",
                            "weight": 3.0,
                            "traffic_share": 0.3,
                            "slo_class": "gold",
                        },
                        {"name": "standard", "weight": 2.0, "traffic_share": 0.3},
                        {
                            "name": "storm",
                            "weight": 1.0,
                            "traffic_share": 0.4,
                            "slo_class": "best-effort",
                            "extra_qpm": [0.0] * 6 + [110.0] * 4 + [0.0] * 8,
                        },
                    ],
                },
            ),
            "full": Preset(
                dataset_size=3000,
                trace_params={
                    "duration_minutes": 60,
                    "base_qpm": 90.0,
                    "spike_start_minute": 20,
                    "spike_minutes": 10,
                    "spike_multiplier": 2.5,
                    "decay_minutes": 5,
                },
            ),
        },
    )
)

register(
    Scenario(
        name="chaos-eviction-storm",
        description=(
            "Cache eviction churn: tenant quotas far below the live prompt "
            "population keep both namespaces in constant LRU eviction, so "
            "retrieval quality rides on what survives the churn.  Certifies "
            "the quota bound holds under maximum eviction pressure."
        ),
        exercises=("eviction churn", "cache quotas", "multi-tenancy", "LRU pressure"),
        contracts=("conservation", "cache-quota", "fairness:0.9"),
        trace=TraceSpec(source="library", name="constant", params={"qpm": 100.0}),
        config={
            "tenants": [
                {"name": "alpha", "weight": 1.0, "traffic_share": 0.5, "cache_quota": 80},
                {"name": "beta", "weight": 1.0, "traffic_share": 0.5, "cache_quota": 40},
            ],
        },
        presets={
            # The dataset outsizes the quota by >10x so fresh prompts keep
            # arriving and the stores never stop evicting.
            "small": Preset(
                dataset_size=1500,
                trace_params={"duration_minutes": 14, "qpm": 50.0},
                config=SMALL_FLEET,
            ),
            "full": Preset(dataset_size=5000, trace_params={"duration_minutes": 60}),
        },
    )
)

register(
    Scenario(
        name="cache-node-failure",
        description=(
            "One cache node of a three-shard replicated tier goes dark "
            "mid-run: lookups owned by the dead node must fail over to its "
            "bounded-staleness replica, and the per-shard ledgers must still "
            "reconcile with the gateway-visible hit counters when it returns."
        ),
        exercises=("cache tier", "node failure", "replica failover", "sharding"),
        contracts=("conservation", "cache-tier"),
        trace=TraceSpec(source="library", name="constant", params={"qpm": 100.0}),
        config={
            "cache_shards": 3,
            "cache_replication": 1,
            "cache_replication_lag_s": 20.0,
        },
        network=(
            NetworkWindow(
                start_minute=15.0, end_minute=25.0, condition="outage", node=0
            ),
        ),
        presets={
            "small": Preset(
                dataset_size=700,
                trace_params={"duration_minutes": 14, "qpm": 50.0},
                config=SMALL_FLEET,
                network=(
                    NetworkWindow(
                        start_minute=5.0, end_minute=9.0, condition="outage", node=0
                    ),
                ),
            ),
            "full": Preset(dataset_size=3000, trace_params={"duration_minutes": 45}),
        },
    )
)

register(
    Scenario(
        name="cache-shard-rebalance",
        description=(
            "A new cache node joins a loaded two-shard tier mid-run: the "
            "consistent-hash ring reassigns a bounded slice of keys, entries "
            "migrate in global insertion order, and retrieval must keep "
            "hitting through the move with no entry lost or double-owned."
        ),
        exercises=("cache tier", "ring rebalance", "live migration", "sharding"),
        contracts=("conservation", "cache-tier"),
        trace=TraceSpec(source="library", name="constant", params={"qpm": 110.0}),
        config={
            "cache_shards": 2,
            "cache_replication": 1,
        },
        cache_events=(CacheEvent(at_minute=20.0, action="add_node"),),
        presets={
            "small": Preset(
                dataset_size=700,
                trace_params={"duration_minutes": 14, "qpm": 55.0},
                config=SMALL_FLEET,
                cache_events=(CacheEvent(at_minute=6.0, action="add_node"),),
            ),
            "full": Preset(dataset_size=3000, trace_params={"duration_minutes": 45}),
        },
    )
)

register(
    Scenario(
        name="cache-hot-shard",
        description=(
            "A flash crowd concentrates lookups on one shard of a "
            "three-node, replication-2 tier: once the owner's fetch rate "
            "crosses the hot-shard threshold, reads spill to bounded-stale "
            "replicas and the replica-read ledger must absorb the crowd "
            "without breaking shard accounting."
        ),
        exercises=("cache tier", "hot shard", "replica reads", "flash crowd"),
        contracts=("conservation", "cache-tier"),
        trace=TraceSpec(source="shape", name="flash-crowd"),
        config={
            "cache_shards": 3,
            "cache_replication": 2,
            "cache_hot_shard_threshold": 60,
        },
        presets={
            "small": Preset(
                dataset_size=700,
                trace_params={
                    "duration_minutes": 18,
                    "base_qpm": 35.0,
                    "spike_start_minute": 6,
                    "spike_minutes": 5,
                    "spike_multiplier": 3.0,
                    "decay_minutes": 3,
                },
                config={**SMALL_FLEET, "cache_hot_shard_threshold": 10},
            ),
            "full": Preset(
                dataset_size=3000,
                trace_params={
                    "duration_minutes": 60,
                    "base_qpm": 70.0,
                    "spike_start_minute": 20,
                    "spike_minutes": 10,
                    "spike_multiplier": 3.0,
                },
            ),
        },
    )
)

register(
    Scenario(
        name="chaos-cache-poison",
        description=(
            "A quarter of the stored cache entries are silently corrupted "
            "mid-run: every poisoned entry must be caught by the checksum "
            "recomputed on retrieval, deleted tier-wide, and served to no "
            "request — the cache-poison:0 contract certifies zero corrupted "
            "states ever reach a worker."
        ),
        exercises=("cache tier", "poisoning", "checksum detection", "chaos"),
        contracts=("conservation", "cache-tier", "cache-poison:0"),
        trace=TraceSpec(source="library", name="constant", params={"qpm": 100.0}),
        config={
            "cache_shards": 2,
            "cache_replication": 1,
        },
        cache_events=(
            CacheEvent(at_minute=20.0, action="poison", fraction=0.25, seed=7),
        ),
        presets={
            "small": Preset(
                dataset_size=700,
                trace_params={"duration_minutes": 14, "qpm": 50.0},
                config=SMALL_FLEET,
                cache_events=(
                    CacheEvent(at_minute=6.0, action="poison", fraction=0.25, seed=7),
                ),
            ),
            "full": Preset(dataset_size=3000, trace_params={"duration_minutes": 45}),
        },
    )
)
