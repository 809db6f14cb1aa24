"""Scenario certification: invariant contracts verified from run reports.

Every registered scenario declares a non-empty set of *contracts* — named
invariants that must hold in its report — and the registry rejects
scenarios that declare none or misspell one.  A contract is a pure
function of the report **dict** (the exact JSON shape ``python -m repro
run --output`` writes), so the same checks run against a live
:class:`~repro.scenarios.runtime.ScenarioRun`, a sharded merge, or a
report re-loaded from disk, and CI can certify artifacts it did not
produce.

Vocabulary (``Scenario.contracts`` entries; ``fairness`` takes an optional
``:bound`` parameter):

- ``conservation`` — offered = served + rejected + in-flight-at-end,
  where in-flight splits into worker queues (including draining/failed
  workers' outstanding batches) and the admission backlog.
- ``fairness:BOUND`` — Jain's fairness index over weight-normalised
  per-tenant served throughput is at least ``BOUND`` (default 0.8).
- ``slo-ordering:TOL`` — tenants' violation ratios (each against its *own*
  budget) order by SLO class: gold <= standard <= best-effort, up to a
  slack of ``TOL`` (default 0.02) per step.  The slack matters because a
  tighter class is graded against a tighter budget: near-zero ratios can
  invert by sampling noise without any routing misbehaviour.
- ``cache-quota`` — no tenant's cache namespace ever reports more entries
  than its configured quota.
- ``fleet-budget`` — the fleet never exceeds the autoscaler's max budget
  and no scale-in leaves it below the min budget.
- ``ledger-matches-fleet`` — in brokered sharded runs the coordinator's
  committed-worker ledger, reconciled and read before the broker grants,
  equals active + provisioning + failed workers at every barrier, and the
  post-grant ledger stays inside the global budget.  A report whose
  barriers carry no pre-grant ledger passes vacuously.
- ``cache-tier`` — the distributed cache tier's per-shard accounting is
  conserved: shard lookups never exceed retrieval attempts, shard hits
  equal the retrieval hits, and the per-shard entry counts sum to the
  tier's total.
- ``cache-poison:BOUND`` — at most ``BOUND`` poisoned entries were ever
  *served* (default 0: the retrieval-path checksum must catch every
  corrupted entry), and every poisoned entry is either still stored or
  was detected and dropped.

A contract whose inputs are absent from the report (e.g. ``fairness`` on
a single-tenant run, ``ledger-matches-fleet`` sequentially) passes
*vacuously* — composition stays cheap, and :class:`ContractResult` keeps
the distinction visible.

The metamorphic checks at the bottom are contracts over *pairs* of runs:
they derive a transformed scenario, run both, and compare reports.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.scenarios.spec import Scenario

#: SLO classes from tightest to loosest budget; ``slo-ordering`` verifies
#: violation ratios are non-decreasing along this order.
SLO_CLASS_ORDER = ("gold", "standard", "best-effort")


@dataclass(frozen=True)
class ContractResult:
    """Outcome of one contract check against one report."""

    #: The declared contract string, parameter included (``"fairness:0.9"``).
    contract: str
    passed: bool
    #: True when the contract passed only because its inputs are absent.
    vacuous: bool = False
    detail: str = ""

    def __str__(self) -> str:
        status = "ok" if self.passed else "VIOLATED"
        if self.passed and self.vacuous:
            status = "ok (vacuous)"
        suffix = f": {self.detail}" if self.detail else ""
        return f"{self.contract} {status}{suffix}"


def _ok(contract: str, detail: str = "") -> ContractResult:
    return ContractResult(contract=contract, passed=True, detail=detail)


def _vacuous(contract: str, detail: str) -> ContractResult:
    return ContractResult(contract=contract, passed=True, vacuous=True, detail=detail)


def _fail(contract: str, detail: str) -> ContractResult:
    return ContractResult(contract=contract, passed=False, detail=detail)


# --------------------------------------------------------------------------- #
# Checks (each: (contract string, report dict, param) -> ContractResult)
# --------------------------------------------------------------------------- #


def _check_conservation(contract: str, report: dict, param: float | None) -> ContractResult:
    summary = report["summary"]
    outstanding = report.get("extras", {}).get("outstanding")
    if outstanding is None:
        return _vacuous(contract, "report carries no outstanding-request accounting")
    offered = summary["total_arrivals"]
    served = summary["total_completions"]
    rejected = summary["dropped_requests"]
    in_flight = outstanding["worker_queues"] + outstanding["admission_backlog"]
    detail = (
        f"offered {offered} vs served {served} + rejected {rejected}"
        f" + in-flight {in_flight}"
    )
    if offered == served + rejected + in_flight:
        return _ok(contract, detail)
    return _fail(contract, f"requests leaked: {detail}")


def _check_fairness(contract: str, report: dict, param: float | None) -> ContractResult:
    bound = 0.8 if param is None else param
    index = report["summary"].get("fair_share_index")
    if index is None:
        return _vacuous(contract, "single-tenant report has no fairness index")
    detail = f"fair_share_index {index:.4f} vs bound {bound:g}"
    return _ok(contract, detail) if index >= bound else _fail(contract, detail)


def _check_slo_ordering(contract: str, report: dict, param: float | None) -> ContractResult:
    tolerance = 0.02 if param is None else param
    rows = report["summary"].get("tenants") or []
    by_class: dict[str, list[float]] = {}
    for row in rows:
        by_class.setdefault(row["slo_class"], []).append(row["slo_violation_ratio"])
    present = [cls for cls in SLO_CLASS_ORDER if cls in by_class]
    if len(present) < 2:
        return _vacuous(contract, "fewer than two SLO classes in the report")
    means = {cls: sum(by_class[cls]) / len(by_class[cls]) for cls in present}
    detail = " <= ".join(f"{cls} {means[cls]:.4f}" for cls in present)
    for tighter, looser in zip(present, present[1:]):
        if means[tighter] > means[looser] + tolerance:
            return _fail(contract, f"class order inverted: {detail}")
    return _ok(contract, detail)


def _check_cache_quota(contract: str, report: dict, param: float | None) -> ContractResult:
    cache_tenants = report.get("extras", {}).get("cache_tenants")
    if not cache_tenants:
        return _vacuous(contract, "report carries no per-tenant cache accounting")
    over: dict[str, tuple[int, int]] = {}
    bounded = 0
    for name, row in cache_tenants.items():
        quota = row["quota"]
        # Sharded merges carry one entry count per shard (each shard's cache
        # enforces the quota independently); sequential and live reports
        # carry a single "entries" count.
        counts = row.get("shards") or {"": row["entries"]}
        if quota is None:
            continue
        bounded += 1
        for shard, entries in counts.items():
            if entries > quota:
                label = f"{name}@shard{shard}" if shard else name
                over[label] = (entries, quota)
    if over:
        return _fail(contract, f"namespaces over quota: {over}")
    return _ok(contract, f"{len(cache_tenants)} namespaces within quota ({bounded} bounded)")


def _check_fleet_budget(contract: str, report: dict, param: float | None) -> ContractResult:
    extras = report.get("extras", {})
    sharded = "sharding" in extras
    budget = extras.get("fleet_budget") or extras.get("sharding", {}).get("autoscale")
    if budget is None:
        return _vacuous(contract, "no fleet budget in the report (autoscaling off)")
    low, high = budget["min_workers"], budget["max_workers"]
    problems: list[str] = []
    peak = report["summary"]["fleet_peak_workers"]
    if sharded:
        # A sharded merge sums per-shard peaks, which need not be
        # simultaneous; the global bound applies to the barrier-aligned
        # fleet samples the shard merge emits (global in-fleet counts
        # observed at each synchronized barrier).
        sharding = extras["sharding"]
        aligned = sharding.get("fleet_peak_barrier_aligned")
        if aligned is None:
            samples = [
                entry["in_fleet"]
                for entry in sharding.get("barriers", ())
                if "in_fleet" in entry
            ]
            aligned = max(samples) if samples else None
        if aligned is not None:
            peak = aligned
            if aligned > high:
                problems.append(f"barrier-aligned fleet peak {aligned} > max {high}")
    elif peak > high:
        problems.append(f"fleet peak {peak} > max {high}")
    for row in report.get("minutes", ()):
        if row["fleet_workers"] > high + 1e-6:
            problems.append(
                f"minute {row['minute']}: {row['fleet_workers']:.2f} workers > max {high}"
            )
            break
    for event in extras.get("autoscale_events", ()):
        if event["action"] == "scale_out" and event["fleet_size"] > high:
            problems.append(f"scale-out at {event['time_s']:.0f}s passed max {high}")
            break
        if event["action"] == "scale_in" and event["fleet_size"] < low:
            problems.append(f"scale-in at {event['time_s']:.0f}s dropped below min {low}")
            break
    if problems:
        return _fail(contract, "; ".join(problems))
    return _ok(contract, f"fleet stayed within [{low}, {high}] (peak {peak})")


def _check_ledger_matches_fleet(
    contract: str, report: dict, param: float | None
) -> ContractResult:
    sharding = report.get("extras", {}).get("sharding")
    autoscale = (sharding or {}).get("autoscale")
    if autoscale is None:
        return _vacuous(contract, "no budget-broker ledger in the report")
    low, high = autoscale["min_workers"], autoscale["max_workers"]
    checked = 0
    for entry in sharding.get("barriers", ()):
        committed = entry.get("committed_workers")
        if committed is not None and not low <= committed <= high:
            return _fail(
                contract,
                f"barrier {entry['window_end_s']:.0f}s: ledger {committed}"
                f" outside budget [{low}, {high}]",
            )
        before = entry.get("committed_before_grant")
        if before is None:
            continue
        live = entry["in_fleet"] + entry["failed_workers"]
        if before != live:
            return _fail(
                contract,
                f"barrier {entry['window_end_s']:.0f}s: pre-grant ledger {before}"
                f" != live fleet {live}"
                f" ({entry['in_fleet']} in fleet + {entry['failed_workers']} failed)",
            )
        checked += 1
    if not checked:
        return _vacuous(contract, "no barrier carried a pre-grant ledger")
    return _ok(contract, f"ledger matched the live fleet at {checked} barriers")


def _check_cache_tier(contract: str, report: dict, param: float | None) -> ContractResult:
    extras = report.get("extras", {})
    tier = extras.get("cache_tier")
    if tier is None:
        return _vacuous(contract, "report carries no cache-tier accounting")
    attempts = extras.get("retrieval_attempts") or 0
    hit_rate = extras.get("retrieval_hit_rate") or 0.0
    per_shard = tier.get("per_shard", {})
    lookups = sum(row["lookups"] for row in per_shard.values())
    hits = sum(row["hits"] for row in per_shard.values())
    problems: list[str] = []
    if lookups > attempts:
        problems.append(f"shard lookups {lookups} exceed retrieval attempts {attempts}")
    # Retrieval hits are attributed to exactly one answering shard each.
    expected_hits = hit_rate * attempts
    if abs(hits - expected_hits) > 0.5:
        problems.append(
            f"shard hits {hits} != retrieval hits {expected_hits:.1f}"
        )
    live_entries = sum(
        row["entries"] for row in per_shard.values() if row.get("live", True)
    )
    if live_entries != tier.get("entries", live_entries):
        problems.append(
            f"per-shard entries {live_entries} != tier total {tier['entries']}"
        )
    if problems:
        return _fail(contract, "; ".join(problems))
    return _ok(
        contract,
        f"{tier.get('shards')} shards, {lookups} lookups / {hits} hits conserved,"
        f" {live_entries} entries placed",
    )


def _check_cache_poison(contract: str, report: dict, param: float | None) -> ContractResult:
    bound = 0 if param is None else int(param)
    poison = report.get("extras", {}).get("cache_tier", {}).get("poison")
    if poison is None:
        return _vacuous(contract, "report carries no cache-tier poison accounting")
    if poison["entries_poisoned"] == 0:
        return _vacuous(contract, "no entries were poisoned during the run")
    detail = (
        f"{poison['entries_poisoned']} poisoned, {poison['detected']} detected,"
        f" {poison['served']} served (bound {bound})"
    )
    if poison["served"] > bound:
        return _fail(contract, f"poisoned entries served: {detail}")
    if poison["detected"] > poison["entries_poisoned"]:
        return _fail(contract, f"detected more than were poisoned: {detail}")
    return _ok(contract, detail)


_CHECKS = {
    "conservation": _check_conservation,
    "fairness": _check_fairness,
    "slo-ordering": _check_slo_ordering,
    "cache-quota": _check_cache_quota,
    "fleet-budget": _check_fleet_budget,
    "ledger-matches-fleet": _check_ledger_matches_fleet,
    "cache-tier": _check_cache_tier,
    "cache-poison": _check_cache_poison,
}

#: Contracts that accept a ``:value`` parameter.
_PARAMETRIC = {"fairness", "slo-ordering", "cache-poison"}


def contract_names() -> list[str]:
    """All known contract names, sorted."""
    return sorted(_CHECKS)


def parse_contract(contract: str) -> tuple[str, float | None]:
    """Split ``"name"`` / ``"name:param"`` and validate both parts."""
    name, sep, raw = contract.partition(":")
    if name not in _CHECKS:
        raise ValueError(f"unknown contract {name!r}; known: {contract_names()}")
    if not sep:
        return name, None
    if name not in _PARAMETRIC:
        raise ValueError(f"contract {name!r} takes no parameter (got {contract!r})")
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"contract {contract!r}: parameter must be a number") from None
    if name == "fairness" and not 0.0 < value <= 1.0:
        raise ValueError(f"contract {contract!r}: fairness bound must be in (0, 1]")
    if name == "slo-ordering" and value < 0.0:
        raise ValueError(f"contract {contract!r}: tolerance must be non-negative")
    if name == "cache-poison" and value < 0.0:
        raise ValueError(f"contract {contract!r}: served bound must be non-negative")
    return name, value


def validate_contracts(contracts: tuple[str, ...]) -> None:
    """Raise ``ValueError`` on any unknown or malformed contract string."""
    for contract in contracts:
        parse_contract(contract)


def verify_report(report, contracts) -> list[ContractResult]:
    """Check every contract against a report (dict or ``ScenarioReport``)."""
    if hasattr(report, "to_dict"):
        report = report.to_dict()
    results = []
    for contract in contracts:
        name, param = parse_contract(contract)
        results.append(_CHECKS[name](contract, report, param))
    return results


def violations(results: list[ContractResult]) -> list[ContractResult]:
    """The failed subset of :func:`verify_report`'s output."""
    return [result for result in results if not result.passed]


# --------------------------------------------------------------------------- #
# Metamorphic contracts: relations between *pairs* of runs
# --------------------------------------------------------------------------- #


def _resolve(scenario) -> Scenario:
    if isinstance(scenario, str):
        # Lazy: the registry imports this module to validate declarations.
        from repro.scenarios.registry import get_scenario

        return get_scenario(scenario)
    return scenario


def _tenant_blocks(data: dict) -> list[list[dict]]:
    """Every tenant list in a scenario dict (base config + preset configs)."""
    blocks = []
    configs = [data.get("config", {})]
    configs.extend(entry.get("config") or {} for entry in data.get("presets", {}).values())
    for config in configs:
        tenants = config.get("tenants")
        if tenants:
            blocks.append(tenants)
    return blocks


def _first_diff(a, b, path: str = "report") -> str | None:
    """Human-readable first point of difference between two JSON-ish values."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key} present on one side only"
            diff = _first_diff(a[key], b[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path} lengths differ ({len(a)} vs {len(b)})"
        for index, (left, right) in enumerate(zip(a, b)):
            diff = _first_diff(left, right, f"{path}[{index}]")
            if diff:
                return diff
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def check_weight_scaling_noop(
    scenario, preset: str = "small", seed: int | None = None, factor: float = 2.0
) -> ContractResult:
    """Scaling every tenant's weight by one factor must be a bit-level no-op.

    Weights only ever enter the system as *ratios* (admission quanta, DRR
    credit, affinity histograms, Jain normalisation), so a uniform rescale
    must leave the report bit-identical apart from the recorded weights
    themselves.  Use a power-of-two ``factor``: those keep even the
    floating-point divisions exact, so the comparison is strict equality,
    not a tolerance.
    """
    from repro.scenarios.runtime import run_scenario

    contract = f"metamorphic:weight-scaling:{factor:g}"
    scenario = _resolve(scenario)
    data = scenario.to_dict()
    blocks = _tenant_blocks(data)
    if not blocks:
        return _vacuous(contract, f"scenario {scenario.name!r} has no tenants")
    for tenants in blocks:
        for tenant in tenants:
            tenant["weight"] = float(tenant.get("weight", 1.0)) * factor
    scaled = Scenario.from_dict(data)

    base = run_scenario(scenario, preset=preset, seed=seed).report().to_dict()
    varied = run_scenario(scaled, preset=preset, seed=seed).report().to_dict()
    for payload in (base, varied):
        for row in payload["summary"].get("tenants") or []:
            row["weight"] = None
    diff = _first_diff(base, varied)
    if diff is None:
        return _ok(contract, f"reports bit-identical with weights x{factor:g}")
    return _fail(contract, f"weight scaling changed the run: {diff}")


#: Trace-builder parameters that carry absolute request rates.
_RATE_KEYS = frozenset(
    {"qpm", "base_qpm", "peak_qpm", "start_qpm", "low_qpm", "high_qpm"}
)


def _scale_rates(params: dict, factor: float) -> None:
    for key in params:
        if key in _RATE_KEYS:
            params[key] = params[key] * factor


def check_load_fleet_scaling(
    scenario,
    preset: str = "small",
    seed: int | None = None,
    factor: int = 2,
    tolerance: float = 0.05,
) -> ContractResult:
    """Scaling arrivals and fleet together must preserve the violation ratio.

    Doubling every offered rate *and* the worker fleet (plus the autoscale
    budget and the prompt population) keeps per-worker pressure constant,
    so the SLO violation ratio should be preserved up to sampling noise —
    the runs draw different arrival sequences, hence ``tolerance`` rather
    than equality.
    """
    from repro.scenarios.runtime import build_config, run_scenario

    contract = f"metamorphic:load-fleet-scaling:{factor:g}"
    scenario = _resolve(scenario)
    preset_spec = scenario.preset(preset)
    if seed is None:
        seed = scenario.default_seed
    base_config = build_config(scenario, preset_spec, seed)

    data = scenario.to_dict()
    _scale_rates(data["trace"].get("params", {}), factor)
    preset_data = data["presets"][preset]
    _scale_rates(preset_data.get("trace_params", {}), factor)
    for tenants in _tenant_blocks(data):
        for tenant in tenants:
            if tenant.get("extra_qpm"):
                tenant["extra_qpm"] = [q * factor for q in tenant["extra_qpm"]]
    # Pin the *effective* scaled fleet onto the preset config (it wins the
    # config merge), so defaults the scenario never spelled out scale too.
    fleet = {"num_workers": int(round(base_config.num_workers * factor))}
    if base_config.autoscale_enabled:
        fleet["min_workers"] = int(round(base_config.effective_min_workers * factor))
        fleet["max_workers"] = int(round(base_config.effective_max_workers * factor))
    preset_data["config"] = {**(preset_data.get("config") or {}), **fleet}
    preset_data["dataset_size"] = int(round(preset_data["dataset_size"] * factor))
    scaled = Scenario.from_dict(copy.deepcopy(data))

    base = run_scenario(scenario, preset=preset, seed=seed)
    varied = run_scenario(scaled, preset=preset, seed=seed)
    delta = abs(base.summary.slo_violation_ratio - varied.summary.slo_violation_ratio)
    detail = (
        f"violation ratio {base.summary.slo_violation_ratio:.4f} ->"
        f" {varied.summary.slo_violation_ratio:.4f} at {factor}x scale"
        f" (delta {delta:.4f}, tolerance {tolerance:g})"
    )
    if delta <= tolerance:
        return _ok(contract, detail)
    return _fail(contract, detail)
