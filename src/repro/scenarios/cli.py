"""The ``python -m repro`` command line: list, describe and run scenarios.

Commands::

    python -m repro list [--json]
    python -m repro describe <scenario> [--json]
    python -m repro run --scenario <name> [--preset small|full] [--seed N]
                        [--system argus] [--shards N]
                        [--output report.json] [--check-contracts]
    python -m repro serve [--host H] [--port P] [--time-scale X]
                          [--config-json config.json]
    python -m repro loadgen <scenario> [--preset small] [--url http://...]
                            [--time-scale X] [--config-json config.json]
                            [--output report.json] [--check-contracts]

``list --json`` prints the scenario names as a JSON array — the CI scenario
matrix is generated from exactly that output.  ``run`` writes a
scenario-tagged :class:`~repro.metrics.report.ScenarioReport` JSON file that
is byte-identical across repeated runs with the same arguments.  With
``--check-contracts`` the run's report is verified against the scenario's
declared invariant contracts and the command exits 1 on any violation —
the CI ``scenario-matrix`` job is exactly that, over the whole catalog.

``serve`` starts the live HTTP gateway (:mod:`repro.gateway`); ``loadgen``
replays a scenario's request stream against it (in-process by default, or an
external server via ``--url``) and verifies the same contracts on the live
report — the CI ``gateway-smoke`` job is exactly that.  ``--config-json``
takes a file in the ``ArgusConfig.to_dict()`` shape (scrape a live server's
``GET /config`` for a template); unknown keys are rejected with a
nearest-name suggestion.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments.runner import SYSTEM_NAMES
from repro.scenarios.contracts import verify_report, violations
from repro.scenarios.registry import get_scenario, list_scenarios, scenario_names
from repro.scenarios.runtime import run_scenario


def _cmd_list(args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps(scenario_names()))
        return 0
    rows = [
        (
            scenario.name,
            f"{scenario.trace.source}:{scenario.trace.name or 'inline'}",
            ",".join(sorted(scenario.presets)),
            scenario.description,
        )
        for scenario in list_scenarios()
    ]
    name_width = max(len(row[0]) for row in rows)
    trace_width = max(len(row[1]) for row in rows)
    preset_width = max(len(row[2]) for row in rows)
    header = (
        f"{'scenario':<{name_width}}  {'trace':<{trace_width}}  "
        f"{'presets':<{preset_width}}  description"
    )
    print(header)
    print("-" * len(header))
    for name, trace, presets, description in rows:
        print(
            f"{name:<{name_width}}  {trace:<{trace_width}}  "
            f"{presets:<{preset_width}}  {description}"
        )
    return 0


def _lookup(args: argparse.Namespace):
    """Resolve the scenario (and preset, for run) or exit with a message.

    Only name lookups are caught here — a KeyError out of the simulator
    itself is a bug and should traceback, not print a one-liner.
    """
    try:
        scenario = get_scenario(args.scenario)
        if getattr(args, "preset", None) is not None:
            scenario.preset(args.preset)
        return scenario
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return None


def _cmd_describe(args: argparse.Namespace) -> int:
    scenario = _lookup(args)
    if scenario is None:
        return 2
    if args.json:
        print(json.dumps(scenario.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"{scenario.name}: {scenario.description}")
    print(f"  system:    {scenario.system}")
    print(f"  trace:     {scenario.trace.source}:{scenario.trace.name or 'inline'}"
          f" {scenario.trace.params or ''}")
    print(f"  arrivals:  {scenario.arrival_kind}")
    if scenario.exercises:
        print(f"  exercises: {', '.join(scenario.exercises)}")
    if scenario.config:
        print(f"  config:    {scenario.config}")
    for kind, entries in (
        ("faults", scenario.faults),
        ("drift", scenario.drift),
        ("network", scenario.network),
    ):
        if entries:
            print(f"  {kind}:")
            for entry in entries:
                print(f"    - {entry}")
    for preset_name in sorted(scenario.presets):
        preset = scenario.presets[preset_name]
        print(f"  preset {preset_name!r}: dataset={preset.dataset_size}"
              f" drain={preset.drain_s:g}s trace_params={preset.trace_params}"
              f" config={preset.config}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _lookup(args)
    if scenario is None:
        return 2
    run = run_scenario(
        scenario,
        preset=args.preset,
        seed=args.seed,
        system=args.system,
        shards=args.shards,
    )
    report = run.report()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    if not args.quiet:
        row = run.summary.as_row()
        print(
            f"scenario={run.scenario.name} preset={run.preset_name} seed={run.seed} "
            f"system={row['system']}"
        )
        for key in (
            "served_qpm",
            "slo_violation_ratio",
            "relative_quality",
            "p99_latency_s",
            "utilization",
            "fleet_peak",
        ):
            print(f"  {key:<22}{row[key]}")
        for key in ("strategy_switches", "retraining_events", "retrieval_hit_rate"):
            if run.extras.get(key) is not None:
                print(f"  {key:<22}{run.extras[key]}")
        if args.output:
            print(f"  report written to {args.output}")
    if args.check_contracts:
        results = verify_report(report, scenario.contracts)
        failed = violations(results)
        stream = sys.stderr if failed else sys.stdout
        if not args.quiet or failed:
            print(f"contracts ({scenario.name}):", file=stream)
            for result in results:
                print(f"  {result}", file=stream)
        if failed:
            return 1
    return 0


def _load_config_json(path: str | None):
    """Parse a ``--config-json`` file into an ``ArgusConfig`` (or None)."""
    if path is None:
        return None
    from repro.core.config import ArgusConfig

    with open(path, encoding="utf-8") as handle:
        return ArgusConfig.from_dict(json.load(handle))


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api import serve

    try:
        config = _load_config_json(args.config_json)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    serve(config=config, host=args.host, port=args.port, time_scale=args.time_scale)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    scenario = _lookup(args)
    if scenario is None:
        return 2
    from repro.gateway.loadgen import replay

    try:
        config = _load_config_json(args.config_json)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = replay(
        scenario,
        preset=args.preset,
        seed=args.seed,
        time_scale=args.time_scale,
        url=args.url,
        config=config,
        check_contracts=args.check_contracts,
        max_minutes=args.max_minutes,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result.report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if not args.quiet:
        summary = result.report["summary"]
        print(
            f"loadgen scenario={result.scenario} preset={result.preset} "
            f"seed={result.seed} time_scale={args.time_scale:g}"
        )
        print(f"  {'requests_sent':<22}{result.requests_sent}")
        print(f"  {'requests_ok':<22}{result.requests_ok}")
        print(f"  {'requests_dropped':<22}{result.requests_dropped}")
        for key in ("total_completions", "slo_violation_ratio", "p99_latency_s"):
            if key in summary:
                print(f"  {key:<22}{summary[key]}")
        if args.output:
            print(f"  report written to {args.output}")
    if args.check_contracts:
        failed = violations(result.contract_results)
        stream = sys.stderr if failed else sys.stdout
        if not args.quiet or failed:
            print(f"contracts ({result.scenario}, live):", file=stream)
            for contract_result in result.contract_results:
                print(f"  {contract_result}", file=stream)
        if failed:
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproducible scenario runner for the Argus reproduction.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser("list", help="list registered scenarios")
    list_parser.add_argument("--json", action="store_true", help="emit a JSON array of names")
    list_parser.set_defaults(func=_cmd_list)

    describe = commands.add_parser("describe", help="show one scenario's full spec")
    describe.add_argument("scenario", help="scenario name (see 'list')")
    describe.add_argument("--json", action="store_true", help="emit the spec as JSON")
    describe.set_defaults(func=_cmd_describe)

    run_parser = commands.add_parser("run", help="run a scenario and emit a JSON report")
    run_parser.add_argument("--scenario", required=True, help="scenario name (see 'list')")
    run_parser.add_argument("--preset", default="full", help="preset name (default: full)")
    run_parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_parser.add_argument(
        "--system", default=None, choices=SYSTEM_NAMES,
        help="serve with a different system than the scenario default",
    )
    run_parser.add_argument(
        "--shards", type=int, default=None,
        help="partition the run across N shard processes (1 = sequential)",
    )
    run_parser.add_argument("--output", default=None, help="write the JSON report here")
    run_parser.add_argument(
        "--check-contracts", action="store_true", dest="check_contracts",
        help="verify the scenario's invariant contracts against the report; "
        "exit 1 on any violation",
    )
    run_parser.add_argument("--quiet", action="store_true", help="suppress the summary printout")
    run_parser.set_defaults(func=_cmd_run)

    serve_parser = commands.add_parser("serve", help="start the live HTTP gateway")
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument("--port", type=int, default=8080, help="bind port (0 = ephemeral)")
    serve_parser.add_argument(
        "--time-scale", type=float, default=1.0, dest="time_scale",
        help="model-seconds per wall-second (60 = one model-minute per second)",
    )
    serve_parser.add_argument(
        "--config-json", default=None, dest="config_json",
        help="ArgusConfig JSON file (shape of GET /config)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    loadgen = commands.add_parser(
        "loadgen", help="replay a scenario's request stream against a live gateway"
    )
    loadgen.add_argument("scenario", help="scenario name (see 'list')")
    loadgen.add_argument("--preset", default="small", help="preset name (default: small)")
    loadgen.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    loadgen.add_argument(
        "--time-scale", type=float, default=60.0, dest="time_scale",
        help="replay compression: model-seconds per wall-second (default: 60)",
    )
    loadgen.add_argument(
        "--url", default=None,
        help="external gateway URL; default starts an in-process loopback gateway",
    )
    loadgen.add_argument(
        "--max-minutes", type=float, default=None, dest="max_minutes",
        help="truncate the stream after N scenario-minutes",
    )
    loadgen.add_argument(
        "--config-json", default=None, dest="config_json",
        help="ArgusConfig JSON overriding the scenario-derived config "
        "(in-process gateway only)",
    )
    loadgen.add_argument("--output", default=None, help="write the live JSON report here")
    loadgen.add_argument(
        "--check-contracts", action="store_true", dest="check_contracts",
        help="verify the scenario's invariant contracts against the live report; "
        "exit 1 on any violation",
    )
    loadgen.add_argument("--quiet", action="store_true", help="suppress the summary printout")
    loadgen.set_defaults(func=_cmd_loadgen)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
