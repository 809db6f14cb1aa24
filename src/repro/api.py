"""High-level facade: the four calls most users need.

The repo's deep module paths stay public and stable, but a typical session
only needs four verbs, collected here:

- :func:`load_scenario` — look up a registered scenario spec by name.
- :func:`run` — run a scenario in simulation and get a ``ScenarioRun``.
- :func:`serve` — start the live HTTP gateway and block.
- :func:`replay` — fire a scenario's request stream at a live gateway.

Example::

    import repro

    run = repro.run("steady-baseline", preset="small")
    print(run.summary.as_row())

    result = repro.replay("steady-baseline", preset="small", time_scale=60)
    print(result.report["summary"]["total_completions"])
"""

from __future__ import annotations

import asyncio

from repro.core.config import ArgusConfig
from repro.gateway.loadgen import LoadgenResult
from repro.gateway.loadgen import replay as _replay
from repro.gateway.server import Gateway
from repro.scenarios.registry import get_scenario
from repro.scenarios.runtime import ScenarioRun, run_scenario
from repro.scenarios.spec import Scenario


def load_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name (see ``python -m repro list``)."""
    return get_scenario(name)


def run(
    scenario: Scenario | str,
    preset: str = "full",
    seed: int | None = None,
    system: str | None = None,
    shards: int | None = None,
) -> ScenarioRun:
    """Run a scenario in simulation; same (scenario, preset, seed) in, same
    bits out.  Delegates to :func:`repro.scenarios.runtime.run_scenario`."""
    return run_scenario(scenario, preset=preset, seed=seed, system=system, shards=shards)


def serve(
    config: ArgusConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 8080,
    time_scale: float = 1.0,
) -> None:
    """Start the live HTTP gateway and serve until interrupted.

    ``time_scale`` compresses model time (60 = one model-minute per wall
    second).  For programmatic control construct
    :class:`repro.gateway.server.Gateway` directly.
    """

    async def _serve() -> None:
        gateway = Gateway(config=config, time_scale=time_scale)
        await gateway.start(host=host, port=port)
        print(f"gateway listening on {gateway.url} (time_scale={time_scale:g})")
        try:
            await gateway.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await gateway.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass


def replay(
    scenario: Scenario | str,
    preset: str = "small",
    seed: int | None = None,
    time_scale: float = 60.0,
    url: str | None = None,
    config: ArgusConfig | None = None,
    check_contracts: bool = False,
    max_minutes: float | None = None,
) -> LoadgenResult:
    """Replay a scenario's request stream against a live gateway.

    With ``url=None`` a loopback gateway is started for the duration.
    Delegates to :func:`repro.gateway.loadgen.replay`.
    """
    return _replay(
        scenario,
        preset=preset,
        seed=seed,
        time_scale=time_scale,
        url=url,
        config=config,
        check_contracts=check_contracts,
        max_minutes=max_minutes,
    )


__all__ = ["Gateway", "LoadgenResult", "load_scenario", "replay", "run", "serve"]
