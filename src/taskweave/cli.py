"""Command-line runner: load a scenario, apply overrides, run, write outputs.

Exit codes: 0 success, 1 runtime failure or an output file that cannot be
written, 2 invalid scenario or run setting, 3 deadlock.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator

import click

from ._collector import collector_paused
from ._files import check_writable, file_identity, write_text
from .errors import DeadlockError, InvalidConfigError, OrchestrationError, ScenarioError
from .orchestrator import RunConfig, orchestrate
from .scenario import load_scenario
from .scoring import WEIGHT_KEYS

# (error class, exit code, stderr prefix): the first match wins, so a subclass precedes its base.
_EXITS = (
    (ScenarioError, 2, "invalid scenario"),
    (InvalidConfigError, 2, "invalid setting"),
    (DeadlockError, 3, "deadlock"),
    ((OrchestrationError, ValueError), 1, "run failed"),
    (OSError, 1, "cannot write"),  # a scenario that cannot be read is a ScenarioError above
)


@contextmanager
def _exit_on_error() -> Iterator[None]:
    """Report an error _EXITS names on stderr and exit with its code; re-raise any other."""
    try:
        yield
    except Exception as exc:
        for kind, code, prefix in _EXITS:
            if isinstance(exc, kind):
                click.echo(f"{prefix}: {exc}", err=True)
                sys.exit(code)
        raise


@click.group()
def main() -> None:
    """Deterministic multi-agent orchestration runs over scenario files."""


# Each option but --report, --log and the weight trio sets the RunConfig field it is named after.
@main.command()
@click.argument("scenario_path", type=click.Path())
@click.option("--static", is_flag=True, help="Static variant: pinned roles, no feedback, no fan-out.")
@click.option("--no-feedback", is_flag=True, help="Never call the evaluator review.")
@click.option("--no-memory", "no_memory_sharing", is_flag=True, help="Agents execute against an empty memory view.")
@click.option("--no-parallel", is_flag=True, help="Disable competitive fan-out.")
@click.option("--seed", type=int, default=None, help="Deterministic replay seed.")
@click.option("--theta", type=float, default=None, help="Ambiguity/confidence threshold.")
@click.option("--k", type=int, default=None, help="Fan-out width for ambiguous tasks.")
@click.option("--alpha", type=float, default=None, help="Coherence weight (give all three).")
@click.option("--beta", type=float, default=None, help="Factuality weight (give all three).")
@click.option("--gamma", type=float, default=None, help="Relevance weight (give all three).")
@click.option("--w1", type=float, default=None, help="Suitability performance weight.")
@click.option("--w2", type=float, default=None, help="Suitability spare-capacity weight.")
@click.option("--report", "report_path", type=click.Path(), default=None, help="Write the report JSON here.")
@click.option("--log", "log_path", type=click.Path(), default=None, help="Write the run log (JSON lines) here.")
@collector_paused  # once over the command: the load and run nested in it skip their exit collections
def run(scenario_path: str, report_path: str | None, log_path: str | None, **settings) -> None:
    """Run SCENARIO_PATH and print the metrics report to stdout."""
    weights = {key: settings.pop(key) for key in WEIGHT_KEYS}
    if None in weights.values():
        if any(w is not None for w in weights.values()):
            raise click.UsageError("--alpha/--beta/--gamma must be given together")
        weights = None

    # An unset value option is None, which with_overrides skips; an unset flag is
    # False, the RunConfig default, and a scenario's defaults cannot set a flag.
    with _exit_on_error():
        for path in (report_path, log_path):
            if path is not None:
                check_writable(path)  # before a load and run that a failed write would waste
        seen: dict[tuple[int, int] | str, str] = {}
        for name, path in (("the scenario", scenario_path), ("--report", report_path), ("--log", log_path)):
            if path is not None:
                identity = file_identity(path)
                if identity in seen:  # a write would replace the scenario or the other output
                    raise InvalidConfigError(f"{name} {path!r} names the same file as {seen[identity]}")
                seen[identity] = name
        scenario = load_scenario(scenario_path)
        config = (
            RunConfig()
            .with_overrides(scenario.defaults)
            .with_overrides({**settings, "weights": weights})
        )
        result = orchestrate(scenario, config)
        report_json = result.report.to_json()
        if report_path is not None:
            write_text(report_path, report_json)
        if log_path is not None:
            result.log.write(log_path)
    click.echo(report_json, nl=False)


@main.command()
@click.argument("scenario_path", type=click.Path())
def validate(scenario_path: str) -> None:
    """Validate SCENARIO_PATH and the settings its defaults give, without running it."""
    with _exit_on_error():
        scenario = load_scenario(scenario_path)
        RunConfig().with_overrides(scenario.defaults)
    click.echo(f"ok: {len(scenario.tasks)} tasks, {len(scenario.agents)} agents")


if __name__ == "__main__":
    main()
