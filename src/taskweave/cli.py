"""Command-line runner: load a scenario, apply overrides, run, write outputs.

Exit codes: 0 success, 1 runtime failure, 2 invalid scenario or run setting,
3 deadlock.
"""

from __future__ import annotations

import logging
import sys
from pathlib import Path

import click

from .errors import DeadlockError, InvalidConfigError, OrchestrationError, ScenarioError
from .orchestrator import RunConfig, orchestrate
from .scenario import load_scenario

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_SCENARIO_INVALID = 2
EXIT_DEADLOCK = 3

logger = logging.getLogger(__name__)


@click.group()
def main() -> None:
    """Deterministic multi-agent orchestration runs over scenario files."""
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")


@main.command()
@click.argument("scenario_path", type=click.Path())
@click.option("--static", is_flag=True, help="Static variant: pinned roles, no feedback, no fan-out.")
@click.option("--no-feedback", is_flag=True, help="Never call the evaluator review.")
@click.option("--no-memory", is_flag=True, help="Agents execute against an empty memory view.")
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
def run(
    scenario_path: str,
    static: bool,
    no_feedback: bool,
    no_memory: bool,
    no_parallel: bool,
    seed: int | None,
    theta: float | None,
    k: int | None,
    alpha: float | None,
    beta: float | None,
    gamma: float | None,
    w1: float | None,
    w2: float | None,
    report_path: str | None,
    log_path: str | None,
) -> None:
    """Run SCENARIO_PATH and print the metrics report to stdout."""
    weight_args = (alpha, beta, gamma)
    if any(w is not None for w in weight_args) and None in weight_args:
        raise click.UsageError("--alpha/--beta/--gamma must be given together")

    try:
        scenario = load_scenario(scenario_path)
        config = (
            RunConfig()
            .with_overrides(scenario.defaults)
            .with_overrides(
                {
                    "seed": seed,
                    "theta": theta,
                    "k": k,
                    "w1": w1,
                    "w2": w2,
                    "weights": (
                        {"alpha": alpha, "beta": beta, "gamma": gamma}
                        if alpha is not None
                        else None
                    ),
                    "static": static or None,
                    "no_feedback": no_feedback or None,
                    "no_memory_sharing": no_memory or None,
                    "no_parallel": no_parallel or None,
                }
            )
        )
        result = orchestrate(scenario, config)
    except ScenarioError as exc:
        click.echo(f"invalid scenario: {exc}", err=True)
        sys.exit(EXIT_SCENARIO_INVALID)
    except InvalidConfigError as exc:
        click.echo(f"invalid setting: {exc}", err=True)
        sys.exit(EXIT_SCENARIO_INVALID)
    except DeadlockError as exc:
        click.echo(f"deadlock: {exc}", err=True)
        sys.exit(EXIT_DEADLOCK)
    except (OrchestrationError, ValueError) as exc:
        click.echo(f"run failed: {exc}", err=True)
        sys.exit(EXIT_FAILURE)

    report_json = result.report.to_json()
    if report_path is not None:
        Path(report_path).write_text(report_json, encoding="utf-8")
    if log_path is not None:
        result.log.write(log_path)
    click.echo(report_json, nl=False)
    sys.exit(EXIT_OK)


@main.command()
@click.argument("scenario_path", type=click.Path())
def validate(scenario_path: str) -> None:
    """Validate SCENARIO_PATH and the settings its defaults give, without running it."""
    try:
        scenario = load_scenario(scenario_path)
        RunConfig().with_overrides(scenario.defaults)
    except ScenarioError as exc:
        click.echo(f"invalid scenario: {exc}", err=True)
        sys.exit(EXIT_SCENARIO_INVALID)
    except InvalidConfigError as exc:
        click.echo(f"invalid setting: {exc}", err=True)
        sys.exit(EXIT_SCENARIO_INVALID)
    click.echo(
        f"ok: {len(scenario.tasks)} tasks, {len(scenario.agents)} agents"
    )
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
