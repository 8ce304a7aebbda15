"""Command-line runner: load a scenario, apply overrides, run, write outputs.

Exit codes: 0 success, 1 runtime failure or an output that cannot be written
(stdout too), 2 invalid scenario, run setting or command line, 3 deadlock.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, Sequence

from ._collector import collector_paused
from ._files import check_writable, file_identity, write_text
from .errors import DeadlockError, InvalidConfigError, OrchestrationError, ScenarioError
from .orchestrator import DEFAULT_CONFIG, orchestrate
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
                print(f"{prefix}: {exc}", file=sys.stderr)
                sys.exit(code)
        raise


def _echo(text: str) -> None:
    """Write `text` to stdout and flush it, so a failed write raises here, in `_exit_on_error`."""
    try:
        print(text, end="", flush=True)
    except OSError:
        sys.stdout = None  # drops the unwritten text, whose flush at exit would fail again
        raise


@collector_paused  # once over the command: the load and run nested in it skip their exit collections
def run(scenario_path: str, report_path: str | None, log_path: str | None, **settings) -> None:
    """Run SCENARIO_PATH and print the metrics report to stdout."""
    weights = {key: settings.pop(key) for key in WEIGHT_KEYS}
    if None in weights.values():
        if any(w is not None for w in weights.values()):
            _RUN.error("--alpha/--beta/--gamma must be given together")
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
        config = DEFAULT_CONFIG.with_overrides(scenario.defaults, {**settings, "weights": weights})
        result = orchestrate(scenario, config)
        report_json = result.report.to_json()
        if report_path is not None:
            write_text(report_path, report_json)
        if log_path is not None:
            result.log.write(log_path)
        _echo(report_json)


def validate(scenario_path: str) -> None:
    """Validate SCENARIO_PATH and the settings its defaults give, without running it."""
    with _exit_on_error():
        scenario = load_scenario(scenario_path)
        DEFAULT_CONFIG.with_overrides(scenario.defaults)
        _echo(f"ok: {len(scenario.tasks)} tasks, {len(scenario.agents)} agents\n")


# Without allow_abbrev=False a prefix of an option would pass for it: `--no-p` for `--no-parallel`.
_PARSER = argparse.ArgumentParser(
    prog="taskweave", description="Deterministic multi-agent orchestration runs over scenario files.", allow_abbrev=False
)
_COMMANDS = _PARSER.add_subparsers(dest="command", required=True)
for _command in (run, validate):
    _parser = _COMMANDS.add_parser(_command.__name__, help=_command.__doc__, description=_command.__doc__, allow_abbrev=False)
    _parser.add_argument("scenario_path", metavar="SCENARIO_PATH")
    _parser.set_defaults(command=_command)  # parsed in place of the command's name
_RUN = _COMMANDS.choices["run"]
# Each option but --report, --log and the weight trio sets the RunConfig field it is named after.
_RUN.add_argument("--static", action="store_true", help="Static variant: pinned roles, no feedback, no fan-out.")
_RUN.add_argument("--no-feedback", action="store_true", help="Never call the evaluator review.")
_RUN.add_argument("--no-memory", dest="no_memory_sharing", action="store_true", help="Agents execute against an empty memory view.")
_RUN.add_argument("--no-parallel", action="store_true", help="Disable competitive fan-out.")
_RUN.add_argument("--seed", type=int, help="Deterministic replay seed.")
_RUN.add_argument("--theta", type=float, help="Ambiguity/confidence threshold.")
_RUN.add_argument("--k", type=int, help="Fan-out width for ambiguous tasks.")
_RUN.add_argument("--alpha", type=float, help="Coherence weight (give all three).")
_RUN.add_argument("--beta", type=float, help="Factuality weight (give all three).")
_RUN.add_argument("--gamma", type=float, help="Relevance weight (give all three).")
_RUN.add_argument("--w1", type=float, help="Suitability performance weight.")
_RUN.add_argument("--w2", type=float, help="Suitability spare-capacity weight.")
_RUN.add_argument("--report", dest="report_path", help="Write the report JSON here.")
_RUN.add_argument("--log", dest="log_path", help="Write the run log (JSON lines) here.")


def _parse(args: list[str]) -> dict:
    """The command and settings `args` gives; a bad command line exits 2."""
    parser = _COMMANDS.choices.get(args[0]) if args else None
    if parser is None:
        namespace, extras = _PARSER.parse_known_args(args)
        command = namespace.command.__name__  # an extra is reported by the parser given it, whose usage lists its options
        parser = _PARSER if any(extra in args[: args.index(command)] for extra in extras) else _COMMANDS.choices[command]
    else:  # `_PARSER` would hand every string after the command to the command's parser alone
        namespace, extras = parser.parse_known_args(args[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return vars(namespace)


def main(args: Sequence[str] | None = None, standalone_mode: bool = True) -> None:
    """Run the command `args` (by default the process's arguments) names; a bad command line exits 2."""
    parsed = _parse(sys.argv[1:] if args is None else list(args))
    parsed.pop("command")(**parsed)


main.main = main  # so the older call main.main(args=..., standalone_mode=False) works; the mode changes nothing


if __name__ == "__main__":
    main()
