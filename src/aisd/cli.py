"""Command line interface.

    aisd synth --profile normal1 -o normal1.tcr
    aisd stats --log normal1.tcr
    aisd serve --params params.txt --port 7004
    aisd replay --log normal1.tcr --rate 10
    aisd experiment --plan plan.txt --out out/exp1 --offline
    aisd eval --policy naive-policy.txt --log success1.tcr

`tcreplay` is a standalone alias for the replay subcommand.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Callable
from dataclasses import replace
from functools import partial
from typing import TypeVar

from .harness import load_params_file, read_plan, run_experiment, run_offline
from .policy import evaluate, read_policy
from .scenarios import BUNDLED_PROFILES, synthesize_scenario
from .tissue import TissueParams, create_compartment
from .trace_model import dataset_stats, read_replay_log, write_replay_log
from .twocell import TwocellParams, attach_twocell
from .wire import DEFAULT_HOST, ReplayConfig, ReplayError, TissueServer, default_port, replay

PORT_HELP = "default: the AISD_PORT environment variable, else 7004"

T = TypeVar("T")


class InputFileError(Exception):
    """An input named on the command line is bad: a file that is missing,
    malformed or cannot be written, whose path starts the message, or an
    option value that the program's own checks reject."""


def _read(use: Callable[[str], T], path: str) -> T:
    """``use(path)``, with a file that cannot be read or written, or is
    malformed, raised as an ``InputFileError`` that names it."""
    try:
        return use(path)
    except OSError as exc:
        raise InputFileError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise InputFileError(f"{path}: {exc}") from None


def _checked(make: Callable[[], T]) -> T:
    """``make()``, with an option value that its checks reject raised as an
    ``InputFileError`` in the words of the check."""
    try:
        return make()
    except ValueError as exc:
        raise InputFileError(str(exc)) from None


def _add_replay_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--log", required=True, help="replay log file")
    parser.add_argument("--rate", type=float, default=1.0, help="rate multiplier (1.0 = realtime)")
    parser.add_argument("--host", default=DEFAULT_HOST)
    parser.add_argument("--port", type=int, default=None, help=PORT_HELP)
    parser.add_argument("--start-delay", type=float, default=0.0, dest="start_delay")
    parser.add_argument("--tail", type=float, default=0.0, help="seconds to hold the connection open after the last record")


def _port(args: argparse.Namespace) -> int:
    return default_port() if args.port is None else args.port


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.list_profiles:
        for name, profile in BUNDLED_PROFILES.items():
            print(f"{name}: kind={profile.kind.value} duration={profile.duration}s seed={profile.seed}")
        return 0
    try:
        profile = BUNDLED_PROFILES[args.profile]
    except KeyError:
        print(f"unknown profile {args.profile!r}; use --list-profiles", file=sys.stderr)
        return 2
    if args.seed is not None:
        profile = replace(profile, seed=args.seed)
    log = synthesize_scenario(profile)
    _read(partial(write_replay_log, log), args.out)
    stats = dataset_stats(log)
    print(f"{profile.name} {stats.total_time} {stats.total_antigen} {stats.max_antigen_rate} -> {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    for path in args.log:
        log = _read(read_replay_log, path)
        s = dataset_stats(log)
        print(f"{log.scenario_name} {s.total_time} {s.total_antigen} {s.max_antigen_rate}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    tissue_params, twocell_params, extras = (
        _read(partial(load_params_file, extra=("seed",)), args.params) if args.params
        else (TissueParams(), TwocellParams(), {})
    )
    seed = extras.get("seed", 0) if args.seed is None else args.seed
    compartment = create_compartment(tissue_params, seed)
    attach_twocell(compartment, twocell_params)
    server = _checked(lambda: TissueServer(
        compartment, host=args.host, port=_port(args),
        cycles_per_second=tissue_params.cycles_per_second,
    ))
    try:
        server.start()
    except OSError as exc:
        print(f"aisd serve: {server.host}:{server.port}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    print(f"serving on {server.host}:{server.port} (Ctrl-C to stop)")
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        print(f"responses: {compartment.responses_total}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    log = _read(read_replay_log, args.log)
    config = _checked(lambda: ReplayConfig(
        host=args.host, port=_port(args), rate_multiplier=args.rate,
        start_delay=args.start_delay, tail_time=args.tail,
    ))
    summary = replay(log, config)
    print(
        f"sent {summary.sent_antigen} antigen, {summary.sent_signals} signals "
        f"in {summary.wall_time:.2f}s"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    plan = _read(read_plan, args.plan)
    params = _read(load_params_file, plan.params_file)[:2] if plan.params_file else ()
    _read(partial(os.makedirs, exist_ok=True), args.out)  # before the first run, not hours after
    runner = run_offline if args.offline else run_experiment
    result = runner(plan, args.out, *params)
    failed = sum(1 for r in result.runs if r.failed)
    print(f"{len(result.runs)} runs ({failed} failed) -> {result.out_dir}")
    print((result.out_dir / "report.txt").read_text(encoding="utf-8"))
    return 1 if failed == len(result.runs) and result.runs else 0


def _cmd_eval(args: argparse.Namespace) -> int:
    pol = _read(read_policy, args.policy)
    log = _read(read_replay_log, args.log)
    row = evaluate(pol, log)
    print(
        f"{row.dataset}: total={row.total} normal={row.normal_count} attack={row.attack_count} "
        f"permit={row.permit_count} deny={row.deny_count} "
        f"({row.normal_pct}%/{row.attack_pct}%/{row.permit_pct}%/{row.deny_pct}%)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aisd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a bundled synthetic scenario")
    p.add_argument("--profile", default="normal1")
    p.add_argument("--seed", type=int, default=None, help="override the profile seed")
    p.add_argument("-o", "--out", default="scenario.tcr")
    p.add_argument("--list-profiles", action="store_true")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("stats", help="print dataset statistics for replay logs")
    p.add_argument("--log", nargs="+", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("serve", help="run a tissue server with the two-cell detector")
    p.add_argument("--params", default=None, help="key = value parameter file")
    p.add_argument("--host", default=DEFAULT_HOST)
    p.add_argument("--port", type=int, default=None, help=PORT_HELP)
    p.add_argument("--seed", type=int, default=None, help="overrides the params-file seed")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("replay", help="replay a log into a running server")
    _add_replay_args(p)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("experiment", help="run a full experiment plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--offline", action="store_true",
        help="deterministic, no sockets; runs spread over the usable CPUs",
    )
    mode.add_argument("--realtime", action="store_false", dest="offline")
    p.set_defaults(func=_cmd_experiment, offline=False)

    p = sub.add_parser("eval", help="evaluate a policy file against a labeled log")
    p.add_argument("--policy", required=True)
    p.add_argument("--log", required=True)
    p.set_defaults(func=_cmd_eval)

    return parser


def _run(prog: str, command: Callable[[argparse.Namespace], int], args: argparse.Namespace) -> int:
    """``command(args)``'s exit status; else, reported on stderr as
    ``<prog>: <message>``, 2 after a bad input (a file's message starts with
    its path) and 1 after a failed replay connection."""
    try:
        return command(args)
    except (InputFileError, ReplayError) as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputFileError) else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _run(f"aisd {args.command}", args.func, args)


def tcreplay_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tcreplay", description="replay a recorded log into a tissue server"
    )
    _add_replay_args(parser)
    args = parser.parse_args(argv)
    return _run("tcreplay", _cmd_replay, args)


if __name__ == "__main__":
    raise SystemExit(main())
