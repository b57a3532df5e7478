"""How the command line fails: one stderr line, no traceback, and the exit
status README gives (1 for a failed run or connection, 2 for a bad input)."""
from __future__ import annotations

import contextlib
import io
import socket
import struct
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisd import cli
from aisd.harness import load_params_file, read_plan
from aisd.policy import format_policy, naive_policy, read_policy
from aisd.trace_model import (
    Label,
    SignalSample,
    SyscallEvent,
    format_replay_log,
    merge_to_replay_log,
    read_replay_log,
)

LOG = merge_to_replay_log(
    [SyscallEvent(0.1 * k, 5 + k % 3, Label.NORMAL) for k in range(6)],
    [SignalSample(0.15, "cpu", 0.5)],
    "tiny",
)


def closed_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def run(main, argv):
    """``main(argv)``'s exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


@pytest.fixture
def log_file(tmp_path):
    path = tmp_path / "tiny.tcr"
    path.write_text(format_replay_log(LOG))
    return path


@pytest.fixture
def no_serve_loop(monkeypatch):
    def interrupt(seconds):  # ends the serve loop, should it start
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.time, "sleep", interrupt)


# -- connections ---------------------------------------------------------------

@pytest.mark.parametrize("main, prog", [
    (lambda argv: cli.main(["replay", *argv]), "aisd replay"),
    (cli.tcreplay_main, "tcreplay"),
], ids=["aisd-replay", "tcreplay"])
def test_refused_connection_exits_1(log_file, main, prog):
    port = closed_port()
    status, out, err = run(main, ["--log", str(log_file), "--port", str(port)])
    assert status == 1
    assert out == ""
    assert err.startswith(f"{prog}: connect to 127.0.0.1:{port} failed: ")
    assert err.count("\n") == 1


def test_connection_lost_mid_replay_exits_1(log_file):
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.settimeout(30)

        def reset_after_hello():
            conn, _ = listener.accept()
            with conn:
                conn.recv(64)
                # close with a reset: the replay's next send fails
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

        thread = threading.Thread(target=reset_after_hello)
        thread.start()
        port = listener.getsockname()[1]
        status, _, err = run(cli.main, ["replay", "--log", str(log_file), "--port", str(port)])
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert status == 1
    assert err.startswith("aisd replay: connection lost after ")
    assert err.count("\n") == 1


def test_serve_on_a_bound_port_exits_1(no_serve_loop):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        port = taken.getsockname()[1]
        status, out, err = run(cli.main, ["serve", "--host", "127.0.0.1", "--port", str(port)])
    assert status == 1
    assert "serving on" not in out
    assert err == f"aisd serve: 127.0.0.1:{port}: Address already in use\n"


# -- option values ---------------------------------------------------------------

@pytest.mark.parametrize("argv, env_port, message", [
    (["replay", "--rate", "0"], None, "rate_multiplier must be finite and > 0, got 0.0"),
    (["replay", "--rate", "nan"], None, "rate_multiplier must be finite and > 0, got nan"),
    (["replay", "--start-delay", "-1"], None, "start_delay must be finite and >= 0, got -1.0"),
    (["replay", "--port", "70000"], None, "port must be in 0..65535, got 70000"),
    (["tcreplay", "--rate", "0"], None, "rate_multiplier must be finite and > 0, got 0.0"),
    (["serve", "--port", "-1"], None, "port must be in 0..65535, got -1"),
    (["replay"], "abc", "AISD_PORT must be an integer, got 'abc'"),
    (["serve"], "abc", "AISD_PORT must be an integer, got 'abc'"),
    (["tcreplay"], "70000", "port must be in 0..65535, got 70000"),
], ids=["rate-0", "rate-nan", "start-delay", "port", "tcreplay-rate", "serve-port",
        "replay-env-port", "serve-env-port", "tcreplay-env-port"])
def test_rejected_option_value_exits_2(log_file, monkeypatch, no_serve_loop,
                                       argv, env_port, message):
    command, *options = argv
    if command != "serve":
        options += ["--log", str(log_file)]
    if env_port is None:
        if "--port" not in options:  # a replay that got past the checks exits 1
            options += ["--port", str(closed_port())]
    else:
        monkeypatch.setenv("AISD_PORT", env_port)
    if command == "tcreplay":
        status, out, err = run(cli.tcreplay_main, options)
        prog = "tcreplay"
    else:
        status, out, err = run(cli.main, [command, *options])
        prog = f"aisd {command}"
    assert status == 2
    assert out == ""
    assert err == f"{prog}: {message}\n"


# -- output paths ------------------------------------------------------------------

def test_synth_into_a_missing_directory_exits_2(tmp_path):
    out = tmp_path / "missing-dir" / "x.tcr"
    status, stdout, err = run(cli.main, ["synth", "-o", str(out)])
    assert status == 2
    assert stdout == ""
    assert err == f"aisd synth: {out}: No such file or directory\n"


@pytest.mark.parametrize("offline", [[], ["--offline"]], ids=["realtime", "offline"])
@pytest.mark.parametrize("out_name, reason", [
    ("a-file", "File exists"),
    ("a-file/out", "Not a directory"),
])
def test_experiment_out_that_cannot_be_made_exits_2_before_any_run(
    tmp_path, monkeypatch, offline, out_name, reason
):
    def runner(*args):
        raise AssertionError("runner called")

    monkeypatch.setattr(cli, "run_offline", runner)
    monkeypatch.setattr(cli, "run_experiment", runner)
    (tmp_path / "a-file").write_text("")
    plan = tmp_path / "plan.txt"
    plan.write_text("dataset = n.tcr normal\n")
    out = tmp_path / out_name
    status, stdout, err = run(
        cli.main, ["experiment", "--plan", str(plan), "--out", str(out), *offline]
    )
    assert status == 2
    assert stdout == ""
    assert err == f"aisd experiment: {out}: {reason}\n"


def test_unreadable_dataset_stays_a_failed_run(tmp_path):
    (tmp_path / "a-dir.tcr").mkdir()
    plan = tmp_path / "plan.txt"
    plan.write_text("dataset = a-dir.tcr normal\nruns_per_dataset = 2\ntail_time = 1\n")
    out = tmp_path / "out"
    status, stdout, err = run(
        cli.main, ["experiment", "--plan", str(plan), "--out", str(out), "--offline"]
    )
    assert status == 1
    assert "2 runs (2 failed)" in stdout
    assert err == ""
    assert (out / "a-dir" / "run-0" / "failed.txt").is_file()


# -- bad input files, generated ----------------------------------------------------

VALID = {
    "log": format_replay_log(LOG),
    "policy": format_policy(naive_policy([LOG])),
    "plan": "dataset = n.tcr normal\nruns_per_dataset = 1\ntail_time = 1\n",
    "params": "cycles_per_second = 50\ntwocell.n_type2 = 4\n",
    "serve-params": "cycles_per_second = 50\nseed = 9\ntwocell.n_type2 = 4\n",
}
# each file argument: its command line with the file as {path}, the kind of
# file it takes, and the reader that the command reads it with
ARGUMENTS = {
    "stats --log": (["stats", "--log", "{path}"], "log", read_replay_log),
    "eval --log": (["eval", "--policy", "{policy}", "--log", "{path}"], "log", read_replay_log),
    "eval --policy": (["eval", "--policy", "{path}", "--log", "{log}"], "policy", read_policy),
    "replay --log": (["replay", "--port", "{port}", "--log", "{path}"], "log", read_replay_log),
    "tcreplay --log": (["--port", "{port}", "--log", "{path}"], "log", read_replay_log),
    "experiment --plan": (["experiment", "--out", "{out}", "--plan", "{path}"], "plan", read_plan),
    "experiment params_file": (
        ["experiment", "--out", "{out}", "--offline", "--plan", "{plan}"], "params",
        load_params_file,
    ),
    "serve --params": (
        ["serve", "--port", "0", "--params", "{path}"], "serve-params",
        lambda path: load_params_file(path, extra=("seed",)),
    ),
}
# the rules of `key = value` lines, each broken by a line added to a valid file
KEY_VALUE_RULES = {
    "plan": ["no_such_key = 1", "tail_time = 1", "tail_time 1", "tail_time = ten",
             "dataset = n.tcr", "dataset = n.tcr nowhere", "params_file ="],
    "params": ["no_such_key = 1", "cycles_per_second = 5", "cycles_per_second 5",
               "cycles_per_second = ten", "seed = 1"],
    "serve-params": ["no_such_key = 1", "seed = 1", "seed 1", "seed = ten",
                     "cycles_per_second = 0"],
}


@st.composite
def bad_files(draw, kind):
    """(shape, the file's bytes), with no bytes for a missing file or a directory."""
    valid = VALID[kind].encode()
    shapes = ["missing", "dir", "not-utf8", "random", "cut"]
    shape = draw(st.sampled_from(shapes + ["rule"] * (kind in KEY_VALUE_RULES)))
    if shape in ("missing", "dir"):
        return shape, None
    if shape == "not-utf8":
        at = draw(st.integers(0, len(valid)))
        return shape, valid[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + valid[at:]
    if shape == "random":
        # bytes, or text, which gets past the decoder to the parser
        return shape, draw(st.binary(max_size=200) | st.text(max_size=200).map(str.encode))
    if shape == "cut":
        return shape, valid[: draw(st.integers(0, len(valid) - 1))]
    return shape, valid + draw(st.sampled_from(KEY_VALUE_RULES[kind])).encode() + b"\n"


@st.composite
def bad_arguments(draw):
    name = draw(st.sampled_from(sorted(ARGUMENTS)))
    return name, draw(bad_files(ARGUMENTS[name][1]))


@settings(max_examples=300, deadline=None)
@given(bad_arguments())
def test_bad_input_file_exits_2_with_one_line(case):
    name, (shape, content) = case
    argv, _, reader = ARGUMENTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = root / "input.txt"
        if shape == "dir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        try:
            reader(str(path))
        except (OSError, ValueError):
            pass
        else:
            return  # a cut or random file that happens to be valid is not a bad input
        (root / "log.tcr").write_text(VALID["log"])
        (root / "policy.txt").write_text(VALID["policy"])
        (root / "plan.txt").write_text(VALID["plan"] + f"params_file = {path.name}\n")
        out = root / "out"
        argv = [arg.format(path=path, log=root / "log.tcr", policy=root / "policy.txt",
                           plan=root / "plan.txt", out=out, port=closed_port())
                for arg in argv]

        def runner(*args):
            raise AssertionError("runner called")

        with mock.patch.object(cli.time, "sleep", side_effect=KeyboardInterrupt), \
                mock.patch.object(cli, "run_offline", runner), \
                mock.patch.object(cli, "run_experiment", runner):
            if name.startswith("tcreplay"):
                status, stdout, err = run(cli.tcreplay_main, argv)
                prog = "tcreplay"
            else:
                status, stdout, err = run(cli.main, argv)
                prog = f"aisd {argv[0]}"
        assert status == 2, (shape, err)
        assert stdout == ""
        assert err.startswith(f"{prog}: {path}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err
        assert not out.exists()
